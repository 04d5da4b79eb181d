/**
 * @file
 * BT-Profiler (paper Sec. 3.2): builds per-application profiling tables
 * by measuring every stage on every PU class, in two modes:
 *
 *  - isolated: the stage runs alone on its PU (the methodology of prior
 *    work, kept for the Fig. 5c / Fig. 6b comparisons);
 *  - interference-heavy: every *other* PU class concurrently runs the
 *    same computation while only the measured PU's time is recorded,
 *    emulating realistic intra-application contention.
 *
 * Measurements run against the simulated device: each of the 30
 * repetitions is the performance model's time scaled by seeded
 * log-normal noise, then averaged - mirroring the paper's black-box
 * timing methodology (hardware timers, 30 reps, mean).
 */

#ifndef BT_CORE_PROFILER_HPP
#define BT_CORE_PROFILER_HPP

#include "core/application.hpp"
#include "core/profiling_table.hpp"
#include "platform/perf_model.hpp"

namespace bt::core {

/** Profiler knobs. */
struct ProfilerConfig
{
    int repetitions = 30;  ///< measurements per (stage, PU) cell
    bool recordCost = true; ///< accumulate the virtual profiling cost

    /**
     * Fixed per-measurement cost (timer setup, co-load launch, cool
     * down) added to the virtual campaign cost; with the default
     * configuration a full table lands near the paper's ~6 minutes per
     * device and application.
     */
    double perRepOverheadSeconds = 0.15;
};

/** Both tables plus the virtual time the campaign consumed. */
struct ProfileResult
{
    ProfilingTable isolated;
    ProfilingTable interference;
    /** Per-(stage, PU) bandwidth demand and ambient-bucket stretch
     *  factors, for contention-aware planning (the C6 filter, evaluator
     *  buckets, service leases). Noise-free: derived analytically from
     *  the same model the timing measurements sample. */
    platform::ContentionProfile contention;
    double profilingCostSeconds = 0.0;

    /**
     * Table to feed the optimizer: interference-aware for pipelined
     * execution (more than one chunk), per the BetterTogether method.
     */
    const ProfilingTable& tableFor(bool interference_aware) const
    {
        return interference_aware ? interference : isolated;
    }
};

/** Profiles applications against one simulated device. */
class Profiler
{
  public:
    explicit Profiler(const platform::PerfModel& model,
                      ProfilerConfig cfg = {});

    /** Run the full campaign for @p app. */
    ProfileResult profile(const Application& app) const;

    /**
     * Mean measured latency for a single (stage, PU) cell in the given
     * mode; exposed for the Fig. 7 interference analysis.
     */
    double measureCell(const platform::WorkProfile& work, int stage_index,
                       int pu, bool interference_heavy,
                       double* stddev_out = nullptr,
                       double* cost_out = nullptr) const;

  private:
    const platform::PerfModel& model;
    ProfilerConfig config;
};

} // namespace bt::core

#endif // BT_CORE_PROFILER_HPP
