/**
 * @file
 * The three workloads of the outside-in benchmark. Each one has an
 * untraced measurement (end-to-end metrics, the public entry point timed
 * from outside) and a traced section that calls each layer's public
 * entry point directly and times it (per-layer metrics). See README.md
 * for what each workload stresses and which end-to-end metric each
 * layer metric should move.
 */

#ifndef BT_PERFBENCH_WORKLOADS_HPP
#define BT_PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "sched/affinity.hpp"
#include "support.hpp"

namespace bt::perfbench {

/**
 * Moves a busy thread over the cores the constructing thread may use,
 * one core per step. On the 4-vCPU virtual machine the benchmark was
 * tuned on, each vCPU runs for seconds to minutes at a time either fast
 * or about 1.7x slower, and the scheduler keeps a lone busy thread on one
 * vCPU: without rotation, a run measured whichever vCPU it happened to
 * land on. next() binds whichever thread calls it; the destructor gives
 * the destroying thread back the constructing thread's affinity.
 */
class CoreRotation
{
  public:
    CoreRotation() : allowed_(sched::currentThreadAffinity()) {}
    ~CoreRotation() { sched::bindCurrentThread(allowed_); }

    CoreRotation(const CoreRotation&) = delete;
    CoreRotation& operator=(const CoreRotation&) = delete;

    /** Bind the calling thread to the next allowed core. */
    void
    next()
    {
        if (allowed_.empty())
            return;
        const int core = allowed_.cores()[step_++ % allowed_.size()];
        sched::bindCurrentThread(sched::CpuSet({core}));
    }

  private:
    sched::CpuSet allowed_;
    std::size_t step_ = 0;
};

/** What the command line asked for. */
struct RunSpec
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string root = "."; ///< checkout root (reference CSVs live here)
};

/** Everything one run reports. */
struct Outcome
{
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    MetricSet metrics;

    /** Failed correctness checks; any entry makes the run incorrect. */
    std::vector<std::string> problems;

    /** Record a correctness check; a false @p ok fails the run. */
    void check(bool ok, const std::string& what);

    /** Print a human-readable line (never the last line of stdout). */
    static void note(const std::string& line);
};

/** Untraced runs: the end-to-end metrics of one workload. */
void planFlow(const RunSpec& spec, Outcome& out);
void serveMixed(const RunSpec& spec, Outcome& out);
void nativeOctree(const RunSpec& spec, Outcome& out);

/** Traced sections: the per-layer metrics, within @p seconds. */
void planFlowLayers(const RunSpec& spec, double seconds, Outcome& out);
void serveMixedLayers(const RunSpec& spec, double seconds, Outcome& out);
void nativeOctreeLayers(const RunSpec& spec, double seconds, Outcome& out);

/** Median of @p n timed set-ups (seconds each). */
template <typename Fn>
double
medianSetup(int n, Fn&& setup)
{
    std::vector<double> times;
    for (int i = 0; i < n; ++i) {
        const auto t0 = Clock::now();
        setup();
        times.push_back(secondsSince(t0));
    }
    return median(times);
}

} // namespace bt::perfbench

#endif // BT_PERFBENCH_WORKLOADS_HPP
