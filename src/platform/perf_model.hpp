/**
 * @file
 * The analytic performance / interference model of a simulated SoC.
 *
 * Substitutes for the physical devices of the paper (see DESIGN.md): given
 * a stage's WorkProfile, the PU it runs on, and the set of concurrently
 * active stage executions, it returns the stage's execution time. It is a
 * roofline model (max of compute and memory time) extended with the three
 * interference mechanisms the paper measures in Sec. 5.3:
 *
 *  1. demand-proportional sharing of the single DRAM pool (UMA),
 *  2. DVFS governor reactions to system load - including the
 *     counter-intuitive firmware *boost* of mobile GPUs and of the
 *     OnePlus A510 cluster under heavy CPU load,
 *  3. shared-LLC degradation under contention (Jetson).
 *
 * The memory side (bandwidth demand, roofline sharing, LLC factors) is
 * delegated to the shared ContentionModel (contention.hpp), so the
 * solver's C6 constraints, the schedule evaluator's ambient buckets,
 * and the serving layer's leases all reason over the exact same curves
 * this model executes.
 *
 * The model is deterministic; measurement noise is added by its callers
 * (profiler / executor).
 */

#ifndef BT_PLATFORM_PERF_MODEL_HPP
#define BT_PLATFORM_PERF_MODEL_HPP

#include <cstdint>
#include <span>

#include "platform/contention.hpp"
#include "platform/soc.hpp"

namespace bt::platform {

/** One concurrently executing stage, as seen by the model. */
struct Load
{
    const WorkProfile* work = nullptr;
    int pu = -1; ///< PU class index within the SoC
};

/**
 * What a load's time needs that no co-runner changes: its DRAM demand
 * and its compute time at either governor state, unthrottled. The DES
 * builds one per (stage, PU) for a run and refreshes rates from them.
 */
struct LoadCell
{
    Load load;
    double demandGbps = 0.0;
    double computeIdle = 0.0; ///< seconds, no other PU class busy
    double computeBusy = 0.0; ///< seconds, another PU class busy
};

/**
 * Stateless evaluator over one SocDescription. All methods are const and
 * thread-compatible.
 */
class PerfModel
{
  public:
    /** PU classes the interference fold tracks (one bit each). */
    static constexpr int kMaxPus = 64;

    explicit PerfModel(const SocDescription& soc_);

    const SocDescription& soc() const { return desc; }

    /** The shared DRAM-contention model every memory-side number of
     *  this class comes from. */
    const ContentionModel& contention() const { return contention_; }

    /** The co-runner-independent part of @p w's time on @p pu. */
    LoadCell cellOf(const WorkProfile& w, int pu) const;

    /**
     * Execution time (seconds) of every load in @p active, all running
     * concurrently, written to @p times_out[i] for active[i]; allocates
     * nothing. Loads sharing a PU timeslice it. @p clock_scale holds one
     * factor per PU class (empty = all 1.0) multiplying its effective
     * compute clock - the fault layer's emulated thermal-throttling
     * windows; memory bandwidth is unaffected. @p ambient_gbps is DRAM
     * demand drawn by co-runners outside @p active (other tenants on
     * the SoC), weighted like any foreign PU's traffic. Loads on one PU
     * class share one demand fold, summed in load order; a load whose
     * clock factor is 1.0 reads its compute time from its cell. The DES
     * rate refresh calls this once per active-set change.
     */
    void timesOf(std::span<const LoadCell> active,
                 std::span<const double> clock_scale, double ambient_gbps,
                 std::span<double> times_out) const;

    /** Execution time of @p w on @p pu with nothing else running:
     *  timesOf over the single load. */
    double isolatedTime(const WorkProfile& w, int pu) const;

    /**
     * Execution time of @p w on @p pu while every other PU runs the same
     * computation - the profiler's interference-heavy mode (Sec. 3.2) -
     * with @p ambient_gbps of cross-tenant DRAM demand on top (the
     * contention-profile stretch basis). Equals timesOf over one load
     * of @p w per PU class, in PU order.
     */
    double interferenceHeavyTime(const WorkProfile& w, int pu,
                                 double ambient_gbps = 0.0) const;

    /** Effective clock of @p pu (GHz) when @p busy_others other PU
     *  classes are active. Exposed for the Fig. 7 analysis. */
    double effectiveFreqGhz(int pu, int busy_others) const;

    /**
     * Instantaneous power (watts) of PU @p pu when it is active and
     * @p busy_others other classes are active too: active power scales
     * with the square of the governor's clock factor (voltage tracks
     * frequency under DVFS).
     */
    double activePowerW(int pu, int busy_others) const;

    /**
     * Whole-SoC power given which PU classes are executing (bit p of
     * @p pu_active = class p busy): base + per-class active/idle draw.
     */
    double systemPowerW(std::uint64_t pu_active) const;

  private:
    /**
     * The fold's tail shared by timesOf and its closed forms: the time
     * of @p w on @p pu given its compute time @p comp, @p busy_others
     * other busy PU classes, @p same_pu loads on its own PU (itself
     * included) and the in-pipeline weighted demand @p demand_total
     * (ambient not yet added).
     */
    double stageTime(const WorkProfile& w, int pu, double comp,
                     int busy_others, int same_pu, double demand_total,
                     double ambient_gbps) const;

    /** Compute-side time of @p w on @p pu, before memory effects, with
     *  @p busy_others other busy classes and the throttle factors. */
    double computeTime(const WorkProfile& w, int pu, int busy_others,
                       std::span<const double> clock_scale) const;

    const SocDescription& desc;
    ContentionModel contention_;
};

} // namespace bt::platform

#endif // BT_PLATFORM_PERF_MODEL_HPP
