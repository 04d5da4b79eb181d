/**
 * @file
 * The unified runtime's configuration and result types.
 *
 * Every BT-Implementer execution - virtual time (DES) under the static
 * pipeline or the greedy dynamic policy, or host threads - is
 * configured by one RunConfig and reports one RunResult, so results
 * from different backends and policies are directly comparable (the
 * isolated-vs-pipelined comparisons of the paper's Fig. 5/6 hinge on
 * exactly this). RunResult always carries the structured TraceTimeline
 * of what actually ran.
 */

#ifndef BT_RUNTIME_RUN_TYPES_HPP
#define BT_RUNTIME_RUN_TYPES_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/fault_plan.hpp"
#include "runtime/trace.hpp"

namespace bt::runtime {

/** Execution knobs common to every pipeline backend. */
struct RunConfig
{
    /** Streaming inputs to process (the paper measures runs of 30). */
    int numTasks = 30;

    /** TaskObjects in flight; 0 = one per dispatcher slot plus one
     *  (a slot is a chunk, or a PU class under greedy dispatch). */
    int numBuffers = 0;

    /** Virtual backends: also run kernels functionally. (The host
     *  backend always executes kernels - it has no other notion of
     *  running a stage.) Outputs are validated per task whenever
     *  kernels run. */
    bool runKernels = false;

    /** Extra seed folded into measurement noise (0 = device seed). */
    std::uint64_t noiseSalt = 0;

    /** Warmup tasks excluded from the steady-state interval metric. */
    int warmupTasks = 3;

    /** Host backend: bounded SPSC queue capacity (raised to the buffer
     *  count when smaller, so the free pool always fits). */
    int queueCapacity = 4;

    /** Record the TraceTimeline of the run. */
    bool recordTrace = true;

    /**
     * Serving-session id stamped on the recorded TraceTimeline and
     * every one of its events, so a multi-tenant front end (bt::Service)
     * can merge concurrent sessions' traces while keeping them
     * distinguishable. -1 = untagged single-pipeline run (the export
     * format is unchanged).
     */
    int sessionId = -1;

    /**
     * DRAM bandwidth demand (GB/s) of co-runners outside this pipeline
     * - other tenants sharing the SoC. The virtual backends fold it
     * into every stage time exactly like the planner's ambient bucket;
     * the host backend sleeps out the model's predicted stretch. 0 is
     * bit-identical to a single-tenant run.
     */
    double ambientBandwidthGbps = 0.0;

    /** Faults to inject (empty = none; the fault-free fast path is
     *  bit-identical to a build without the fault layer). */
    FaultPlan faults;

    /** How the dispatchers react to injected faults. */
    RecoveryPolicy recovery;

    /**
     * The paper's "one TaskObject per chunk plus one" multi-buffering
     * default: @p requested buffers, or slots + 1 when requested <= 0.
     */
    static int resolveBuffers(int requested, int slots);

    /** resolveBuffers applied to this config's numBuffers. */
    int resolveBuffers(int num_chunks) const;

    /**
     * Every range rule of a run: numTasks >= 1, warmupTasks >= 0,
     * queueCapacity >= 1 and recovery.maxRetries >= 0, then the fault
     * plan's FaultPlan::problems with each message prefixed "faults.".
     * Counts <= 0 mean "unknown", as there. Lint and every backend read
     * this; a valid config yields an empty list.
     */
    std::vector<PlanParseError> problems(int num_stages,
                                         int num_pus) const;

    /** Panic under "[run.range]" with every Range entry of
     *  problems(num_stages, num_pus): what every backend runs first. */
    void requireInRange(int num_stages, int num_pus) const;
};

/** Measured outcome of one pipeline execution, any backend. */
struct RunResult
{
    int tasks = 0;
    double makespanSeconds = 0.0;     ///< first start to last finish
    double taskIntervalSeconds = 0.0; ///< steady-state per-task interval
    double meanLatencySeconds = 0.0;  ///< mean end-to-end task latency
    double energyJoules = 0.0;        ///< integrated SoC energy (virtual)
    std::vector<double> chunkBusyFraction; ///< utilization per dispatcher
    std::vector<std::string> validationErrors;
    bool affinityApplied = true; ///< all chunk teams pinned successfully

    /** What actually ran when (empty if recording was disabled). */
    TraceTimeline trace;

    /** Faults survived and the price paid (all zero on clean runs). */
    RecoveryStats recovery;

    /** Average SoC power over the run (watts). */
    double
    averagePowerW() const
    {
        return makespanSeconds > 0.0 ? energyJoules / makespanSeconds
                                     : 0.0;
    }

    /** Energy per streaming input (joules). */
    double
    energyPerTaskJ() const
    {
        return tasks > 0 ? energyJoules / tasks : 0.0;
    }

    /** The paper's headline metric: per-task latency in milliseconds. */
    double latencyMs() const { return taskIntervalSeconds * 1e3; }

    bool valid() const { return validationErrors.empty(); }
};

} // namespace bt::runtime

#endif // BT_RUNTIME_RUN_TYPES_HPP
