/**
 * @file
 * What the end-to-end flow (paper Fig. 2: profile -> optimize ->
 * autotune -> deploy) produced, plus the homogeneous CPU/GPU baselines
 * every evaluation compares against. bt::Framework
 * (flow/framework.hpp) runs the flow and returns this report.
 */

#ifndef BT_CORE_PIPELINE_HPP
#define BT_CORE_PIPELINE_HPP

#include <vector>

#include "core/autotuner.hpp"
#include "core/optimizer.hpp"
#include "core/profiler.hpp"
#include "runtime/run_types.hpp"

namespace bt::core {

/** Everything the flow produced, for reporting and tests. */
struct BetterTogetherReport
{
    ProfileResult profile;
    std::vector<Candidate> candidates; ///< optimizer output, ranked
    TuningReport tuning;               ///< level-3 measurements
    Schedule bestSchedule;
    double bestLatencySeconds = 0.0;   ///< measured, steady state

    /** Deployment run of the winning schedule: the unified RunResult
     *  with its structured TraceTimeline (occupancy, bubbles,
     *  co-runner sets), for reporting and trace export. */
    runtime::RunResult deployedRun;

    double cpuBaselineSeconds = 0.0;   ///< best CPU class, homogeneous
    double gpuBaselineSeconds = 0.0;   ///< GPU-only
    int cpuBaselinePu = -1;
    int gpuBaselinePu = -1;

    /** min(CPU, GPU) homogeneous latency. */
    double bestBaselineSeconds() const;

    /** Headline metric: best baseline / BetterTogether. */
    double speedupOverBestBaseline() const;
    double speedupOverCpu() const;
    double speedupOverGpu() const;
};

} // namespace bt::core

#endif // BT_CORE_PIPELINE_HPP
