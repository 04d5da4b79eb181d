/**
 * @file
 * bt::Framework - the paper's Fig. 2 flow (profile -> optimize ->
 * autotune -> deploy) over one simulated device and one config. Each
 * phase is a public method and run() is their composition; bt::Service
 * and bt_explorer plan through the same phases, so the flow's two
 * policies live here once: optimize() attaches the profile's contention
 * snapshot exactly when the spec sets a C6 budget or an ambient demand,
 * and every measurement runs fault-free - only deploy() runs the
 * config's FaultPlan.
 */

#ifndef BT_FLOW_FRAMEWORK_HPP
#define BT_FLOW_FRAMEWORK_HPP

#include <vector>

#include "core/autotuner.hpp"
#include "core/pipeline.hpp"
#include "core/profiler.hpp"
#include "lint/diagnostic.hpp"
#include "runtime/virtual_backend.hpp"

namespace bt {

/** Every knob of the full flow, one struct. */
struct FrameworkConfig
{
    core::ProfilerConfig profiler;
    core::PlannerSpec optimizer;

    /** Deployment knobs, shared by every backend - including the
     *  FaultPlan / RecoveryPolicy of the fault-tolerant runtime, which
     *  apply to the deployment run only. */
    runtime::RunConfig run;

    /** Run the measurement-driven autotuning level (paper level 3). */
    bool autotune = true;

    /** Worker threads for the autotuning campaign (1 = serial); the
     *  report is bit-identical at any value. */
    int tunerThreads = 1;
};

/** What optimize() produced: the ranked candidates (never empty) and
 *  the run's statistics. */
struct OptimizeResult
{
    std::vector<core::Candidate> candidates;
    core::OptimizeStats stats;
};

/** BetterTogetherReport plus the preflight's lint findings and the
 *  optimizer's statistics. */
struct FrameworkReport : core::BetterTogetherReport
{
    /** bt::lint preflight over (app, spec, run config): warnings and
     *  infos land here; errors abort run() before anything executes. */
    lint::Report preflight;

    core::OptimizeStats optimizeStats;
};

/** The one-object API: the whole flow against one simulated device. */
class Framework
{
  public:
    explicit Framework(const platform::SocDescription& soc,
                       FrameworkConfig cfg = {});

    // The model and the executors refer to soc_ and model_, so a
    // member-wise copy (or move) would model the source's device.
    Framework(const Framework&) = delete;
    Framework& operator=(const Framework&) = delete;

    /** Static analysis of (@p app, optimizer spec, run config); runs
     *  nothing. */
    lint::Report preflight(const core::Application& app) const;

    /** Interference-aware profiling of @p app (paper Sec. 3.2). */
    core::ProfileResult profile(const core::Application& app) const;

    /** Paper levels 1 and 2 over @p profile's interference table under
     *  @p spec, with the contention snapshot attached when @p spec
     *  sets a C6 budget or an ambient demand. */
    OptimizeResult optimize(const core::ProfileResult& profile,
                            core::PlannerSpec spec) const;

    /** Paper level 3: measure every candidate (non-empty) fault-free
     *  and rank by measured latency. */
    core::TuningReport
    autotune(const core::Application& app,
             const std::vector<core::Candidate>& candidates) const;

    /** The deployment run of @p schedule under the full run config,
     *  fault plan and trace included. */
    runtime::RunResult deploy(const core::Application& app,
                              const core::Schedule& schedule) const;

    /** Fault-free homogeneous latency of @p app on PU class @p pu. */
    double measureHomogeneous(const core::Application& app,
                              int pu) const;

    /**
     * preflight -> profile -> optimize -> autotune (or measure the
     * predicted best) -> deploy, then the homogeneous CPU and GPU
     * baselines. Preflight errors panic with every finding before any
     * simulated time is spent; warnings ride along in the report.
     */
    FrameworkReport run(const core::Application& app) const;

    /** The interference-aware performance model of the device. */
    const platform::PerfModel& model() const { return model_; }

  private:
    platform::SocDescription soc_;
    FrameworkConfig cfg_;
    platform::PerfModel model_;
    core::SimExecutor measurer_; ///< cfg_.run without its fault plan
    runtime::VirtualTimeBackend deployer_;
};

} // namespace bt

#endif // BT_FLOW_FRAMEWORK_HPP
