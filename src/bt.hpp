/**
 * @file
 * Umbrella header and one-object entry point for the BetterTogether
 * framework.
 *
 * `#include "bt.hpp"` pulls in everything a user program needs: the
 * application model, the simulated devices, the profile -> optimize ->
 * autotune flow, the unified pipeline runtime (including fault
 * injection and recovery) with its virtual-time, host-thread and greedy
 * dynamic backends, and the multi-tenant serving front end
 * (bt::Service).
 *
 * bt::Framework runs the whole paper flow from a single FrameworkConfig
 * that composes the per-component knobs (ProfilerConfig,
 * core::PlannerSpec, runtime::RunConfig). Because RunConfig carries the
 * FaultPlan and RecoveryPolicy, fault-tolerant deployments need no
 * extra API surface - describe the faults in the same config.
 */

#ifndef BT_BT_HPP
#define BT_BT_HPP

#include <string>
#include <utility>

#include "common/logging.hpp"
#include "core/application.hpp"
#include "core/autotuner.hpp"
#include "core/native_executor.hpp"
#include "core/optimizer.hpp"
#include "core/pipeline.hpp"
#include "core/profiler.hpp"
#include "core/sim_executor.hpp"
#include "lint/lint.hpp"
#include "platform/devices.hpp"
#include "platform/perf_model.hpp"
#include "runtime/fault_plan.hpp"
#include "runtime/greedy_runtime.hpp"
#include "runtime/run_types.hpp"
#include "service/service.hpp"

namespace bt {

/** The serving front end, re-exported at the top level: a worker pool,
 *  PU leasing, and a keyed schedule cache over the Framework flow. */
using service::Service;
using service::ServiceConfig;
using service::ServiceReport;

/** Every knob of the full flow, one struct. */
struct FrameworkConfig
{
    core::ProfilerConfig profiler;
    core::PlannerSpec optimizer;

    /** Deployment knobs, shared by every backend - including the
     *  FaultPlan / RecoveryPolicy of the fault-tolerant runtime. */
    runtime::RunConfig run;

    /** Run the measurement-driven autotuning level (paper level 3). */
    bool autotune = true;

    /** Worker threads for the autotuning campaign (1 = serial); the
     *  report is bit-identical at any value. */
    int tunerThreads = 1;
};

/** BetterTogetherReport plus the static preflight's lint findings. */
struct FrameworkReport : core::BetterTogetherReport
{
    /** bt::lint preflight over (app, spec, run config): warnings and
     *  infos land here; errors abort run() before anything executes. */
    lint::Report preflight;
};

/**
 * The one-object API (paper Fig. 2): profile the application, optimize
 * the schedule space, autotune the candidates, and deploy the winner -
 * all against one simulated device and one config.
 */
class Framework
{
  public:
    explicit Framework(const platform::SocDescription& soc,
                       FrameworkConfig cfg = {})
        : soc_(soc), cfg_(std::move(cfg)), model_(soc_)
    {
    }

    // model_ holds a reference to soc_, so a member-wise copy (or move)
    // would model the source object's device, not its own.
    Framework(const Framework&) = delete;
    Framework& operator=(const Framework&) = delete;

    /**
     * Statically analyze (@p app, optimizer spec, run config) without
     * executing anything - the same report run() computes first.
     */
    lint::Report
    preflight(const core::Application& app) const
    {
        return lint::lintPreflight(soc_, app, cfg_.optimizer, cfg_.run);
    }

    /**
     * Profile -> optimize -> autotune -> deploy @p app, then measure the
     * homogeneous CPU and GPU baselines.
     *
     * Runs the static preflight first: errors (a C6 budget below the
     * demand floor, a fault plan that starves every PU...) panic with
     * every finding and its remediation before any simulated time is
     * spent; warnings ride along in the report's `preflight` member.
     */
    FrameworkReport
    run(const core::Application& app) const
    {
        FrameworkReport report;
        report.preflight = preflight(app);
        if (report.preflight.errors() > 0) {
            std::string detail;
            for (const auto& d : report.preflight.diagnostics)
                if (d.severity == lint::Severity::Error)
                    detail += "\n  " + d.toString();
            BT_PANIC("lint.preflight", "static preflight of '",
                     app.name(), "' found ", report.preflight.errors(),
                     " error(s); fix them before running:", detail);
        }

        // 1) Interference-aware profiling.
        const core::Profiler profiler(model_, cfg_.profiler);
        report.profile = profiler.profile(app);

        // 2) Schedule generation from the interference table.
        core::Optimizer optimizer(soc_, report.profile.interference,
                                  cfg_.optimizer);
        report.candidates = optimizer.optimize();
        BT_ASSERT(!report.candidates.empty(),
                  "optimizer found no schedule");

        // 3) Autotuning: run the candidates, take the measured best.
        const core::SimExecutor executor(model_, cfg_.run);
        if (cfg_.autotune) {
            const core::AutoTuner tuner(executor, 10.0, cfg_.tunerThreads);
            report.tuning = tuner.tune(app, report.candidates);
            report.bestSchedule = report.tuning.best().candidate.schedule;
            report.bestLatencySeconds
                = report.tuning.best().measuredLatency;
        } else {
            report.bestSchedule = report.candidates.front().schedule;
            report.bestLatencySeconds
                = executor.measure(app, report.bestSchedule)
                      .taskIntervalSeconds;
        }

        // Deployment run of the winner: one more execution that carries
        // the full unified result, including the structured trace.
        report.deployedRun = executor.execute(app, report.bestSchedule);

        // Baselines: the paper compares against big-cores-only (the best
        // CPU configuration in its experiments) and GPU-only DOALL runs.
        report.cpuBaselinePu = soc_.bigCpuIndex();
        report.gpuBaselinePu = soc_.gpuIndex();
        BT_ASSERT(report.cpuBaselinePu >= 0, "device has no CPU class");
        BT_ASSERT(report.gpuBaselinePu >= 0, "device has no GPU class");
        report.cpuBaselineSeconds
            = measureHomogeneous(app, report.cpuBaselinePu);
        report.gpuBaselineSeconds
            = measureHomogeneous(app, report.gpuBaselinePu);
        return report;
    }

    /** Homogeneous baseline latency of @p app on PU class @p pu. */
    double
    measureHomogeneous(const core::Application& app, int pu) const
    {
        const core::SimExecutor executor(model_, cfg_.run);
        const auto schedule
            = core::Schedule::homogeneous(app.numStages(), pu);
        return executor.measure(app, schedule).taskIntervalSeconds;
    }

    /** The interference-aware performance model of the device. */
    const platform::PerfModel& model() const { return model_; }

  private:
    platform::SocDescription soc_;
    FrameworkConfig cfg_;
    platform::PerfModel model_;
};

} // namespace bt

#endif // BT_BT_HPP
