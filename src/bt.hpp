/**
 * @file
 * Umbrella header and one-object entry point for the BetterTogether
 * framework.
 *
 * `#include "bt.hpp"` pulls in everything a user program needs: the
 * application model, the simulated devices, the profile -> optimize ->
 * autotune flow, the unified pipeline runtime (including fault
 * injection and recovery), the native/dynamic executors, and the
 * multi-tenant serving front end (bt::Service).
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
#include "core/dynamic_executor.hpp"
#include "core/native_executor.hpp"
#include "core/pipeline.hpp"
#include "lint/lint.hpp"
#include "platform/devices.hpp"
#include "platform/perf_model.hpp"
#include "runtime/fault_plan.hpp"
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
 * The one-object API: profile the application, optimize the schedule
 * space, autotune the candidates, and deploy the winner - all against
 * one simulated device and one config.
 */
class Framework
{
  public:
    explicit Framework(const platform::SocDescription& soc,
                       FrameworkConfig cfg = {})
        : soc_(soc), cfg_(std::move(cfg)),
          flow_(soc_, core::BetterTogetherConfig{
                          cfg_.profiler, cfg_.optimizer, cfg_.run,
                          cfg_.autotune, cfg_.tunerThreads})
    {
    }

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
     * Profile -> optimize -> autotune -> deploy @p app.
     *
     * Runs the static preflight first: errors (a schedule space the
     * exact engine refuses, a C6 budget below the demand floor, a
     * fault plan that starves every PU...) panic with every finding
     * and its remediation before any simulated time is spent;
     * warnings ride along in the report's `preflight` member.
     */
    FrameworkReport
    run(const core::Application& app) const
    {
        lint::Report pre = preflight(app);
        if (pre.errors() > 0) {
            std::string detail;
            for (const auto& d : pre.diagnostics)
                if (d.severity == lint::Severity::Error)
                    detail += "\n  " + d.toString();
            BT_PANIC("lint.preflight", "static preflight of '",
                     app.name(), "' found ", pre.errors(),
                     " error(s); fix them before running:", detail);
        }
        FrameworkReport report;
        static_cast<core::BetterTogetherReport&>(report)
            = flow_.run(app);
        report.preflight = std::move(pre);
        return report;
    }

    /** Homogeneous baseline latency of @p app on PU class @p pu. */
    double
    measureHomogeneous(const core::Application& app, int pu) const
    {
        return flow_.measureHomogeneous(app, pu);
    }

    /** The interference-aware performance model of the device. */
    const platform::PerfModel& model() const { return flow_.model(); }

  private:
    platform::SocDescription soc_;
    FrameworkConfig cfg_;
    core::BetterTogether flow_;
};

} // namespace bt

#endif // BT_BT_HPP
