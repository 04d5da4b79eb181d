#include "flow/framework.hpp"

#include <string>
#include <utility>

#include "common/logging.hpp"
#include "lint/lint.hpp"

namespace bt {

namespace {

/** @p run without its fault plan: what every measurement runs under. */
runtime::RunConfig
faultFree(runtime::RunConfig run)
{
    run.faults = {};
    return run;
}

} // namespace

Framework::Framework(const platform::SocDescription& soc,
                     FrameworkConfig cfg)
    : soc_(soc), cfg_(std::move(cfg)), model_(soc_),
      measurer_(model_, faultFree(cfg_.run)), deployer_(model_)
{
}

lint::Report
Framework::preflight(const core::Application& app) const
{
    return lint::lintPreflight(soc_, app, cfg_.optimizer, cfg_.run);
}

core::ProfileResult
Framework::profile(const core::Application& app) const
{
    return core::Profiler(model_, cfg_.profiler).profile(app);
}

OptimizeResult
Framework::optimize(const core::ProfileResult& profile,
                    core::PlannerSpec spec) const
{
    if (spec.contention.budgetGbps > 0.0
        || spec.contention.ambientGbps > 0.0)
        spec.contentionProfile = &profile.contention;
    core::Optimizer optimizer(soc_, profile.interference, std::move(spec));
    OptimizeResult result{optimizer.optimize(), optimizer.stats()};
    BT_ASSERT(!result.candidates.empty(), "optimizer found no schedule");
    return result;
}

core::TuningReport
Framework::autotune(const core::Application& app,
                    const std::vector<core::Candidate>& candidates) const
{
    return core::AutoTuner(measurer_, 10.0, cfg_.tunerThreads)
        .tune(app, candidates);
}

runtime::RunResult
Framework::deploy(const core::Application& app,
                  const core::Schedule& schedule) const
{
    return deployer_.run(app, schedule, cfg_.run);
}

double
Framework::measureHomogeneous(const core::Application& app, int pu) const
{
    return measurer_
        .measure(app, core::Schedule::homogeneous(app.numStages(), pu))
        .taskIntervalSeconds;
}

FrameworkReport
Framework::run(const core::Application& app) const
{
    FrameworkReport report;
    report.preflight = preflight(app);
    if (report.preflight.errors() > 0) {
        std::string detail;
        for (const auto& d : report.preflight.diagnostics)
            if (d.severity == lint::Severity::Error)
                detail += "\n  " + d.toString();
        BT_PANIC("lint.preflight", "static preflight of '", app.name(),
                 "' found ", report.preflight.errors(),
                 " error(s); fix them before running:", detail);
    }

    report.profile = profile(app);
    OptimizeResult optimized = optimize(report.profile, cfg_.optimizer);
    report.candidates = std::move(optimized.candidates);
    report.optimizeStats = optimized.stats;

    if (cfg_.autotune) {
        report.tuning = autotune(app, report.candidates);
        report.bestSchedule = report.tuning.best().candidate.schedule;
        report.bestLatencySeconds = report.tuning.best().measuredLatency;
    } else {
        report.bestSchedule = report.candidates.front().schedule;
        report.bestLatencySeconds
            = measurer_.measure(app, report.bestSchedule)
                  .taskIntervalSeconds;
    }
    report.deployedRun = deploy(app, report.bestSchedule);

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

} // namespace bt
