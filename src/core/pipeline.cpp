#include "core/pipeline.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace bt::core {

double
BetterTogetherReport::bestBaselineSeconds() const
{
    return std::min(cpuBaselineSeconds, gpuBaselineSeconds);
}

double
BetterTogetherReport::speedupOverBestBaseline() const
{
    BT_ASSERT(bestLatencySeconds > 0.0);
    return bestBaselineSeconds() / bestLatencySeconds;
}

double
BetterTogetherReport::speedupOverCpu() const
{
    BT_ASSERT(bestLatencySeconds > 0.0);
    return cpuBaselineSeconds / bestLatencySeconds;
}

double
BetterTogetherReport::speedupOverGpu() const
{
    BT_ASSERT(bestLatencySeconds > 0.0);
    return gpuBaselineSeconds / bestLatencySeconds;
}

BetterTogether::BetterTogether(const platform::SocDescription& soc,
                               BetterTogetherConfig cfg)
    : model_(soc), config(cfg)
{
}

double
BetterTogether::measureHomogeneous(const Application& app, int pu) const
{
    const SimExecutor executor(model_, config.executor);
    const auto schedule = Schedule::homogeneous(app.numStages(), pu);
    return executor.measure(app, schedule).taskIntervalSeconds;
}

BetterTogetherReport
BetterTogether::run(const Application& app) const
{
    const auto& soc = model_.soc();
    BetterTogetherReport report;

    // 1) Interference-aware profiling.
    const Profiler profiler(model_, config.profiler);
    report.profile = profiler.profile(app);

    // 2) Schedule generation from the interference table.
    Optimizer optimizer(soc, report.profile.interference,
                        config.optimizer);
    report.candidates = optimizer.optimize();
    BT_ASSERT(!report.candidates.empty(), "optimizer found no schedule");

    // 3) Autotuning: run the candidates, take the measured best.
    const SimExecutor executor(model_, config.executor);
    if (config.autotune) {
        const AutoTuner tuner(executor, 10.0, config.tunerThreads);
        report.tuning = tuner.tune(app, report.candidates);
        report.bestSchedule = report.tuning.best().candidate.schedule;
        report.bestLatencySeconds = report.tuning.best().measuredLatency;
    } else {
        report.bestSchedule = report.candidates.front().schedule;
        report.bestLatencySeconds
            = executor.measure(app, report.bestSchedule)
                  .taskIntervalSeconds;
    }

    // Deployment run of the winner: one more execution that carries
    // the full unified result, including the structured trace timeline.
    report.deployedRun = executor.execute(app, report.bestSchedule);

    // Baselines: the paper compares against big-cores-only (the best
    // CPU configuration in its experiments) and GPU-only DOALL runs.
    report.cpuBaselinePu = soc.bigCpuIndex();
    report.gpuBaselinePu = soc.gpuIndex();
    BT_ASSERT(report.cpuBaselinePu >= 0, "device has no CPU class");
    BT_ASSERT(report.gpuBaselinePu >= 0, "device has no GPU class");
    report.cpuBaselineSeconds
        = measureHomogeneous(app, report.cpuBaselinePu);
    report.gpuBaselineSeconds
        = measureHomogeneous(app, report.gpuBaselinePu);
    return report;
}

} // namespace bt::core
