#include "lint/fixtures.hpp"

#include <utility>

#include "core/application.hpp"
#include "core/schedule.hpp"
#include "lint/lint.hpp"
#include "platform/soc.hpp"

namespace bt::lint {

namespace {

using core::Application;
using core::BufferAccess;
using core::BufferDecl;
using core::KernelCtx;
using core::PlannerSpec;
using core::Schedule;
using core::Stage;
using core::StageIo;
using platform::Pattern;
using platform::PuKind;
using platform::PuModel;
using platform::SocDescription;
using platform::WorkProfile;
using runtime::RunConfig;

/** A tiny two-class SoC (one CPU, one GPU); enough for every pass. */
SocDescription
fixtureSoc()
{
    SocDescription soc;
    soc.name = "lint-fixture";
    soc.vendor = "none";
    soc.gpuApi = "none";
    PuModel cpu;
    cpu.label = "cpu";
    cpu.hardware = "fixture CPU";
    cpu.kind = PuKind::Cpu;
    cpu.cores = 4;
    cpu.freqGhz = 2.0;
    cpu.opsPerCycle = 8.0;
    cpu.memBwGbps = 10.0;
    PuModel gpu = cpu;
    gpu.label = "gpu";
    gpu.hardware = "fixture GPU";
    gpu.kind = PuKind::Gpu;
    gpu.cores = 8;
    gpu.memBwGbps = 20.0;
    soc.pus = {cpu, gpu};
    soc.mem.dramBwGbps = 25.0;
    return soc;
}

/** A no-op stage with the given name, work profile and declared IO. */
Stage
ioStage(const std::string& name, const WorkProfile& work, StageIo io)
{
    Stage s(name, work, [](KernelCtx&) {}, nullptr);
    s.setIo(std::move(io));
    return s;
}

/** Memory-light default work profile. */
WorkProfile
lightWork()
{
    return {1e6, 1e4, 0.9, Pattern::Dense};
}

/** A well-formed two-stage app the defect variants perturb. */
Application
baseApp(const std::string& name)
{
    Application app(name, "fixture", "two declared stages");
    app.declareBuffer({"in", 4096, /*input=*/true});
    app.declareBuffer({"mid", 4096});
    app.declareBuffer({"out", 4096, false, /*output=*/true});
    app.addStage(ioStage("produce", lightWork(),
                         {{{"in", 4096}}, {{"mid", 4096}}}));
    app.addStage(ioStage("consume", lightWork(),
                         {{{"mid", 4096}}, {{"out", 4096}}}));
    return app;
}

FixtureResult
fold(std::string name, DiagnosticKind expected, Report report)
{
    FixtureResult fr;
    fr.name = std::move(name);
    fr.expected = expected;
    fr.totalFindings = report.diagnostics.size();
    for (const auto& d : report.diagnostics)
        fr.flagged = fr.flagged || d.kind == expected;
    fr.report = std::move(report);
    return fr;
}

} // namespace

std::vector<FixtureResult>
runSeededDefects()
{
    const SocDescription soc = fixtureSoc();
    std::vector<FixtureResult> results;

    // --- Pass 1: graph/buffer analysis ---------------------------------
    {
        // "consume" reads 'mid' but nothing ever writes it.
        Application app("use_before_def", "fixture", "");
        app.declareBuffer({"in", 4096, true});
        app.declareBuffer({"mid", 4096});
        app.declareBuffer({"out", 4096, false, true});
        app.addStage(ioStage("produce", lightWork(),
                             {{{"in", 4096}}, {{"out", 4096}}}));
        app.addStage(ioStage("consume", lightWork(),
                             {{{"mid", 4096}}, {{"out", 4096}}}));
        results.push_back(fold("use_before_def",
                               DiagnosticKind::UseBeforeDef,
                               lintApplication(app)));
    }
    {
        // 'mid' is written but no stage consumes it and it is neither
        // an output nor scratch.
        Application app("dead_output", "fixture", "");
        app.declareBuffer({"in", 4096, true});
        app.declareBuffer({"mid", 4096});
        app.declareBuffer({"out", 4096, false, true});
        app.addStage(ioStage("produce", lightWork(),
                             {{{"in", 4096}}, {{"mid", 4096}}}));
        app.addStage(ioStage("consume", lightWork(),
                             {{{"in", 4096}}, {{"out", 4096}}}));
        results.push_back(fold("dead_output",
                               DiagnosticKind::DeadOutput,
                               lintApplication(app)));
    }
    {
        // Producer writes 4096 bytes of 'mid'; consumer reads 8192.
        Application bad("size_mismatch", "fixture", "");
        bad.declareBuffer({"in", 4096, true});
        bad.declareBuffer({"mid", 4096});
        bad.declareBuffer({"out", 4096, false, true});
        bad.addStage(ioStage("produce", lightWork(),
                             {{{"in", 4096}}, {{"mid", 4096}}}));
        bad.addStage(ioStage("consume", lightWork(),
                             {{{"mid", 8192}}, {{"out", 4096}}}));
        results.push_back(fold("size_mismatch",
                               DiagnosticKind::SizeMismatch,
                               lintApplication(bad)));
    }
    {
        // A cross-task shared table written by one stage and read by
        // another: concurrently-live stages alias one allocation.
        Application app("alias_hazard", "fixture", "");
        app.declareBuffer({"in", 4096, true});
        app.declareBuffer({"table", 4096, false, false, false,
                           /*shared=*/true});
        app.declareBuffer({"out", 4096, false, true});
        app.addStage(ioStage("update", lightWork(),
                             {{{"in", 4096}}, {{"table", 4096}}}));
        app.addStage(ioStage("lookup", lightWork(),
                             {{{"table", 4096}}, {{"out", 4096}}}));
        results.push_back(fold("alias_hazard",
                               DiagnosticKind::AliasHazard,
                               lintApplication(app)));
    }
    {
        // Stage IO names a buffer with no declaration.
        Application app = baseApp("unknown_buffer");
        app.addStage(ioStage("extra", lightWork(),
                             {{{"ghost", 4096}}, {}}));
        results.push_back(fold("unknown_buffer",
                               DiagnosticKind::UnknownBuffer,
                               lintApplication(app)));
    }

    // --- Pass 2: schedule validity -------------------------------------
    {
        // Two-stage app, schedule covering only stage 0.
        const Schedule s(std::vector<core::Chunk>{{0, 0, 0}});
        results.push_back(fold("schedule_coverage",
                               DiagnosticKind::ScheduleCoverage,
                               lintSchedule(s, 2, soc)));
    }
    {
        const Schedule s(std::vector<core::Chunk>{{0, 1, 7}});
        results.push_back(fold("unknown_pu", DiagnosticKind::UnknownPu,
                               lintSchedule(s, 2, soc)));
    }
    {
        PlannerSpec spec;
        spec.allowedPus = {0};
        const Schedule s(
            std::vector<core::Chunk>{{0, 0, 0}, {1, 1, 1}});
        results.push_back(fold("disallowed_pu",
                               DiagnosticKind::DisallowedPu,
                               lintSchedule(s, 2, soc, spec)));
    }

    // --- Passes 3+4: handoff + fault plan ------------------------------
    {
        RunConfig run;
        run.queueCapacity = 0;
        results.push_back(fold("queue_undersized",
                               DiagnosticKind::QueueUndersized,
                               lintRunConfig(run, 2, soc.numPus())));
    }
    {
        RunConfig run;
        run.numBuffers = 1; // two chunks possible, one task in flight
        results.push_back(fold("pipeline_underfilled",
                               DiagnosticKind::PipelineUnderfilled,
                               lintRunConfig(run, 2, soc.numPus())));
    }
    {
        RunConfig run;
        run.numTasks = 30;
        run.warmupTasks = 30;
        results.push_back(fold("warmup_exceeds_tasks",
                               DiagnosticKind::WarmupExceedsTasks,
                               lintRunConfig(run, 2, soc.numPus())));
    }
    {
        PlannerSpec spec;
        spec.numCandidates = 0;
        results.push_back(fold("spec_range", DiagnosticKind::SpecRange,
                               lintPlannerSpec(spec, soc)));
    }
    {
        RunConfig run;
        run.faults.slowdowns.push_back({0, 0.0, 1.0, 1.5});
        results.push_back(fold("fault_range",
                               DiagnosticKind::FaultRange,
                               lintRunConfig(run, 2, soc.numPus())));
    }
    {
        RunConfig run;
        run.faults.dropouts.push_back({0, 0.1});
        run.faults.dropouts.push_back({1, 0.2});
        results.push_back(fold("dropout_starvation",
                               DiagnosticKind::DropoutStarvation,
                               lintRunConfig(run, 2, soc.numPus())));
    }
    {
        RunConfig run;
        run.recovery.timeoutFactor = 0.5;
        results.push_back(fold("watchdog_too_tight",
                               DiagnosticKind::WatchdogTooTight,
                               lintRunConfig(run, 2, soc.numPus())));
    }
    {
        RunConfig run;
        run.faults.slowdowns.push_back({1, 0.0, 1.0, 0.5});
        run.faults.slowdowns.push_back({1, 0.5, 1.5, 0.5});
        results.push_back(fold("overlapping_slowdowns",
                               DiagnosticKind::OverlappingSlowdowns,
                               lintRunConfig(run, 2, soc.numPus())));
    }

    // --- Pass 5: contention/lease feasibility --------------------------
    {
        // A memory-hungry stage against a budget no PU can stay under.
        Application app("bandwidth_over_budget", "fixture", "");
        app.declareBuffer({"in", 1 << 20, true});
        app.declareBuffer({"out", 1 << 20, false, true});
        app.addStage(ioStage("stream",
                             {1e6, 1e9, 0.95, Pattern::Dense},
                             {{{"in", 1 << 20}}, {{"out", 1 << 20}}}));
        PlannerSpec spec;
        spec.contention.budgetGbps = 0.001;
        results.push_back(fold("bandwidth_over_budget",
                               DiagnosticKind::BandwidthOverBudget,
                               lintContention(app, soc, spec)));
    }
    {
        // The lease names only PU classes this SoC does not have.
        PlannerSpec spec;
        spec.allowedPus = {5, 6};
        results.push_back(fold("lease_uncovered",
                               DiagnosticKind::LeaseUncovered,
                               lintPlannerSpec(spec, soc)));
    }
    {
        // realTime tenant on a service with unbounded co-runners.
        const Application app = baseApp("real_time_shared");
        TenantLintInput tenant;
        tenant.realTime = true;
        tenant.contentionAware = false;
        tenant.leaseGroups = 2;
        results.push_back(fold("real_time_shared",
                               DiagnosticKind::RealTimeShared,
                               lintTenant(soc, app, {}, {}, tenant)));
    }

    return results;
}

} // namespace bt::lint
