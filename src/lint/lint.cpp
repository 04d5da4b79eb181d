#include "lint/lint.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <vector>

#include "platform/contention.hpp"
#include "platform/perf_model.hpp"

namespace bt::lint {

namespace {

Diagnostic
diag(DiagnosticKind kind, Severity severity, std::string subject,
     std::string message)
{
    Diagnostic d;
    d.kind = kind;
    d.severity = severity;
    d.subject = std::move(subject);
    d.message = std::move(message);
    return d;
}

template <typename... Args>
std::string
msg(Args&&... args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace

Report
lintApplication(const core::Application& app)
{
    Report r;
    r.stats.subjects = 1;
    r.stats.passes = 1;

    if (!app.hasIoDeclarations()) {
        Diagnostic d = diag(
            DiagnosticKind::NoIoDeclarations, Severity::Info, app.name(),
            "no declared buffer IO (Stage::setIo / "
            "Application::declareBuffer); graph analysis skipped");
        r.diagnostics.push_back(std::move(d));
        return r;
    }

    const auto& decls = app.buffers();
    r.stats.buffers = static_cast<int>(decls.size());
    r.stats.stages = app.numStages();

    const auto declIndex = [&decls](const std::string& name) {
        for (std::size_t i = 0; i < decls.size(); ++i)
            if (decls[i].name == name)
                return static_cast<int>(i);
        return -1;
    };

    // Per-declared-buffer usage, accumulated in declaration order.
    struct Usage
    {
        bool defined = false; ///< input/shared, or written already
        int firstWriter = -1;
        bool read = false;
        std::vector<int> touchers;         ///< stages reading/writing
        std::vector<std::int64_t> sizes;   ///< distinct declared bytes
    };
    std::vector<Usage> usage(decls.size());
    for (std::size_t i = 0; i < decls.size(); ++i) {
        usage[i].defined = decls[i].input || decls[i].shared;
        if (decls[i].bytes >= 0)
            usage[i].sizes.push_back(decls[i].bytes);
    }

    const auto touch = [](Usage& u, int stage) {
        if (u.touchers.empty() || u.touchers.back() != stage)
            u.touchers.push_back(stage);
    };
    const auto size = [](Usage& u, std::int64_t bytes) {
        if (bytes >= 0
            && std::find(u.sizes.begin(), u.sizes.end(), bytes)
                == u.sizes.end())
            u.sizes.push_back(bytes);
    };

    for (int s = 0; s < app.numStages(); ++s) {
        const core::Stage& stage = app.stage(s);
        // Writes first: a stage's own writes define its later reads
        // (scratch fill-then-use within one kernel).
        for (const auto& w : stage.io().writes) {
            const int b = declIndex(w.name);
            if (b < 0) {
                Diagnostic d = diag(
                    DiagnosticKind::UnknownBuffer, Severity::Error,
                    app.name(),
                    msg("stage writes undeclared buffer '", w.name,
                        "'; add an Application::declareBuffer entry"));
                d.stage = s;
                d.buffer = w.name;
                r.diagnostics.push_back(std::move(d));
                continue;
            }
            Usage& u = usage[static_cast<std::size_t>(b)];
            if (u.firstWriter < 0)
                u.firstWriter = s;
            u.defined = true;
            touch(u, s);
            size(u, w.bytes);
        }
        for (const auto& rd : stage.io().reads) {
            const int b = declIndex(rd.name);
            if (b < 0) {
                Diagnostic d = diag(
                    DiagnosticKind::UnknownBuffer, Severity::Error,
                    app.name(),
                    msg("stage reads undeclared buffer '", rd.name,
                        "'; add an Application::declareBuffer entry"));
                d.stage = s;
                d.buffer = rd.name;
                r.diagnostics.push_back(std::move(d));
                continue;
            }
            Usage& u = usage[static_cast<std::size_t>(b)];
            if (!u.defined) {
                Diagnostic d = diag(
                    DiagnosticKind::UseBeforeDef, Severity::Error,
                    app.name(),
                    msg("stage reads buffer '", rd.name,
                        "' before any stage writes it and it is not "
                        "a task input; mark the declaration input "
                        "or fix the stage order"));
                d.stage = s;
                d.buffer = rd.name;
                r.diagnostics.push_back(std::move(d));
            }
            u.read = true;
            touch(u, s);
            size(u, rd.bytes);
        }
    }

    for (std::size_t i = 0; i < decls.size(); ++i) {
        const core::BufferDecl& d = decls[i];
        const Usage& u = usage[i];
        if (u.firstWriter >= 0 && !u.read && !d.output && !d.scratch) {
            Diagnostic g = diag(
                DiagnosticKind::DeadOutput, Severity::Warn, app.name(),
                msg("buffer '", d.name,
                    "' is written but never consumed; mark the "
                    "declaration output/scratch or drop the write"));
            g.stage = u.firstWriter;
            g.buffer = d.name;
            r.diagnostics.push_back(std::move(g));
        }
        if (d.shared && u.firstWriter >= 0 && u.touchers.size() >= 2) {
            Diagnostic g = diag(
                DiagnosticKind::AliasHazard, Severity::Error,
                app.name(),
                msg("cross-task shared buffer '", d.name,
                    "' is written by stage ", u.firstWriter,
                    " while other stages touch it; concurrently-live "
                    "stages of in-flight tasks alias one allocation - "
                    "make it per-task or read-only"));
            g.stage = u.firstWriter;
            g.buffer = d.name;
            r.diagnostics.push_back(std::move(g));
        }
        if (u.sizes.size() >= 2) {
            std::ostringstream sizes;
            for (std::size_t k = 0; k < u.sizes.size(); ++k)
                sizes << (k ? ", " : "") << u.sizes[k];
            Diagnostic g = diag(
                DiagnosticKind::SizeMismatch, Severity::Error,
                app.name(),
                msg("buffer '", d.name,
                    "' has conflicting declared sizes {", sizes.str(),
                    "} bytes across its declaration and stage "
                    "accesses"));
            g.buffer = d.name;
            r.diagnostics.push_back(std::move(g));
        }
    }
    return r;
}

Report
lintSchedule(const core::Schedule& schedule, int num_stages,
             const platform::SocDescription& soc,
             const core::PlannerSpec& spec)
{
    Report r;
    r.stats.passes = 1;
    r.stats.chunks = schedule.numChunks();
    const int num_pus = soc.numPus();
    const auto& chunks = schedule.chunks();

    if (chunks.empty()) {
        if (num_stages > 0)
            r.diagnostics.push_back(
                diag(DiagnosticKind::ScheduleCoverage, Severity::Error,
                     "schedule",
                     msg("empty schedule for ", num_stages,
                         " stages")));
        return r;
    }

    std::vector<int> chunksOfPu(
        static_cast<std::size_t>(std::max(num_pus, 0)), 0);
    int expect = 0;
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        const core::Chunk& c = chunks[i];
        const int ci = static_cast<int>(i);
        if (c.firstStage > c.lastStage) {
            Diagnostic d = diag(
                DiagnosticKind::ScheduleCoverage, Severity::Error,
                "schedule",
                msg("chunk stage range [", c.firstStage, ", ",
                    c.lastStage, "] is inverted"));
            d.chunk = ci;
            r.diagnostics.push_back(std::move(d));
        } else if (c.firstStage != expect) {
            Diagnostic d = diag(
                DiagnosticKind::ScheduleCoverage, Severity::Error,
                "schedule",
                msg("chunk starts at stage ", c.firstStage,
                    c.firstStage > expect ? " leaving a gap from "
                                          : " overlapping from ",
                    expect));
            d.chunk = ci;
            r.diagnostics.push_back(std::move(d));
        }
        expect = std::max(expect, c.lastStage + 1);

        if (c.pu < 0 || c.pu >= num_pus) {
            Diagnostic d = diag(
                DiagnosticKind::UnknownPu, Severity::Error, "schedule",
                msg("chunk assigned to PU ", c.pu, " but the SoC has ",
                    num_pus, " classes"));
            d.chunk = ci;
            d.pu = c.pu;
            r.diagnostics.push_back(std::move(d));
        } else {
            if (++chunksOfPu[static_cast<std::size_t>(c.pu)] == 2) {
                Diagnostic d = diag(
                    DiagnosticKind::ScheduleCoverage, Severity::Error,
                    "schedule",
                    msg("PU ", c.pu,
                        " appears in two chunks - the contiguity "
                        "constraint (C2) allows one run per class"));
                d.chunk = ci;
                d.pu = c.pu;
                r.diagnostics.push_back(std::move(d));
            }
            if (!spec.allowedPus.empty()
                && std::find(spec.allowedPus.begin(),
                             spec.allowedPus.end(), c.pu)
                    == spec.allowedPus.end()) {
                Diagnostic d = diag(
                    DiagnosticKind::DisallowedPu, Severity::Error,
                    "schedule",
                    msg("chunk assigned to PU ", c.pu,
                        " outside the allowedPus lease"));
                d.chunk = ci;
                d.pu = c.pu;
                r.diagnostics.push_back(std::move(d));
            }
        }
    }
    if (expect != num_stages)
        r.diagnostics.push_back(
            diag(DiagnosticKind::ScheduleCoverage, Severity::Error,
                 "schedule",
                 msg("chunks cover stages [0, ", expect, ") but the "
                     "application has ", num_stages, " stages")));
    return r;
}

Report
lintRunConfig(const runtime::RunConfig& run, int num_stages,
              int num_pus, const std::vector<int>& allowed_pus)
{
    Report r;
    r.stats.passes = 1;
    const runtime::FaultPlan& plan = run.faults;
    r.stats.faultRules = static_cast<int>(
        plan.slowdowns.size() + plan.transients.size()
        + plan.stragglers.size() + plan.dropouts.size());

    // Field ranges are RunConfig's own rules; lint only picks the kind
    // each one reports under, from the field path its message opens
    // with. An overlap is the one problem the runtime accepts.
    for (auto& p : run.problems(num_stages, num_pus)) {
        const bool fault = p.message.starts_with("faults.");
        DiagnosticKind kind = fault ? DiagnosticKind::FaultRange
            : p.message.starts_with("queueCapacity")
            ? DiagnosticKind::QueueUndersized
            : DiagnosticKind::SpecRange;
        Severity severity = Severity::Error;
        if (p.kind == runtime::PlanParseErrorKind::Overlap) {
            kind = DiagnosticKind::OverlappingSlowdowns;
            severity = Severity::Warn;
        }
        r.diagnostics.push_back(diag(kind, severity,
                                     fault ? "faults" : "run",
                                     std::move(p.message)));
    }

    if (run.warmupTasks >= run.numTasks)
        r.diagnostics.push_back(diag(
            DiagnosticKind::WarmupExceedsTasks, Severity::Warn, "run",
            msg("warmupTasks ", run.warmupTasks, " >= numTasks ",
                run.numTasks,
                " leaves no steady-state completions; the task "
                "interval metric degenerates")));

    // Handoff/deadlock lint. The dispatch structure is one bounded
    // SPSC queue per chunk boundary plus a free pool of numBuffers
    // TaskObjects; with fewer buffers than chunks some dispatcher is
    // always starved, and a capacity below the buffer count could not
    // even hold the free pool at rest.
    const int max_chunks = std::max(1, std::min(num_stages, num_pus));
    if (run.numBuffers > 0 && run.queueCapacity < run.numBuffers)
        r.diagnostics.push_back(diag(
            DiagnosticKind::QueueUndersized, Severity::Warn, "run",
            msg("queueCapacity ", run.queueCapacity,
                " cannot hold the ", run.numBuffers,
                "-buffer free pool; the host backend silently raises "
                "it, but a strictly bounded deployment would wedge")));
    if (run.numBuffers > 0 && run.numBuffers <= max_chunks)
        r.diagnostics.push_back(diag(
            DiagnosticKind::PipelineUnderfilled, Severity::Warn, "run",
            msg("numBuffers ", run.numBuffers, " <= ", max_chunks,
                " possible chunks keeps at least one chunk idle; the "
                "paper's default is chunks + 1 (numBuffers = 0)")));

    // Dropout starvation: every PU class the lease admits dies.
    if (!plan.dropouts.empty() && num_pus > 0) {
        const std::vector<int> capable
            = core::admittedPus(allowed_pus, num_pus);
        bool survivor = false;
        for (const int p : capable) {
            bool dropped = false;
            for (const auto& d : plan.dropouts)
                dropped = dropped || d.pu == p;
            survivor = survivor || !dropped;
        }
        if (!capable.empty() && !survivor)
            r.diagnostics.push_back(diag(
                DiagnosticKind::DropoutStarvation, Severity::Error,
                "faults",
                msg("the fault plan drops every PU class the lease "
                    "admits (", capable.size(),
                    " of ", num_pus,
                    "); once the last one drops, every stage "
                    "execution is abandoned and the run is invalid")));
    }

    const runtime::RecoveryPolicy& rec = run.recovery;
    if (rec.timeoutFactor > 0.0 && rec.timeoutFactor <= 1.0)
        r.diagnostics.push_back(diag(
            DiagnosticKind::WatchdogTooTight, Severity::Warn, "run",
            msg("recovery.timeoutFactor ", rec.timeoutFactor,
                " <= 1 times out attempts running at profiled speed; "
                "every clean execution is aborted and retried")));
    return r;
}

Report
lintPlannerSpec(const core::PlannerSpec& spec,
                const platform::SocDescription& soc)
{
    Report r;
    r.stats.passes = 1;
    const int num_pus = soc.numPus();

    for (auto& p : spec.problems(num_pus))
        r.diagnostics.push_back(diag(DiagnosticKind::SpecRange,
                                     Severity::Error, "spec",
                                     std::move(p.message)));
    if (core::admittedPus(spec.allowedPus, num_pus).empty())
        r.diagnostics.push_back(diag(
            DiagnosticKind::LeaseUncovered, Severity::Error, "spec",
            "the lease (allowedPus) admits no PU class of this SoC; "
            "no schedule can be planned inside it"));
    return r;
}

Report
lintContention(const core::Application& app,
               const platform::SocDescription& soc,
               const core::PlannerSpec& spec)
{
    Report r;
    r.stats.passes = 1;
    if (spec.contention.budgetGbps <= 0.0)
        return r;

    const std::vector<int> allowed
        = core::admittedPus(spec.allowedPus, soc.numPus());
    if (allowed.empty() || app.numStages() == 0)
        return r;

    // The C6 demand floor the optimizer's pre-check applies, read off
    // the same analytic contention snapshot the profiler attaches
    // (noise-free, so no profiling run is needed).
    const platform::PerfModel model(soc);
    std::vector<platform::WorkProfile> works;
    works.reserve(static_cast<std::size_t>(app.numStages()));
    for (const auto& s : app.stages())
        works.push_back(s.work());
    const platform::ContentionProfile profile
        = model.contention().profileStages(model, works);
    const int frugalest = profile.frugalestPu(allowed);
    const std::int64_t min_demand
        = profile.worstStageDemandMilli(frugalest);
    const std::int64_t budget = platform::ContentionModel::milliGbps(
        spec.contention.budgetGbps);
    if (budget < min_demand) {
        Diagnostic d = diag(
            DiagnosticKind::BandwidthOverBudget, Severity::Error,
            app.name(),
            msg("C6 budget of ", spec.contention.budgetGbps,
                " GB/s is below the aggregate-demand lower bound of ",
                static_cast<double>(min_demand) / 1000.0,
                " GB/s (frugalest single-chunk schedule); the "
                "optimizer would relax C6 and break the budget "
                "contract - raise the budget or shrink the tenant's "
                "memory traffic"));
        d.pu = frugalest;
        r.diagnostics.push_back(std::move(d));
    }
    return r;
}

Report
lintPreflight(const platform::SocDescription& soc,
              const core::Application& app,
              const core::PlannerSpec& spec,
              const runtime::RunConfig& run)
{
    Report r = lintApplication(app);
    r.merge(lintPlannerSpec(spec, soc));
    r.merge(lintRunConfig(run, app.numStages(), soc.numPus(),
                          spec.allowedPus));
    r.merge(lintContention(app, soc, spec));
    return r;
}

Report
lintTenant(const platform::SocDescription& soc,
           const core::Application& app,
           const core::PlannerSpec& spec,
           const runtime::RunConfig& run,
           const TenantLintInput& tenant)
{
    Report r = lintPreflight(soc, app, spec, run);
    if (tenant.realTime && tenant.leaseGroups > 1
        && !tenant.contentionAware) {
        Diagnostic d = diag(
            DiagnosticKind::RealTimeShared, Severity::Warn, app.name(),
            "realTime tenant on a service without contentionAware "
            "leases: co-runners' bandwidth is unbounded, so the "
            "real-time flag cannot protect this tenant's latency");
        r.diagnostics.push_back(std::move(d));
    }
    return r;
}

} // namespace bt::lint
