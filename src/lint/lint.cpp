#include "lint/lint.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "platform/contention.hpp"

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

/** The PU classes @p spec admits on @p num_pus classes, in index
 *  order; out-of-range entries are dropped (lintPlannerSpec reports
 *  them separately). Empty allowedPus = every class. */
std::vector<int>
effectiveAllowed(const std::vector<int>& allowed_pus, int num_pus)
{
    std::vector<int> effective;
    if (allowed_pus.empty()) {
        for (int p = 0; p < num_pus; ++p)
            effective.push_back(p);
        return effective;
    }
    for (int p = 0; p < num_pus; ++p)
        if (std::find(allowed_pus.begin(), allowed_pus.end(), p)
            != allowed_pus.end())
            effective.push_back(p);
    return effective;
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

    if (run.numTasks < 1)
        r.diagnostics.push_back(
            diag(DiagnosticKind::SpecRange, Severity::Error, "run",
                 msg("numTasks must be >= 1, got ", run.numTasks)));
    if (run.warmupTasks < 0)
        r.diagnostics.push_back(
            diag(DiagnosticKind::SpecRange, Severity::Error, "run",
                 msg("warmupTasks must be >= 0, got ",
                     run.warmupTasks)));
    else if (run.numTasks >= 1 && run.warmupTasks >= run.numTasks)
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
    if (run.queueCapacity <= 0)
        r.diagnostics.push_back(diag(
            DiagnosticKind::QueueUndersized, Severity::Error, "run",
            msg("queueCapacity must be positive, got ",
                run.queueCapacity,
                "; the host backend refuses a zero-capacity handoff "
                "queue")));
    else if (run.numBuffers > 0 && run.queueCapacity < run.numBuffers)
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

    // Fault-plan consistency (same ranges FaultPlan::validate panics
    // on, reported as diagnostics instead of aborting).
    const auto fault = [&r](std::string m) {
        r.diagnostics.push_back(diag(DiagnosticKind::FaultRange,
                                     Severity::Error, "faults",
                                     std::move(m)));
    };
    for (const auto& w : plan.slowdowns) {
        if (w.pu < 0 || w.pu >= num_pus)
            fault(msg("slowdown window on unknown PU ", w.pu));
        if (w.endSeconds <= w.startSeconds)
            fault(msg("slowdown window [", w.startSeconds, ", ",
                      w.endSeconds, "] has no positive length"));
        if (w.clockFactor <= 0.0 || w.clockFactor > 1.0)
            fault(msg("slowdown clockFactor must be in (0, 1], got ",
                      w.clockFactor));
    }
    for (std::size_t i = 0; i < plan.slowdowns.size(); ++i)
        for (std::size_t j = i + 1; j < plan.slowdowns.size(); ++j) {
            const auto& a = plan.slowdowns[i];
            const auto& b = plan.slowdowns[j];
            if (a.pu == b.pu && a.startSeconds < b.endSeconds
                && b.startSeconds < a.endSeconds) {
                Diagnostic d = diag(
                    DiagnosticKind::OverlappingSlowdowns,
                    Severity::Warn, "faults",
                    msg("slowdown windows ", i, " and ", j,
                        " overlap on PU ", a.pu,
                        "; their clock factors compound "
                        "multiplicatively - merge them if one "
                        "throttling episode was meant"));
                d.pu = a.pu;
                r.diagnostics.push_back(std::move(d));
            }
        }
    for (const auto& t : plan.transients) {
        if (t.pu < -1 || t.pu >= num_pus)
            fault(msg("transient rule on unknown PU ", t.pu));
        if (t.stage < -1 || (num_stages > 0 && t.stage >= num_stages))
            fault(msg("transient rule on unknown stage ", t.stage));
        if (t.probability < 0.0 || t.probability > 1.0)
            fault(msg("transient probability out of [0, 1]: ",
                      t.probability));
    }
    for (const auto& s : plan.stragglers) {
        if (s.stage < -1 || (num_stages > 0 && s.stage >= num_stages))
            fault(msg("straggler rule on unknown stage ", s.stage));
        if (s.probability < 0.0 || s.probability > 1.0)
            fault(msg("straggler probability out of [0, 1]: ",
                      s.probability));
        if (s.factor < 1.0)
            fault(msg("straggler factor must be >= 1, got ",
                      s.factor));
    }
    for (const auto& d : plan.dropouts) {
        if (d.pu < 0 || d.pu >= num_pus)
            fault(msg("dropout of unknown PU ", d.pu));
        if (d.atSeconds < 0.0)
            fault(msg("dropout in the past (at ", d.atSeconds, "s)"));
    }

    // Dropout starvation: every PU class the lease admits dies.
    if (!plan.dropouts.empty() && num_pus > 0) {
        const std::vector<int> capable
            = effectiveAllowed(allowed_pus, num_pus);
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
                    "); no failover or degradation target survives")));
    }

    const runtime::RecoveryPolicy& rec = run.recovery;
    if (rec.maxRetries < 0)
        r.diagnostics.push_back(
            diag(DiagnosticKind::SpecRange, Severity::Error, "run",
                 msg("recovery.maxRetries must be >= 0, got ",
                     rec.maxRetries)));
    if (rec.timeoutFactor > 0.0 && rec.timeoutFactor <= 1.0)
        r.diagnostics.push_back(diag(
            DiagnosticKind::WatchdogTooTight, Severity::Warn, "run",
            msg("recovery.timeoutFactor ", rec.timeoutFactor,
                " <= 1 times out attempts running at profiled speed; "
                "every clean execution is aborted and retried")));
    if (rec.maxRetries == 0 && !rec.failover)
        r.diagnostics.push_back(diag(
            DiagnosticKind::RetryFutile, Severity::Warn, "run",
            "recovery.maxRetries is 0 with failover disabled; any "
            "fault or timeout is immediately unrecoverable"));
    return r;
}

Report
lintPlannerSpec(const core::PlannerSpec& spec, int num_stages,
                const platform::SocDescription& soc)
{
    Report r;
    r.stats.passes = 1;
    const int num_pus = soc.numPus();

    if (spec.numCandidates < 1)
        r.diagnostics.push_back(
            diag(DiagnosticKind::SpecRange, Severity::Error, "spec",
                 msg("numCandidates must be >= 1, got ",
                     spec.numCandidates)));
    if (spec.latencySlack < 0.0)
        r.diagnostics.push_back(
            diag(DiagnosticKind::SpecRange, Severity::Error, "spec",
                 msg("latencySlack must be >= 0, got ",
                     spec.latencySlack)));
    if (spec.gapnessSlack < 0.0)
        r.diagnostics.push_back(
            diag(DiagnosticKind::SpecRange, Severity::Error, "spec",
                 msg("gapnessSlack must be >= 0, got ",
                     spec.gapnessSlack)));
    if (spec.maxPerTier < 0)
        r.diagnostics.push_back(
            diag(DiagnosticKind::SpecRange, Severity::Error, "spec",
                 msg("maxPerTier must be >= 0, got ",
                     spec.maxPerTier)));
    if (spec.objective == core::PlannerSpec::Objective::EnergyKDelay
        && spec.energyExponent < 0.0)
        r.diagnostics.push_back(
            diag(DiagnosticKind::SpecRange, Severity::Error, "spec",
                 msg("energyExponent must be >= 0, got ",
                     spec.energyExponent)));
    if (spec.contention.ambientGbps < 0.0)
        r.diagnostics.push_back(
            diag(DiagnosticKind::SpecRange, Severity::Error, "spec",
                 msg("contention.ambientGbps must be >= 0, got ",
                     spec.contention.ambientGbps)));
    if (spec.contention.budgetGbps < 0.0)
        r.diagnostics.push_back(
            diag(DiagnosticKind::SpecRange, Severity::Error, "spec",
                 msg("contention.budgetGbps must be >= 0, got ",
                     spec.contention.budgetGbps)));

    for (const int p : spec.allowedPus)
        if (p < 0 || p >= num_pus) {
            Diagnostic d = diag(
                DiagnosticKind::SpecRange, Severity::Error, "spec",
                msg("allowedPus names unknown PU ", p, " (SoC has ",
                    num_pus, " classes)"));
            d.pu = p;
            r.diagnostics.push_back(std::move(d));
        }
    const std::vector<int> effective
        = effectiveAllowed(spec.allowedPus, num_pus);
    if (effective.empty())
        r.diagnostics.push_back(diag(
            DiagnosticKind::LeaseUncovered, Severity::Error, "spec",
            "the lease (allowedPus) admits no PU class of this SoC; "
            "no schedule can be planned inside it"));

    if (spec.exactnessPreserving() && spec.exactSpaceLimit > 0
        && num_stages > 0 && !effective.empty()) {
        const std::uint64_t space = core::scheduleSpaceSize(
            num_stages, static_cast<int>(effective.size()));
        if (space > spec.exactSpaceLimit)
            r.diagnostics.push_back(diag(
                DiagnosticKind::ExactSpaceExceeded, Severity::Error,
                "spec",
                msg("schedule space of ", space,
                    " schedules exceeds exactSpaceLimit ",
                    spec.exactSpaceLimit,
                    "; the exact engine refuses it - switch to "
                    "PlannerEngine::Annealed or raise the limit")));
    }
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
        = effectiveAllowed(spec.allowedPus, soc.numPus());
    if (allowed.empty() || app.numStages() == 0)
        return r;

    // The frugalest schedule is the single chunk on the allowed PU
    // with the smallest worst-stage demand - the same lower bound the
    // optimizer's C6 pre-check uses (in the same milli-GB/s integer
    // quantization), computed from the analytic demand curves alone.
    const platform::ContentionModel model(soc);
    std::int64_t min_demand = std::numeric_limits<std::int64_t>::max();
    int frugalest = -1;
    for (const int p : allowed) {
        std::int64_t d = 0;
        for (int s = 0; s < app.numStages(); ++s)
            d = std::max(d, platform::ContentionModel::milliGbps(
                                model.demandGbps(app.stage(s).work(),
                                                 soc.pu(p))));
        if (d < min_demand) {
            min_demand = d;
            frugalest = p;
        }
    }
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
    r.merge(lintPlannerSpec(spec, app.numStages(), soc));
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
