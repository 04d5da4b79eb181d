/**
 * @file
 * bt::lint tests: the seeded-defect negative control, cleanliness of
 * every shipped app on every device rig, Report::merge associativity
 * and JSON round-trip through the json reader, the 8-thread
 * concurrent-lint hammer proving the analyzer is read-only over shared
 * Applications, and the Framework/Service integration
 * (preflight panic with a stable kind prefix, tenant rejection at
 * admission), and the agreement table: every range rule is an error to
 * lint, a typed error to the fault-plan parser where JSON can express
 * it, and a refusal to the Optimizer or the virtual backend.
 */

#include <algorithm>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "apps/alexnet.hpp"
#include "apps/features.hpp"
#include "apps/octree_app.hpp"
#include "bt.hpp"
#include "common/json.hpp"
#include "lint/fixtures.hpp"
#include "lint/lint.hpp"
#include "platform/devices.hpp"
#include "runtime/virtual_backend.hpp"

namespace bt {
namespace {

using core::Application;
using core::KernelCtx;
using core::Stage;
using core::StageIo;
using platform::Pattern;
using platform::WorkProfile;

// ---------------------------------------------------------------------
// Helpers.

std::string
toJson(const lint::Report& report)
{
    std::ostringstream os;
    report.writeJson(os);
    return os.str();
}

Stage
ioStage(const std::string& name, StageIo io)
{
    Stage s(name, WorkProfile{1e6, 1e4, 0.9, Pattern::Dense},
            [](KernelCtx&) {}, nullptr);
    s.setIo(std::move(io));
    return s;
}

/** Two declared stages, fully consistent IO. */
Application
cleanApp()
{
    Application app("clean", "fixture", "");
    app.declareBuffer({"in", 4096, /*input=*/true});
    app.declareBuffer({"mid", 4096});
    app.declareBuffer({"out", 4096, false, /*output=*/true});
    app.addStage(ioStage("produce", {{"in"}, {"mid"}}));
    app.addStage(ioStage("consume", {{"mid"}, {"out"}}));
    return app;
}

/** Reads a buffer nothing defines: lints with a UseBeforeDef error. */
Application
brokenApp()
{
    Application app("broken", "fixture", "");
    app.declareBuffer({"in", 4096, /*input=*/true});
    app.declareBuffer({"mid", 4096});
    app.declareBuffer({"out", 4096, false, /*output=*/true});
    app.addStage(ioStage("produce", {{"in"}, {"out"}}));
    app.addStage(ioStage("consume", {{"mid"}, {"out"}}));
    return app;
}

// ---------------------------------------------------------------------
// Negative control: every seeded defect must be flagged with its
// expected kind, deterministically.

TEST(LintFixtures, EverySeededDefectIsFlaggedWithItsExpectedKind)
{
    const auto results = lint::runSeededDefects();
    EXPECT_GE(results.size(), 10u);
    for (const auto& r : results) {
        EXPECT_TRUE(r.flagged)
            << r.name << " did not produce "
            << lint::diagnosticKindName(r.expected);
        EXPECT_GE(r.totalFindings, 1u) << r.name;
    }
}

TEST(LintFixtures, FixtureReportsAreByteIdenticalAcrossRuns)
{
    const auto a = lint::runSeededDefects();
    const auto b = lint::runSeededDefects();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(toJson(a[i].report), toJson(b[i].report)) << a[i].name;
    }
}

// ---------------------------------------------------------------------
// Positive control: every shipped app lints clean on every device rig
// with the default spec and run config (what CI's lint sweep asserts
// through bt_explorer --lint --app all).

TEST(LintShippedApps, CleanOnEveryDeviceRig)
{
    const std::vector<platform::SocDescription> rigs
        = {platform::pixel7a(), platform::oneplus11(),
           platform::jetsonOrinNano(), platform::jetsonOrinNanoLp(),
           platform::manycoreRig()};
    const std::vector<core::Application> shipped = []() {
        std::vector<core::Application> apps;
        apps.push_back(apps::alexnetDense());
        apps.push_back(apps::alexnetSparse());
        apps.push_back(apps::octreeApp());
        apps.push_back(apps::featuresApp());
        return apps;
    }();

    for (const auto& soc : rigs) {
        for (const auto& app : shipped) {
            const auto report = lint::lintPreflight(soc, app, {}, {});
            EXPECT_TRUE(report.clean())
                << app.name() << " on " << soc.name << ":\n"
                << toJson(report);
            EXPECT_EQ(report.infos(), 0)
                << app.name() << " should declare full IO";
        }
    }
}

// The declarations are the one statement of a TaskObject's layout:
// makeTask allocates exactly the declared non-shared buffers, each at
// its declared size, and lint analyzes that same table.
TEST(LintShippedApps, MakeTaskAllocatesExactlyTheDeclaredBuffers)
{
    struct Shipped
    {
        core::Application app;
        int stages;
        int buffers;
    };
    const std::vector<Shipped> shipped
        = {{apps::alexnetDense(), 9, 10},
           {apps::alexnetSparse(), 9, 10},
           {apps::octreeApp(), 7, 21},
           {apps::featuresApp(), 7, 10}};
    for (const auto& [app, stages, buffers] : shipped) {
        const auto report = lint::lintApplication(app);
        EXPECT_TRUE(report.clean()) << app.name();
        EXPECT_EQ(report.stats.stages, stages) << app.name();
        EXPECT_EQ(report.stats.buffers, buffers) << app.name();

        // No shipped app declares a shared buffer, so every
        // declaration is allocated.
        const auto task = app.makeTask(0, 7);
        EXPECT_EQ(task->numBuffers(), app.buffers().size()) << app.name();
        for (const auto& decl : app.buffers()) {
            ASSERT_FALSE(decl.shared) << app.name() << " " << decl.name;
            ASSERT_TRUE(task->hasBuffer(decl.name))
                << app.name() << " " << decl.name;
            EXPECT_EQ(task->buffer(decl.name).sizeBytes(),
                      static_cast<std::size_t>(decl.bytes))
                << app.name() << " " << decl.name;
        }
    }
}

TEST(LintApplication, UndeclaredAppGetsOneInfoAndPasses)
{
    Application app("bare", "fixture", "");
    app.addStage(Stage("only",
                       WorkProfile{1e6, 1e4, 0.9, Pattern::Dense},
                       [](KernelCtx&) {}, nullptr));
    const auto report = lint::lintApplication(app);
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(report.infos(), 1);
    ASSERT_EQ(report.diagnostics.size(), 1u);
    EXPECT_EQ(report.diagnostics[0].kind,
              lint::DiagnosticKind::NoIoDeclarations);
}

// ---------------------------------------------------------------------
// Report mechanics: stable names, merge associativity, JSON round-trip.

TEST(LintReport, KindAndSeverityNamesAreStable)
{
    using lint::DiagnosticKind;
    EXPECT_EQ(lint::diagnosticKindName(DiagnosticKind::UseBeforeDef),
              "use_before_def");
    EXPECT_EQ(
        lint::diagnosticKindName(DiagnosticKind::BandwidthOverBudget),
        "bandwidth_over_budget");
    EXPECT_EQ(lint::severityName(lint::Severity::Error), "error");
    EXPECT_EQ(lint::severityName(lint::Severity::Warn), "warn");
    EXPECT_EQ(lint::severityName(lint::Severity::Info), "info");
}

TEST(LintReport, MergeIsAssociativeAndOrderPreserving)
{
    const auto fixtures = lint::runSeededDefects();
    ASSERT_GE(fixtures.size(), 3u);
    const lint::Report& a = fixtures[0].report;
    const lint::Report& b = fixtures[1].report;
    const lint::Report& c = fixtures[2].report;

    lint::Report left = a;
    left.merge(b);
    left.merge(c);

    lint::Report bc = b;
    bc.merge(c);
    lint::Report right = a;
    right.merge(std::move(bc));

    EXPECT_EQ(toJson(left), toJson(right));
    EXPECT_EQ(left.diagnostics.size(),
              a.diagnostics.size() + b.diagnostics.size()
                  + c.diagnostics.size());
    // Order-preserving: the first merged diagnostic is a's first.
    ASSERT_FALSE(a.diagnostics.empty());
    EXPECT_EQ(left.diagnostics[0].toString(),
              a.diagnostics[0].toString());
}

TEST(LintReport, JsonRoundTripsThroughParser)
{
    lint::Report merged;
    for (const auto& r : lint::runSeededDefects())
        merged.merge(r.report);

    const auto json = json::parse(toJson(merged)).value();
    EXPECT_EQ(json.at("clean").boolean, merged.clean());
    EXPECT_EQ(json.at("errors").number, merged.errors());
    EXPECT_EQ(json.at("warnings").number, merged.warnings());
    EXPECT_EQ(json.at("stats").at("passes").number, merged.stats.passes);
    const auto& diagnostics = json.at("diagnostics").items;
    ASSERT_EQ(diagnostics.size(), merged.diagnostics.size());
    for (std::size_t i = 0; i < diagnostics.size(); ++i) {
        const auto& d = merged.diagnostics[i];
        EXPECT_EQ(diagnostics[i].at("kind").text,
                  lint::diagnosticKindName(d.kind));
        EXPECT_EQ(diagnostics[i].at("severity").text,
                  lint::severityName(d.severity));
        EXPECT_EQ(diagnostics[i].at("message").text, d.message);
    }
}

TEST(LintReport, JsonEscapesControlBytesInNames)
{
    // Subjects are user-supplied app and buffer names; a control byte
    // in one must still serialize as valid JSON.
    lint::Diagnostic d;
    d.kind = lint::DiagnosticKind::UseBeforeDef;
    d.subject = "a\rb\x01";
    d.buffer = "tab\tend";
    d.message = "quote \" backslash \\ feed\f";
    lint::Report report;
    report.diagnostics.push_back(d);

    const std::string text = toJson(report);
    EXPECT_TRUE(std::none_of(text.begin(), text.end(), [](char c) {
        return static_cast<unsigned char>(c) < 0x20;
    })) << text;
    const auto json = json::parse(text).value();
    const auto& back = json.at("diagnostics").items.at(0);
    EXPECT_EQ(back.at("subject").text, d.subject);
    EXPECT_EQ(back.at("buffer").text, d.buffer);
    EXPECT_EQ(back.at("message").text, d.message);
}

// ---------------------------------------------------------------------
// Thread safety: lint is read-only over a shared Application; 8
// concurrent linters must produce byte-identical reports.

TEST(LintConcurrency, EightThreadHammerIsByteIdentical)
{
    const core::Application app = apps::octreeApp();
    const auto soc = platform::pixel7a();
    const std::string reference
        = toJson(lint::lintPreflight(soc, app, {}, {}));

    constexpr int kThreads = 8;
    constexpr int kIters = 16;
    std::vector<std::vector<std::string>> produced(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t]() {
            for (int i = 0; i < kIters; ++i)
                produced[static_cast<std::size_t>(t)].push_back(
                    toJson(lint::lintPreflight(soc, app, {}, {})));
        });
    }
    for (auto& th : threads)
        th.join();
    for (const auto& per_thread : produced) {
        ASSERT_EQ(per_thread.size(),
                  static_cast<std::size_t>(kIters));
        for (const auto& text : per_thread)
            EXPECT_EQ(text, reference);
    }
}

// ---------------------------------------------------------------------
// Framework preflight: errors panic with the stable kind prefix and
// the offending diagnostics; warnings ride along in the report.

TEST(LintFramework, PreflightErrorsPanicWithKindPrefix)
{
    const auto soc = platform::pixel7a();
    const Framework framework(soc);
    EXPECT_DEATH_IF_SUPPORTED((void)framework.run(brokenApp()),
                              "lint.preflight");
    EXPECT_DEATH_IF_SUPPORTED((void)framework.run(brokenApp()),
                              "use_before_def");
}

TEST(LintFramework, PreflightReportRidesAlongOnCleanRuns)
{
    // The framework's performance model refers to the framework's own
    // copy of the device, so the framework cannot be copied, and a
    // temporary device argument is safe.
    static_assert(!std::is_copy_constructible_v<Framework>);
    static_assert(!std::is_copy_assignable_v<Framework>);
    FrameworkConfig cfg;
    cfg.run.numTasks = 8;
    cfg.run.warmupTasks = 2;
    const Framework framework(platform::pixel7a(), cfg);
    const auto pre = framework.preflight(cleanApp());
    EXPECT_TRUE(pre.clean());

    const auto report = framework.run(cleanApp());
    EXPECT_TRUE(report.preflight.clean());
    EXPECT_GT(report.preflight.stats.passes, 0);
    EXPECT_GT(report.bestLatencySeconds, 0.0);

    // Candidate runs are untraced, but the deployment run keeps its
    // trace: one stage event per task and stage.
    const auto& deployed = report.deployedRun;
    ASSERT_FALSE(deployed.trace.empty());
    EXPECT_EQ(deployed.trace.stats().events,
              deployed.tasks * cleanApp().numStages());
}

// ---------------------------------------------------------------------
// Agreement: lint, the fault-plan parser and the runtime apply one set
// of range rules (PlannerSpec / RunConfig / FaultPlan::problems). One
// violating value per rule; lint must report it as an error of the
// expected kind, and the planner or backend must refuse it rather than
// run. A JSON form is given where the parser can judge the rule alone:
// upper bounds need the device or the app, which only lint and the
// runtime know.

TEST(LintAgreement, LintParserAndRuntimeApplyTheSameRangeRules)
{
    using runtime::PlanParseErrorKind;
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const Application app = cleanApp();
    const int pus = soc.numPus();
    const int stages = app.numStages();
    const auto table = core::Profiler(model).profile(app).interference;
    const auto schedule = core::Schedule::homogeneous(stages, 0);

    struct Rule
    {
        const char* name; ///< field, as a regex on the runtime's panic
        std::function<void(core::PlannerSpec&, runtime::RunConfig&)>
            set;
        lint::DiagnosticKind kind;
        const char* json = nullptr; ///< plan with only this violation
    };
    using K = lint::DiagnosticKind;
    const std::vector<Rule> spec_rules = {
        {"numCandidates", [](auto& s, auto&) { s.numCandidates = 0; },
         K::SpecRange},
        {"latencySlack", [](auto& s, auto&) { s.latencySlack = -1; },
         K::SpecRange},
        {"gapnessSlack", [](auto& s, auto&) { s.gapnessSlack = -1; },
         K::SpecRange},
        {"ambientGbps",
         [](auto& s, auto&) { s.contention.ambientGbps = -1; },
         K::SpecRange},
        {"budgetGbps",
         [](auto& s, auto&) { s.contention.budgetGbps = -1; },
         K::SpecRange},
        {"allowedPus", [pus](auto& s, auto&) { s.allowedPus = {pus}; },
         K::SpecRange},
        {"moveBudget", [](auto& s, auto&) { s.anneal.moveBudget = 0; },
         K::SpecRange},
    };
    const std::vector<Rule> run_rules = {
        {"numTasks", [](auto&, auto& r) { r.numTasks = 0; },
         K::SpecRange},
        {"warmupTasks", [](auto&, auto& r) { r.warmupTasks = -1; },
         K::SpecRange},
        {"queueCapacity", [](auto&, auto& r) { r.queueCapacity = 0; },
         K::QueueUndersized},
        {"maxRetries", [](auto&, auto& r) { r.recovery.maxRetries = -1; },
         K::SpecRange},
        {"slowdowns\\[0\\]\\.pu",
         [](auto&, auto& r) { r.faults.slowdowns = {{-1, 0, 1, 0.5}}; },
         K::FaultRange,
         R"({"slowdowns":[{"pu":-1,"start":0,"end":1}]})"},
        {"slowdowns\\[0\\]\\.start",
         [](auto&, auto& r) {
             r.faults.slowdowns = {{0, -0.5, 1, 0.5}};
         },
         K::FaultRange,
         R"({"slowdowns":[{"pu":0,"start":-0.5,"end":1}]})"},
        {"slowdowns\\[0\\]\\.end",
         [](auto&, auto& r) { r.faults.slowdowns = {{0, 1, 1, 0.5}}; },
         K::FaultRange,
         R"({"slowdowns":[{"pu":0,"start":1,"end":1}]})"},
        {"clockFactor",
         [](auto&, auto& r) { r.faults.slowdowns = {{0, 0, 1, 1.5}}; },
         K::FaultRange,
         R"({"slowdowns":[{"pu":0,"start":0,"end":1,"clockFactor":1.5}]})"},
        {"transients\\[0\\]\\.stage",
         [stages](auto&, auto& r) {
             r.faults.transients = {{stages, -1, 0.1}};
         },
         K::FaultRange},
        {"transients\\[0\\]\\.pu",
         [](auto&, auto& r) { r.faults.transients = {{-1, -2, 0.1}}; },
         K::FaultRange,
         R"({"transients":[{"pu":-2,"probability":0.1}]})"},
        {"transients\\[0\\]\\.probability",
         [](auto&, auto& r) { r.faults.transients = {{-1, -1, 1.5}}; },
         K::FaultRange, R"({"transients":[{"probability":1.5}]})"},
        {"stragglers\\[0\\]\\.stage",
         [](auto&, auto& r) { r.faults.stragglers = {{-2, 0.1, 8}}; },
         K::FaultRange,
         R"({"stragglers":[{"stage":-2,"probability":0.1}]})"},
        {"stragglers\\[0\\]\\.probability",
         [](auto&, auto& r) { r.faults.stragglers = {{-1, -0.1, 8}}; },
         K::FaultRange, R"({"stragglers":[{"probability":-0.1}]})"},
        {"factor",
         [](auto&, auto& r) { r.faults.stragglers = {{-1, 0.1, 0.5}}; },
         K::FaultRange,
         R"({"stragglers":[{"probability":0.1,"factor":0.5}]})"},
        {"dropouts\\[0\\]\\.pu",
         [pus](auto&, auto& r) { r.faults.dropouts = {{pus, 0.1}}; },
         K::FaultRange},
        {"dropouts\\[0\\]\\.at",
         [](auto&, auto& r) { r.faults.dropouts = {{0, -1}}; },
         K::FaultRange, R"({"dropouts":[{"pu":0,"at":-1}]})"},
    };

    const auto check = [&](const Rule& rule, bool spec_rule) {
        SCOPED_TRACE(rule.name);
        core::PlannerSpec spec;
        runtime::RunConfig run;
        run.numTasks = 4;
        run.warmupTasks = 1;
        rule.set(spec, run);

        const auto report = lint::lintPreflight(soc, app, spec, run);
        const auto hit = std::find_if(
            report.diagnostics.begin(), report.diagnostics.end(),
            [&](const lint::Diagnostic& d) {
                return d.kind == rule.kind
                    && d.severity == lint::Severity::Error;
            });
        EXPECT_NE(hit, report.diagnostics.end()) << toJson(report);

        if (rule.json != nullptr) {
            std::stringstream in(rule.json);
            runtime::PlanParseError err;
            EXPECT_FALSE(runtime::FaultPlan::fromJson(in, err).has_value());
            EXPECT_EQ(err.kind, PlanParseErrorKind::Range)
                << err.toString();
        }

        if (spec_rule) {
            EXPECT_DEATH_IF_SUPPORTED(
                (void)core::Optimizer(soc, table, spec),
                std::string("spec.range.*") + rule.name);
        } else {
            // Both dispatch policies refuse it.
            const runtime::VirtualTimeBackend backend(model);
            EXPECT_DEATH_IF_SUPPORTED(
                (void)backend.run(app, schedule, run),
                std::string("run.range.*") + rule.name);
            EXPECT_DEATH_IF_SUPPORTED(
                (void)backend.run(app, runtime::GreedyDispatch{&table},
                                  run),
                std::string("run.range.*") + rule.name);
        }
    };
    for (const Rule& rule : spec_rules)
        check(rule, true);
    for (const Rule& rule : run_rules)
        check(rule, false);

    // Overlapping windows are the one rule that is not a range error:
    // the parser refuses them, lint only warns, and the runtime runs
    // the plan with the factors compounded.
    runtime::RunConfig run;
    run.numTasks = 4;
    run.faults.slowdowns = {{0, 0, 1, 0.5}, {0, 0.5, 2, 0.5}};
    std::stringstream in(
        R"({"slowdowns":[{"pu":0,"start":0,"end":1},)"
        R"({"pu":0,"start":0.5,"end":2}]})");
    runtime::PlanParseError err;
    EXPECT_FALSE(runtime::FaultPlan::fromJson(in, err).has_value());
    EXPECT_EQ(err.kind, PlanParseErrorKind::Overlap);
    const auto report = lint::lintRunConfig(run, stages, pus);
    EXPECT_EQ(report.errors(), 0);
    EXPECT_TRUE(std::any_of(
        report.diagnostics.begin(), report.diagnostics.end(),
        [](const lint::Diagnostic& d) {
            return d.kind == K::OverlappingSlowdowns;
        }))
        << toJson(report);
    EXPECT_EQ(runtime::VirtualTimeBackend(model)
                  .run(app, schedule, run)
                  .tasks,
              4);
}

// ---------------------------------------------------------------------
// Service admission: tenants that lint with errors are refused and
// counted; clean tenants register.

TEST(LintService, RegisterAppRejectsErrorLintingTenants)
{
    service::Service svc(platform::pixel7a());
    EXPECT_TRUE(svc.registerApp(cleanApp()));
    EXPECT_FALSE(svc.registerApp(brokenApp()));
    EXPECT_FALSE(svc.registerApp(brokenApp()));

    const auto report = svc.report();
    EXPECT_EQ(report.tenantsRejected, 2);

    const std::string json = [&] {
        std::ostringstream os;
        report.writeJson(os);
        return os.str();
    }();
    EXPECT_EQ(json::parse(json).value().at("tenants_rejected").number, 2.0);
}

TEST(LintService, LintTenantExposesTheAdmissionDecision)
{
    service::Service svc(platform::pixel7a());
    EXPECT_EQ(svc.lintTenant(cleanApp()).errors(), 0);
    EXPECT_GT(svc.lintTenant(brokenApp()).errors(), 0);
}

} // namespace
} // namespace bt
