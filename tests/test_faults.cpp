/**
 * @file
 * Tests for the fault-injection and recovery layer: the empty-plan
 * bit-identity invariant across every enumerable schedule, seeded
 * determinism of injected faults and every recovery decision,
 * exactly-once kernel semantics under retries in both time backends,
 * the same recovery decisions from both backends, timeout/straggler
 * interplay, slowdown windows, mid-stream PU dropout with graceful
 * degradation in both backends (also on a rig whose survivors' space
 * is annealed) and under greedy dispatch, and the FaultPlan JSON round
 * trip.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <regex>
#include <sstream>
#include <string>

#include "apps/alexnet.hpp"
#include "apps/octree_app.hpp"
#include "common/rng.hpp"
#include "core/native_executor.hpp"
#include "core/profiler.hpp"
#include "core/sim_executor.hpp"
#include "platform/devices.hpp"
#include "runtime/fault_plan.hpp"
#include "runtime/run_types.hpp"

namespace bt::core {
namespace {

// ---------------------------------------------------------------------
// A tiny 3-stage pipeline whose kernels are invertible integer maps, so
// a validator can prove each stage ran exactly once per task - the
// property retries must preserve.

constexpr int kElems = 64;

std::uint32_t
seedInput(std::uint64_t seed, std::int64_t task, int i)
{
    std::uint64_t x = seed ^ (0x9e3779b97f4a7c15ull
                              * static_cast<std::uint64_t>(task + 1));
    x ^= static_cast<std::uint64_t>(i) * 0xbf58476d1ce4e5b9ull;
    return static_cast<std::uint32_t>(x >> 16);
}

void
mapA(std::uint32_t& x)
{
    x = x * 2654435761u + 17u;
}

void
mapB(std::uint32_t& x)
{
    x ^= x >> 11;
}

void
mapC(std::uint32_t& x)
{
    x += 0x9e3779b9u;
}

Application
exactlyOnceApp(std::uint64_t device_seed)
{
    Application app("ExactlyOnce", "token", "test");
    auto add = [&](const char* name, void (*fn)(std::uint32_t&)) {
        platform::WorkProfile w;
        w.flops = 1e5;
        w.bytes = 1e3;
        w.parallelFraction = 1.0;
        w.pattern = platform::Pattern::Dense;
        app.addStage(Stage(name, w,
                           [fn](KernelCtx& ctx) {
                               for (auto& x :
                                    ctx.task.view<std::uint32_t>(
                                        "data"))
                                   fn(x);
                           },
                           nullptr));
    };
    add("a", mapA);
    add("b", mapB);
    add("c", mapC);

    app.declareBuffer(
        {"data", kElems * sizeof(std::uint32_t), /*input=*/true});
    app.setTaskInput(
        [](TaskObject& obj, std::int64_t task, std::uint64_t seed) {
            auto data = obj.view<std::uint32_t>("data");
            for (int i = 0; i < kElems; ++i)
                data[static_cast<std::size_t>(i)]
                    = seedInput(seed, task, i);
        });
    app.setValidator([device_seed](const TaskObject& obj) {
        const std::int64_t task = obj.taskIndex();
        const auto data = obj.view<const std::uint32_t>("data");
        for (int i = 0; i < kElems; ++i) {
            std::uint32_t expect = seedInput(device_seed, task, i);
            mapA(expect);
            mapB(expect);
            mapC(expect);
            if (data[static_cast<std::size_t>(i)] != expect)
                return std::string("element ") + std::to_string(i)
                    + " ran a stage zero or twice";
        }
        return std::string();
    });
    return app;
}

int
countKind(const runtime::TraceTimeline& trace,
          runtime::TraceEventKind kind)
{
    int n = 0;
    for (const auto& e : trace.events())
        n += e.kind == kind ? 1 : 0;
    return n;
}

void
expectSameStats(const runtime::RecoveryStats& a,
                const runtime::RecoveryStats& b)
{
    EXPECT_EQ(a.transientFaults, b.transientFaults);
    EXPECT_EQ(a.timeouts, b.timeouts);
    EXPECT_EQ(a.stragglers, b.stragglers);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.remaps, b.remaps);
    EXPECT_EQ(a.dropouts, b.dropouts);
    EXPECT_EQ(a.replans, b.replans);
    EXPECT_EQ(a.unrecovered, b.unrecovered);
    EXPECT_DOUBLE_EQ(a.backoffSeconds, b.backoffSeconds);
}

// ---------------------------------------------------------------------
// S1: an empty FaultPlan is bit-identical to a run without the fault
// machinery, across every enumerable schedule of the small app.

TEST(EmptyFaultPlan, BitIdenticalAcrossAllSchedules)
{
    const auto soc = platform::pixel7a(); // noisy device
    const platform::PerfModel model(soc);
    const auto app = exactlyOnceApp(soc.seed);

    runtime::RunConfig plain;
    plain.numTasks = 6;

    // Same run with the whole recovery config populated: an empty plan
    // must keep every fault path cold regardless of the policy.
    runtime::RunConfig armed = plain;
    armed.faults.faultSeed = 0xabcdef;
    armed.recovery.timeoutFactor = 2.0;
    armed.recovery.maxRetries = 9;
    ASSERT_TRUE(armed.faults.empty());

    for (const auto& schedule :
         enumerateSchedules(app.numStages(), soc.numPus())) {
        const auto a = SimExecutor(model, plain).execute(app, schedule);
        const auto b = SimExecutor(model, armed).execute(app, schedule);
        const auto label = schedule.compactString();
        EXPECT_DOUBLE_EQ(a.makespanSeconds, b.makespanSeconds) << label;
        EXPECT_DOUBLE_EQ(a.taskIntervalSeconds, b.taskIntervalSeconds)
            << label;
        EXPECT_DOUBLE_EQ(a.meanLatencySeconds, b.meanLatencySeconds)
            << label;
        EXPECT_DOUBLE_EQ(a.energyJoules, b.energyJoules) << label;
        EXPECT_EQ(a.trace.size(), b.trace.size()) << label;
        EXPECT_TRUE(b.recovery.cleanRun()) << label;
        EXPECT_EQ(b.trace.stats().recoveryEvents, 0) << label;
    }
}

// ---------------------------------------------------------------------
// S2: fixed seeds reproduce every fault and every recovery decision.

TEST(FaultDeterminism, SameSaltReproducesFaultsAndRecoveryExactly)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::octreeApp();
    const auto schedule
        = Schedule::fromAssignment({0, 1, 1, 3, 3, 3, 2});

    runtime::RunConfig cfg;
    cfg.noiseSalt = 0xfeedface;
    cfg.faults.transients.push_back({-1, -1, 0.2});
    cfg.faults.stragglers.push_back({-1, 0.1, 4.0});

    const auto a = SimExecutor(model, cfg).execute(app, schedule);
    const auto b = SimExecutor(model, cfg).execute(app, schedule);
    EXPECT_GT(a.recovery.transientFaults, 0);
    EXPECT_GT(a.recovery.retries, 0);
    EXPECT_EQ(a.recovery.unrecovered, 0);
    EXPECT_DOUBLE_EQ(a.makespanSeconds, b.makespanSeconds);
    EXPECT_DOUBLE_EQ(a.energyJoules, b.energyJoules);
    expectSameStats(a.recovery, b.recovery);
    EXPECT_EQ(a.trace.size(), b.trace.size());

    // A different fault seed draws a different fault pattern.
    runtime::RunConfig other = cfg;
    other.faults.faultSeed = 0x5eed;
    const auto c = SimExecutor(model, other).execute(app, schedule);
    EXPECT_TRUE(c.makespanSeconds != a.makespanSeconds
                || c.recovery.transientFaults
                       != a.recovery.transientFaults);
}

TEST(FaultDeterminism, InjectorIsAPureFunctionOfItsInputs)
{
    runtime::FaultPlan plan;
    plan.transients.push_back({2, -1, 0.5});
    plan.stragglers.push_back({-1, 0.5, 8.0});
    const runtime::FaultInjector x(plan, 42);
    const runtime::FaultInjector y(plan, 42);
    const runtime::FaultInjector z(plan, 43);

    int diverged = 0;
    for (std::int64_t task = 0; task < 64; ++task) {
        EXPECT_EQ(x.transientFailure(task, 2, 0, 0),
                  y.transientFailure(task, 2, 0, 0));
        EXPECT_DOUBLE_EQ(x.stragglerFactor(task, 1, 0),
                         y.stragglerFactor(task, 1, 0));
        diverged += x.transientFailure(task, 2, 0, 0)
                 != z.transientFailure(task, 2, 0, 0);
        // The rule filters on stage 2: other stages never fail.
        EXPECT_FALSE(x.transientFailure(task, 1, 0, 0));
    }
    EXPECT_GT(diverged, 0);
}

// ---------------------------------------------------------------------
// Retries preserve exactly-once kernel semantics in both backends.

TEST(FaultRecovery, VirtualRetriesKeepKernelsExactlyOnce)
{
    const auto soc = platform::nativeHost();
    const platform::PerfModel model(soc);
    const auto app = exactlyOnceApp(soc.seed);

    runtime::RunConfig cfg;
    cfg.numTasks = 16;
    cfg.runKernels = true;
    cfg.faults.transients.push_back({-1, -1, 0.25});

    const auto run = SimExecutor(model, cfg)
                         .execute(app, Schedule::fromAssignment(
                                           {0, 1, 1}));
    EXPECT_TRUE(run.validationErrors.empty())
        << run.validationErrors.front();
    EXPECT_EQ(run.tasks, 16);
    EXPECT_GT(run.recovery.transientFaults, 0);
    EXPECT_GT(run.recovery.retries, 0);
    EXPECT_EQ(countKind(run.trace, runtime::TraceEventKind::Transient),
              run.recovery.transientFaults);
    EXPECT_EQ(countKind(run.trace, runtime::TraceEventKind::Stage),
              16 * app.numStages());
}

TEST(FaultRecovery, HostRetriesKeepKernelsExactlyOnce)
{
    const auto soc = platform::nativeHost();
    const auto app = exactlyOnceApp(soc.seed);

    runtime::RunConfig cfg;
    cfg.numTasks = 16;
    cfg.faults.transients.push_back({-1, -1, 0.25});

    const auto run = NativeExecutor(soc, cfg)
                         .execute(app, Schedule::fromAssignment(
                                           {0, 1, 1}));
    EXPECT_TRUE(run.validationErrors.empty())
        << run.validationErrors.front();
    EXPECT_EQ(run.tasks, 16);
    EXPECT_GT(run.recovery.transientFaults, 0);
    EXPECT_GT(run.recovery.retries, 0);
    EXPECT_EQ(run.recovery.unrecovered, 0);
    // Host transient draws are coordinate-seeded too, so the injected
    // fault count is reproducible even though wall timing is not.
    const auto again = NativeExecutor(soc, cfg)
                           .execute(app, Schedule::fromAssignment(
                                           {0, 1, 1}));
    EXPECT_EQ(again.recovery.transientFaults,
              run.recovery.transientFaults);
}

// ---------------------------------------------------------------------
// One recovery policy: both backends take the same decisions.

/** Transients dense enough that some stage executions exhaust their one
 *  retry and fail over. */
runtime::RunConfig
failoverConfig()
{
    runtime::RunConfig cfg;
    cfg.numTasks = 24;
    cfg.faults.transients.push_back({-1, -1, 0.35});
    cfg.recovery.maxRetries = 1;
    cfg.recovery.timeoutFactor = 0.0; // the host has no watchdog
    return cfg;
}

TEST(FaultRecovery, BothBackendsTakeTheSameRecoveryDecisions)
{
    const auto soc = platform::nativeHost();
    const platform::PerfModel model(soc);
    const auto app = exactlyOnceApp(soc.seed);
    const auto schedule = Schedule::fromAssignment({0, 1, 1});

    runtime::RunConfig virtual_cfg = failoverConfig();
    virtual_cfg.runKernels = true;
    const auto sim = SimExecutor(model, virtual_cfg)
                         .execute(app, schedule);
    const auto host = NativeExecutor(soc, failoverConfig())
                          .execute(app, schedule);

    EXPECT_TRUE(sim.valid());
    EXPECT_TRUE(host.valid());
    EXPECT_GT(sim.recovery.remaps, 0);
    expectSameStats(sim.recovery, host.recovery);
}

TEST(FaultRecovery, HostFailoverRemapsNameTheirPus)
{
    const auto soc = platform::nativeHost();
    const auto app = exactlyOnceApp(soc.seed);

    const auto run = NativeExecutor(soc, failoverConfig())
                         .execute(app, Schedule::fromAssignment(
                                           {0, 1, 1}));
    EXPECT_TRUE(run.valid());
    const int remaps
        = countKind(run.trace, runtime::TraceEventKind::Remap);
    EXPECT_GT(remaps, 0);
    EXPECT_EQ(remaps, run.recovery.remaps);

    // Every exported Remap reads "pu <from> -> <to>", <to> its own PU.
    const std::string json = run.trace.chromeJson();
    const std::regex remap(
        R"re("name":"remap"[^}]*"pu":(\d+),"note":"([^"]*)")re");
    const std::regex note(R"re(pu (\d+) -> (\d+))re");
    int checked = 0;
    for (auto it = std::sregex_iterator(json.begin(), json.end(), remap);
         it != std::sregex_iterator(); ++it, ++checked) {
        const std::string text = (*it)[2];
        std::smatch m;
        ASSERT_TRUE(std::regex_match(text, m, note)) << text;
        EXPECT_EQ(m[2].str(), (*it)[1].str()) << text;
        EXPECT_NE(m[1].str(), m[2].str()) << text;
    }
    EXPECT_EQ(checked, remaps);
}

// ---------------------------------------------------------------------
// Timeout watchdog: stragglers big enough to blow the budget are
// aborted and retried; the run still completes every task.

TEST(FaultRecovery, StragglersTripTimeoutsAndRecover)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::octreeApp();

    runtime::RunConfig cfg;
    cfg.faults.stragglers.push_back({-1, 0.05, 100.0});
    cfg.recovery.timeoutFactor = 8.0;

    const auto run
        = SimExecutor(model, cfg)
              .execute(app,
                       Schedule::fromAssignment({0, 1, 1, 3, 3, 3, 2}));
    EXPECT_EQ(run.tasks, 30);
    EXPECT_GT(run.recovery.stragglers, 0);
    EXPECT_GT(run.recovery.timeouts, 0);
    EXPECT_GT(run.recovery.retries, 0);
    EXPECT_EQ(run.recovery.unrecovered, 0);
    EXPECT_EQ(countKind(run.trace, runtime::TraceEventKind::Timeout),
              run.recovery.timeouts);
}

// A timeoutFactor <= 0 disables the watchdog instead of timing every
// attempt out at once (0) or arming a timer in the past (< 0).
TEST(FaultRecovery, NonPositiveTimeoutFactorDisablesTimeouts)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::octreeApp();

    for (const double factor : {0.0, -1.0}) {
        runtime::RunConfig cfg;
        cfg.faults.transients.push_back({-1, -1, 0.01});
        cfg.recovery.timeoutFactor = factor;

        const auto run = SimExecutor(model, cfg).execute(
            app, Schedule::fromAssignment({0, 1, 1, 3, 3, 3, 2}));
        EXPECT_TRUE(run.valid()) << factor;
        EXPECT_EQ(run.recovery.timeouts, 0) << factor;
        EXPECT_EQ(run.recovery.unrecovered, 0) << factor;
        EXPECT_EQ(countKind(run.trace, runtime::TraceEventKind::Stage),
                  run.tasks * app.numStages())
            << factor;
    }
}

// ---------------------------------------------------------------------
// Slowdown windows stretch the makespan, deterministically.

TEST(FaultInjection, SlowdownWindowStretchesTheRun)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::octreeApp();
    const auto schedule
        = Schedule::fromAssignment({0, 1, 1, 3, 3, 3, 2});

    runtime::RunConfig clean;
    const auto base = SimExecutor(model, clean).execute(app, schedule);

    // Throttle the bottleneck chunk's PU: the whole stream slows.
    runtime::RunConfig cfg;
    cfg.faults.slowdowns.push_back({0, 0.0, 10.0, 0.4});
    const auto slow = SimExecutor(model, cfg).execute(app, schedule);
    EXPECT_GT(slow.makespanSeconds, 1.2 * base.makespanSeconds);
    EXPECT_EQ(slow.tasks, base.tasks);
    EXPECT_EQ(slow.recovery.unrecovered, 0);

    const auto slow2 = SimExecutor(model, cfg).execute(app, schedule);
    EXPECT_DOUBLE_EQ(slow.makespanSeconds, slow2.makespanSeconds);
}

// ---------------------------------------------------------------------
// Mid-stream PU dropout: graceful degradation re-plans on survivors and
// the stream still completes every task.

TEST(FaultRecovery, DropoutMidStreamCompletesAllTasks)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::octreeApp();
    const auto schedule
        = Schedule::fromAssignment({0, 1, 1, 3, 3, 3, 2});

    runtime::RunConfig cfg;
    cfg.faults.dropouts.push_back({3, 0.02}); // lose the GPU mid-run

    const auto run = SimExecutor(model, cfg).execute(app, schedule);
    EXPECT_EQ(run.tasks, 30);
    EXPECT_EQ(run.recovery.dropouts, 1);
    EXPECT_EQ(run.recovery.replans, 1);
    EXPECT_GT(run.recovery.remaps, 0);
    EXPECT_EQ(run.recovery.unrecovered, 0);
    EXPECT_EQ(countKind(run.trace, runtime::TraceEventKind::Dropout),
              1);
    EXPECT_EQ(countKind(run.trace, runtime::TraceEventKind::Replan),
              1);
    EXPECT_EQ(countKind(run.trace, runtime::TraceEventKind::Stage),
              30 * app.numStages());
    // Nothing executes on the dead PU after the dropout instant.
    for (const auto& e : run.trace.events()) {
        if (e.isStage() && e.pu == 3) {
            EXPECT_LE(e.startSeconds, 0.02 + 1e-9);
        }
    }
}

// The greedy dynamic policy recovers through the same controller: its
// per-PU dispatcher slots retry, get rebound on dropout, and record the
// same incidents as the static pipeline's chunks.
TEST(GreedyDispatch, RecoversUnderAFaultPlan)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::octreeApp();
    const auto table = Profiler(model).profile(app).interference;
    constexpr double kDropAt = 0.02;

    runtime::RunConfig cfg;
    cfg.faults.dropouts.push_back({3, kDropAt}); // lose the GPU mid-run
    cfg.faults.transients.push_back({-1, -1, 0.05});
    cfg.faults.faultSeed = 7;

    const auto run = runtime::VirtualTimeBackend(model).run(
        app, runtime::GreedyDispatch{&table}, cfg);
    EXPECT_TRUE(run.valid());
    EXPECT_EQ(countKind(run.trace, runtime::TraceEventKind::Stage),
              30 * app.numStages());
    EXPECT_EQ(run.recovery.dropouts, 1);
    EXPECT_GT(run.recovery.transientFaults, 0);
    EXPECT_EQ(run.recovery.unrecovered, 0);
    for (const auto kind :
         {runtime::TraceEventKind::Dropout, runtime::TraceEventKind::Remap,
          runtime::TraceEventKind::Retry})
        EXPECT_GT(countKind(run.trace, kind), 0)
            << runtime::traceEventKindName(kind);
    // Nothing executes on the dead PU after the dropout instant.
    for (const auto& e : run.trace.events()) {
        if (e.isStage() && e.pu == 3) {
            EXPECT_LE(e.endSeconds, kDropAt);
        }
    }
}

// On the 8-class rig the replan faces the 7 survivors' 653,023-schedule
// space; optimize() anneals it like any other plan of that size.
TEST(FaultRecovery, DegradeReplanOnManycoreDoesNotAbort)
{
    const auto soc = platform::manycoreRig();
    const platform::PerfModel model(soc);
    const auto app = apps::alexnetSparse();
    const auto schedule
        = Schedule::fromAssignment({0, 0, 1, 1, 6, 6, 6, 7, 7});
    constexpr double kDropAt = 0.0005;

    runtime::RunConfig cfg;
    cfg.faults.dropouts.push_back({0, kDropAt});

    const auto run = SimExecutor(model, cfg).execute(app, schedule);
    EXPECT_TRUE(run.valid());
    EXPECT_EQ(run.recovery.dropouts, 1);
    EXPECT_EQ(run.recovery.replans, 1);
    EXPECT_EQ(run.recovery.unrecovered, 0);
    for (const auto& e : run.trace.events()) {
        if (e.isStage() && e.pu == 0) {
            EXPECT_LE(e.startSeconds, kDropAt + 1e-9);
        }
    }
}

// The host backend rebinds a chunk whose PU is gone before it runs a
// single stage there.
TEST(FaultRecovery, HostDropoutRebindsTheDeadChunk)
{
    const auto soc = platform::nativeHost();
    const auto app = exactlyOnceApp(soc.seed);

    runtime::RunConfig cfg;
    cfg.numTasks = 16;
    cfg.faults.dropouts.push_back({1, 0.0});

    const auto run = NativeExecutor(soc, cfg)
                         .execute(app, Schedule::fromAssignment(
                                           {0, 1, 1}));
    EXPECT_TRUE(run.valid());
    EXPECT_EQ(run.tasks, 16);
    EXPECT_EQ(run.recovery.dropouts, 1);
    EXPECT_EQ(run.recovery.replans, 1);
    EXPECT_EQ(run.recovery.remaps, 1);
    EXPECT_EQ(run.recovery.unrecovered, 0);
    EXPECT_EQ(countKind(run.trace, runtime::TraceEventKind::Stage),
              16 * app.numStages());
    for (const auto& e : run.trace.events()) {
        if (e.isStage()) {
            EXPECT_NE(e.pu, 1);
        }
    }
}

// A plan that drops every PU leaves nothing to re-plan on: each later
// stage execution is abandoned, the run still drains every task, and
// it ends invalid instead of aborting. Nothing starts on a PU after
// that PU's dropout.
TEST(FaultRecovery, EveryPuDroppedAbandonsInsteadOfAborting)
{
    const auto expectAbandoned = [](const runtime::RunResult& run,
                                    const runtime::RunConfig& cfg,
                                    int num_pus, const char* what) {
        EXPECT_EQ(run.tasks, cfg.numTasks) << what;
        EXPECT_FALSE(run.valid()) << what;
        EXPECT_GT(run.recovery.unrecovered, 0) << what;
        EXPECT_EQ(run.recovery.dropouts, num_pus) << what;
        EXPECT_EQ(countKind(run.trace, runtime::TraceEventKind::Abandon),
                  run.recovery.unrecovered)
            << what;
        for (const auto& e : run.trace.events()) {
            if (!e.isStage())
                continue;
            for (const auto& d : cfg.faults.dropouts) {
                if (d.pu == e.pu) {
                    EXPECT_LE(e.startSeconds, d.atSeconds + 1e-9)
                        << what << ": stage " << e.stage << " on pu "
                        << e.pu;
                }
            }
        }
    };

    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::octreeApp();
    const auto table = Profiler(model).profile(app).interference;
    runtime::RunConfig cfg;
    for (int p = 0; p < soc.numPus(); ++p)
        cfg.faults.dropouts.push_back({p, 0.01 * (p + 1)});

    const auto static_run = SimExecutor(model, cfg).execute(
        app, Schedule::fromAssignment({0, 1, 1, 3, 3, 3, 2}));
    expectAbandoned(static_run, cfg, soc.numPus(), "static");
    EXPECT_EQ(static_run.recovery.replans, soc.numPus() - 1);

    const auto greedy_run = runtime::VirtualTimeBackend(model).run(
        app, runtime::GreedyDispatch{&table}, cfg);
    expectAbandoned(greedy_run, cfg, soc.numPus(), "greedy");

    const auto host = platform::nativeHost();
    const auto host_app = exactlyOnceApp(host.seed);
    runtime::RunConfig host_cfg;
    host_cfg.numTasks = 16;
    for (int p = 0; p < host.numPus(); ++p)
        host_cfg.faults.dropouts.push_back({p, 0.0});
    const auto host_run = NativeExecutor(host, host_cfg)
                              .execute(host_app, Schedule::fromAssignment(
                                                     {0, 1, 1}));
    expectAbandoned(host_run, host_cfg, host.numPus(), "host");
    EXPECT_EQ(countKind(host_run.trace, runtime::TraceEventKind::Stage),
              0);
}

// ---------------------------------------------------------------------
// FaultPlan JSON round trip (the bt_explorer --faults format).

/** A plan with one row in every section. */
runtime::FaultPlan
fullPlan()
{
    runtime::FaultPlan plan;
    plan.slowdowns.push_back({1, 0.1, 0.5, 0.4});
    plan.transients.push_back({2, 3, 0.05});
    plan.stragglers.push_back({-1, 0.01, 10.0});
    plan.dropouts.push_back({3, 0.2});
    plan.faultSeed = 7;
    return plan;
}

std::string
serialized(const runtime::FaultPlan& plan)
{
    std::ostringstream os;
    plan.toJson(os);
    return os.str();
}

TEST(FaultPlanJson, RoundTripsThroughItsOwnSerialization)
{
    runtime::FaultPlan plan = fullPlan();
    std::stringstream ss(serialized(plan));
    const auto parsed = runtime::FaultPlan::fromJson(ss);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_EQ(parsed->slowdowns.size(), 1u);
    EXPECT_EQ(parsed->slowdowns[0].pu, 1);
    EXPECT_DOUBLE_EQ(parsed->slowdowns[0].startSeconds, 0.1);
    EXPECT_DOUBLE_EQ(parsed->slowdowns[0].endSeconds, 0.5);
    EXPECT_DOUBLE_EQ(parsed->slowdowns[0].clockFactor, 0.4);
    ASSERT_EQ(parsed->transients.size(), 1u);
    EXPECT_EQ(parsed->transients[0].stage, 2);
    EXPECT_EQ(parsed->transients[0].pu, 3);
    EXPECT_DOUBLE_EQ(parsed->transients[0].probability, 0.05);
    ASSERT_EQ(parsed->stragglers.size(), 1u);
    EXPECT_EQ(parsed->stragglers[0].stage, -1);
    EXPECT_DOUBLE_EQ(parsed->stragglers[0].factor, 10.0);
    ASSERT_EQ(parsed->dropouts.size(), 1u);
    EXPECT_EQ(parsed->dropouts[0].pu, 3);
    EXPECT_DOUBLE_EQ(parsed->dropouts[0].atSeconds, 0.2);
    EXPECT_EQ(parsed->faultSeed, 7u);

    // Seeds past 2^53 come back exactly, up to 2^64 - 1.
    for (const std::uint64_t seed :
         {(std::uint64_t{1} << 53) + 1, ~std::uint64_t{0}}) {
        plan.faultSeed = seed;
        std::stringstream big(serialized(plan));
        const auto back = runtime::FaultPlan::fromJson(big);
        ASSERT_TRUE(back.has_value()) << seed;
        EXPECT_EQ(back->faultSeed, seed);
    }

    std::stringstream bad("{\"transients\": [{\"probability\": ");
    EXPECT_FALSE(runtime::FaultPlan::fromJson(bad).has_value());
}

// Every malformed input maps to one typed PlanParseError kind - never
// UB, a silent default, or a downstream validate() panic.
TEST(FaultPlanJson, MalformedInputsProduceTypedErrors)
{
    const auto parseKind = [](const std::string& text) {
        std::stringstream ss(text);
        runtime::PlanParseError err;
        const auto plan = runtime::FaultPlan::fromJson(ss, err);
        EXPECT_FALSE(plan.has_value()) << text;
        return err.kind;
    };

    // Truncated / non-JSON documents.
    EXPECT_EQ(parseKind("{\"transients\": [{\"probability\": "),
              runtime::PlanParseErrorKind::Syntax);
    EXPECT_EQ(parseKind("nonsense"),
              runtime::PlanParseErrorKind::Syntax);
    EXPECT_EQ(parseKind("{} trailing"),
              runtime::PlanParseErrorKind::Syntax);

    // Not RFC 8259 JSON: a bare expression, a range, a leading '+', a
    // repeated section (which must not silently replace the first) and
    // nesting deep enough to overflow a recursive reader's stack.
    for (const std::string& text : std::vector<std::string>{
             "{\"faultSeed\": 1-2}",
             "{\"dropouts\":[{\"pu\":0,\"at\":1..5}]}", "{\"faultSeed\": +7}",
             "{\"dropouts\":[{\"pu\":1,\"at\":0.001}],\"dropouts\":[]}",
             std::string(100000, '[')})
        EXPECT_EQ(parseKind(text), runtime::PlanParseErrorKind::Syntax)
            << text.substr(0, 80);

    // Unknown sections / scalar members.
    EXPECT_EQ(parseKind("{\"slowups\": []}"),
              runtime::PlanParseErrorKind::UnknownSection);
    EXPECT_EQ(parseKind("{\"seed\": 7}"),
              runtime::PlanParseErrorKind::UnknownSection);

    // Unknown and missing row fields.
    EXPECT_EQ(parseKind("{\"dropouts\": [{\"pu\": 1, \"at\": 0.2, "
                        "\"when\": 3}]}"),
              runtime::PlanParseErrorKind::UnknownField);
    EXPECT_EQ(parseKind("{\"slowdowns\": [{\"pu\": 0, \"start\": 0}]}"),
              runtime::PlanParseErrorKind::MissingField);
    EXPECT_EQ(parseKind("{\"transients\": [{\"stage\": 1}]}"),
              runtime::PlanParseErrorKind::MissingField);
    EXPECT_EQ(parseKind("{\"dropouts\": [{\"pu\": 1}]}"),
              runtime::PlanParseErrorKind::MissingField);

    // Out-of-range PU / stage ids: negative or fractional.
    EXPECT_EQ(parseKind("{\"slowdowns\": [{\"pu\": -1, \"start\": 0, "
                        "\"end\": 1}]}"),
              runtime::PlanParseErrorKind::Range);
    EXPECT_EQ(parseKind("{\"dropouts\": [{\"pu\": 1.5, \"at\": 0.2}]}"),
              runtime::PlanParseErrorKind::Range);
    EXPECT_EQ(parseKind("{\"transients\": [{\"stage\": -2, "
                        "\"probability\": 0.1}]}"),
              runtime::PlanParseErrorKind::Range);

    // Out-of-domain values.
    EXPECT_EQ(parseKind("{\"slowdowns\": [{\"pu\": 0, \"start\": 0.5, "
                        "\"end\": 0.5}]}"),
              runtime::PlanParseErrorKind::Range);
    EXPECT_EQ(parseKind("{\"slowdowns\": [{\"pu\": 0, \"start\": 0, "
                        "\"end\": 1, \"clockFactor\": 1.5}]}"),
              runtime::PlanParseErrorKind::Range);
    EXPECT_EQ(parseKind("{\"transients\": [{\"probability\": 1.5}]}"),
              runtime::PlanParseErrorKind::Range);
    EXPECT_EQ(parseKind("{\"stragglers\": [{\"probability\": 0.1, "
                        "\"factor\": 0.5}]}"),
              runtime::PlanParseErrorKind::Range);
    EXPECT_EQ(parseKind("{\"faultSeed\": -1}"),
              runtime::PlanParseErrorKind::Range);
    // faultSeed is a whole number in [0, 2^64): no fraction, no value
    // a cast to uint64 would make undefined or wrap.
    for (const char* text : {"{\"faultSeed\": 1.5}", "{\"faultSeed\": 1e30}",
                             "{\"faultSeed\": 18446744073709551616}"})
        EXPECT_EQ(parseKind(text), runtime::PlanParseErrorKind::Range)
            << text;

    // Same-PU overlapping slowdown windows.
    EXPECT_EQ(parseKind("{\"slowdowns\": ["
                        "{\"pu\": 1, \"start\": 0, \"end\": 1}, "
                        "{\"pu\": 1, \"start\": 0.5, \"end\": 2}]}"),
              runtime::PlanParseErrorKind::Overlap);

    // Disjoint windows on one PU, overlap across PUs: both fine.
    std::stringstream ok("{\"slowdowns\": ["
                         "{\"pu\": 1, \"start\": 0, \"end\": 1}, "
                         "{\"pu\": 1, \"start\": 1, \"end\": 2}, "
                         "{\"pu\": 0, \"start\": 0.5, \"end\": 3}]}");
    runtime::PlanParseError err;
    EXPECT_TRUE(runtime::FaultPlan::fromJson(ok, err).has_value());

    // Ids and seeds may be spelled as any whole JSON number.
    std::stringstream spelled("{\"dropouts\": [{\"pu\": 1.0e0, "
                              "\"at\": 0.2}], \"faultSeed\": 7.0}");
    const auto plan = runtime::FaultPlan::fromJson(spelled, err);
    ASSERT_TRUE(plan.has_value()) << err.toString();
    EXPECT_EQ(plan->dropouts.at(0).pu, 1);
    EXPECT_EQ(plan->faultSeed, 7u);
}

// Seeded byte mutations (flip, insert, delete, truncate) of CI's plan
// and of a plan with every section: the parser never crashes, refuses
// with a known kind and a message, or accepts a plan whose
// serialization is a fixed point of parse-then-serialize.
TEST(FaultPlanJson, MutatedPlansParseOrFailCleanly)
{
    const std::string seeds[] = {
        "{\"transients\": [{\"probability\": 0.02}],\n \"dropouts\": "
        "[{\"pu\": 2, \"at\": 0.05}], \"faultSeed\": 7}\n",
        serialized(fullPlan())};
    Rng rng(0x5eed);
    int accepted = 0;
    for (int i = 0; i < 20000; ++i) {
        std::string text = seeds[i % 2];
        for (auto m = 1 + rng.nextBounded(3); m > 0; --m) {
            const auto at = rng.nextBounded(text.size() + 1);
            switch (rng.nextBounded(4)) {
              case 0:
                if (at < text.size())
                    text[at] ^= static_cast<char>(1 << rng.nextBounded(8));
                break;
              case 1:
                text.insert(at, 1, static_cast<char>(rng.nextBounded(256)));
                break;
              case 2: text.erase(at, 1); break;
              default: text.resize(at);
            }
        }
        std::stringstream in(text);
        runtime::PlanParseError err;
        const auto plan = runtime::FaultPlan::fromJson(in, err);
        if (!plan) {
            EXPECT_NE(runtime::planParseErrorKindName(err.kind), "?");
            EXPECT_FALSE(err.message.empty()) << text;
            continue;
        }
        ++accepted;
        std::stringstream again(serialized(*plan));
        const auto reparsed = runtime::FaultPlan::fromJson(again);
        ASSERT_TRUE(reparsed.has_value()) << text;
        EXPECT_EQ(serialized(*reparsed), serialized(*plan)) << text;
    }
    // The mutants exercise both outcomes.
    EXPECT_GT(accepted, 100);
    EXPECT_LT(accepted, 19000);
}

TEST(FaultPlanJson, ParseErrorsCarryKindPrefixAndDetail)
{
    std::stringstream bad("{\"slowdowns\": [{\"pu\": 0, "
                          "\"start\": 0}]}");
    runtime::PlanParseError err;
    EXPECT_FALSE(runtime::FaultPlan::fromJson(bad, err).has_value());
    EXPECT_EQ(err.kind, runtime::PlanParseErrorKind::MissingField);
    const std::string text = err.toString();
    EXPECT_NE(text.find("[missing_field]"), std::string::npos);
    EXPECT_NE(text.find("slowdowns[0]"), std::string::npos);
    EXPECT_NE(text.find("\"end\""), std::string::npos);

    // Round trip: a valid plan's serialization parses strictly with no
    // error left behind in the typed overload either.
    runtime::FaultPlan plan;
    plan.slowdowns.push_back({1, 0.1, 0.5, 0.4});
    plan.dropouts.push_back({3, 0.2});
    std::stringstream ss(serialized(plan));
    runtime::PlanParseError unused;
    const auto parsed = runtime::FaultPlan::fromJson(ss, unused);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->slowdowns.size(), 1u);
    EXPECT_EQ(parsed->dropouts.size(), 1u);
}

} // namespace
} // namespace bt::core
