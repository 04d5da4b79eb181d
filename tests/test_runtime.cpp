/**
 * @file
 * Tests for the unified pipeline runtime: the shared buffer-resolution
 * rule, the structured TraceTimeline (derived statistics and the Chrome
 * trace-event JSON export, round-tripped through a real JSON parser),
 * cross-backend output equivalence (virtual DES vs host threads) over
 * every enumerable schedule of a small application, deterministic noise
 * plumbing, and the trace carried by the end-to-end flow report.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "apps/alexnet.hpp"
#include "apps/features.hpp"
#include "apps/octree_app.hpp"
#include "bt.hpp"
#include "common/json.hpp"
#include "core/native_executor.hpp"
#include "core/profiler.hpp"
#include "core/sim_executor.hpp"
#include "platform/devices.hpp"
#include "runtime/host_backend.hpp"
#include "runtime/run_types.hpp"
#include "runtime/trace.hpp"

namespace bt::core {
namespace {

// ---------------------------------------------------------------------
// S1: the "0 = one per chunk plus one" multi-buffering default.

TEST(RunConfig, ResolveBuffersDefaultsToSlotsPlusOne)
{
    EXPECT_EQ(runtime::RunConfig::resolveBuffers(0, 1), 2);
    EXPECT_EQ(runtime::RunConfig::resolveBuffers(0, 4), 5);
    EXPECT_EQ(runtime::RunConfig::resolveBuffers(-3, 2), 3);
    EXPECT_EQ(runtime::RunConfig::resolveBuffers(7, 4), 7);

    runtime::RunConfig cfg;
    EXPECT_EQ(cfg.resolveBuffers(3), 4);
    cfg.numBuffers = 2;
    EXPECT_EQ(cfg.resolveBuffers(3), 2);
}

// ---------------------------------------------------------------------
// TraceTimeline statistics on a hand-built timeline.

TEST(TraceTimeline, StatsOnHandBuiltTimeline)
{
    runtime::TraceTimeline tl("test", 2, {"cpu", "gpu"}, {"a", "b"});
    // PU0 busy [0,1) and [2,3); PU1 busy [0.5,2.5).
    using runtime::TraceEventKind;
    tl.record({0, 0, 0, 0, 0.0, 0.0, 1.0, {}, TraceEventKind::Stage, {}});
    tl.record({0, 1, 1, 1, 0.1, 0.5, 2.5, 1u << 0, TraceEventKind::Stage,
               {}});
    tl.record({1, 0, 0, 0, 0.3, 2.0, 3.0, 1u << 1, TraceEventKind::Stage,
               {}});
    tl.sortByStart();

    const auto st = tl.stats();
    EXPECT_EQ(st.events, 3);
    EXPECT_DOUBLE_EQ(st.makespanSeconds, 3.0);
    EXPECT_DOUBLE_EQ(st.busySeconds, 4.0);
    EXPECT_DOUBLE_EQ(st.perPu[0].busySeconds, 2.0);
    EXPECT_DOUBLE_EQ(st.perPu[1].busySeconds, 2.0);
    EXPECT_DOUBLE_EQ(st.perPu[0].occupancy, 2.0 / 3.0);
    // Bubble: each used PU idles 1s of the 3s makespan.
    EXPECT_DOUBLE_EQ(st.bubbleSeconds, 2.0);
    EXPECT_DOUBLE_EQ(st.bubbleFraction, 2.0 / 6.0);
    // 3s of the 4s busy time started with a co-runner.
    EXPECT_DOUBLE_EQ(st.interferedFraction, 3.0 / 4.0);
    EXPECT_NEAR(st.meanQueueWaitSeconds, 0.4 / 3.0, 1e-12);
    // Overlap windows: [0.5,1) and [2,2.5) -> 1s of co-residency.
    EXPECT_DOUBLE_EQ(st.coResidency(0, 1), 1.0);
    EXPECT_DOUBLE_EQ(st.coResidency(1, 0), 1.0);
    EXPECT_DOUBLE_EQ(st.coResidency(0, 0), 2.0);
}

TEST(TraceTimeline, SortByStartIsStableOnTies)
{
    // Record in a scrambled start order with ties; the sort must order
    // by start and keep tied events in the order they were recorded.
    using runtime::TraceEventKind;
    runtime::TraceTimeline tl("test", 2, {}, {"a"});
    const double starts[] = {3.0, 1.0, 2.0, 1.0, 0.5, 3.0, 2.0, 1.0};
    for (std::int64_t task = 0; task < 8; ++task) {
        const double t = starts[task];
        tl.record({task, 0, 0, 0, 0.0, t, t + 1.0, 0,
                   TraceEventKind::Stage, {}});
    }
    tl.sortByStart();
    std::vector<std::int64_t> order;
    for (const auto& e : tl.events())
        order.push_back(e.task);
    EXPECT_EQ(order, (std::vector<std::int64_t>{4, 1, 3, 7, 2, 6, 0, 5}));
}

TEST(TraceTimelineDeath, MoreThan64PusIsATypedPanic)
{
    EXPECT_DEATH_IF_SUPPORTED(
        runtime::TraceTimeline("test", runtime::TraceTimeline::kMaxPus + 1,
                               {}, {}),
        "trace.pu_mask");
}

/** The stage ("X") events of Chrome trace @p text, which must parse. */
std::vector<json::Value>
stageEvents(const std::string& text)
{
    const auto trace = json::parse(text).value();
    std::vector<json::Value> out;
    for (const auto& e : trace.at("traceEvents").items)
        if (e.at("ph").text == "X")
            out.push_back(e);
    return out;
}

TEST(TraceTimeline, ChromeJsonRoundTripsThroughParser)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::octreeApp();

    runtime::RunConfig cfg;
    cfg.numTasks = 6;
    const SimExecutor exec(model, cfg);
    const auto run = exec.execute(
        app, Schedule::fromAssignment({0, 1, 1, 3, 3, 3, 2}));

    ASSERT_FALSE(run.trace.empty());
    const auto trace = json::parse(run.trace.chromeJson()).value();

    // One metadata object per PU, one "X" object per stage execution.
    EXPECT_EQ(trace.at("displayTimeUnit").text, "ms");
    EXPECT_EQ(trace.at("traceEvents").items.size(),
              static_cast<std::size_t>(soc.numPus()) + run.trace.size());
    const auto stages = stageEvents(run.trace.chromeJson());
    ASSERT_EQ(stages.size(), run.trace.size());
    for (std::size_t i = 0; i < stages.size(); ++i)
        EXPECT_DOUBLE_EQ(stages[i].at("dur").number,
                         run.trace.events()[i].durationSeconds() * 1e6);
}

// ---------------------------------------------------------------------
// Merging session-tagged timelines (the multi-tenant serving path).

TEST(TraceTimeline, MergeKeepsSessionsDistinguishable)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto octree = apps::octreeApp();
    const auto features = apps::featuresApp();

    // Two tenants, different applications, distinct session ids.
    runtime::RunConfig cfgA;
    cfgA.numTasks = 4;
    cfgA.sessionId = 7;
    const auto runA = SimExecutor(model, cfgA).execute(
        octree, Schedule::homogeneous(octree.numStages(), 0));

    runtime::RunConfig cfgB;
    cfgB.numTasks = 3;
    cfgB.sessionId = 12;
    const auto runB = SimExecutor(model, cfgB).execute(
        features, Schedule::homogeneous(features.numStages(), 1));

    ASSERT_FALSE(runA.trace.empty());
    ASSERT_FALSE(runB.trace.empty());
    EXPECT_EQ(runA.trace.sessionId(), 7);
    EXPECT_EQ(runB.trace.sessionId(), 12);

    // Merge into a default-constructed service-wide timeline, with
    // wall-clock offsets like a serving front end applies.
    runtime::TraceTimeline merged;
    merged.merge(runA.trace, 0.5);
    merged.merge(runB.trace, 2.0);
    EXPECT_EQ(merged.size(), runA.trace.size() + runB.trace.size());

    const auto st = merged.stats();
    EXPECT_NEAR(st.makespanSeconds,
                std::max(0.5 + runA.trace.stats().makespanSeconds,
                         2.0 + runB.trace.stats().makespanSeconds),
                1e-12);

    // Round-trip the merged export through the JSON parser: every
    // stage event carries its session id, and names resolve through
    // the per-session stage tables with an "s<id>:" prefix.
    const std::string json = merged.chromeJson();
    const auto stages = stageEvents(json);
    ASSERT_EQ(stages.size(), merged.size());
    for (const auto& e : stages)
        EXPECT_NE(e.at("args").find("session"), nullptr);
    EXPECT_NE(json.find("\"s7:" + octree.stage(0).name()),
              std::string::npos);
    EXPECT_NE(json.find("\"s12:" + features.stage(0).name()),
              std::string::npos);
    // No cross-tenant leakage: session 12 never shows octree names.
    EXPECT_EQ(json.find("\"s12:" + octree.stage(0).name()),
              std::string::npos);

    // Merging is associative over already-merged timelines.
    runtime::TraceTimeline outer;
    outer.merge(merged, 0.0);
    EXPECT_EQ(outer.size(), merged.size());
    EXPECT_EQ(stageEvents(outer.chromeJson()).size(), merged.size());

    // Untagged runs keep the legacy export: no session args at all.
    runtime::RunConfig plain;
    plain.numTasks = 2;
    const auto runPlain = SimExecutor(model, plain).execute(
        octree, Schedule::homogeneous(octree.numStages(), 0));
    for (const auto& e : stageEvents(runPlain.trace.chromeJson()))
        EXPECT_EQ(e.at("args").find("session"), nullptr);
}

TEST(TraceTimeline, MergeResolvesNamesPerRunWithinOneSession)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto octree = apps::octreeApp();
    const auto features = apps::featuresApp();

    // One tenant session running two different applications: each
    // merged run must keep resolving against the stage names it ran
    // with (name tables travel per run, not per session).
    runtime::RunConfig cfg;
    cfg.numTasks = 2;
    cfg.sessionId = 3;
    const auto runA = SimExecutor(model, cfg).execute(
        octree, Schedule::homogeneous(octree.numStages(), 0));
    const auto runB = SimExecutor(model, cfg).execute(
        features, Schedule::homogeneous(features.numStages(), 0));

    runtime::TraceTimeline merged;
    merged.merge(runA.trace, 0.0);
    merged.merge(runB.trace, 1.0);
    const std::string json = merged.chromeJson();
    EXPECT_EQ(stageEvents(json).size(), merged.size());
    EXPECT_NE(json.find("\"s3:" + octree.stage(0).name()),
              std::string::npos);
    EXPECT_NE(json.find("\"s3:" + features.stage(0).name()),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Trace agrees with the unified result.

TEST(VirtualBackendTrace, AgreesWithRunResult)
{
    auto soc = platform::jetsonOrinNano();
    soc.noiseSigma = 0.0;
    const platform::PerfModel model(soc);
    const auto app = apps::octreeApp();

    runtime::RunConfig cfg;
    cfg.numTasks = 8;
    const SimExecutor exec(model, cfg);
    const auto schedule = Schedule::fromAssignment({0, 0, 0, 1, 1, 1, 1});
    const auto run = exec.execute(app, schedule);

    // Every (task, stage) pair appears exactly once.
    EXPECT_EQ(run.trace.size(),
              static_cast<std::size_t>(cfg.numTasks * app.numStages()));

    const auto st = run.trace.stats();
    EXPECT_NEAR(st.makespanSeconds, run.makespanSeconds,
                1e-9 * run.makespanSeconds);
    // Chunk busy fractions and trace occupancy describe the same run
    // (chunk c of this schedule is alone on its PU).
    for (int c = 0; c < schedule.numChunks(); ++c) {
        const int pu = schedule.chunks()[static_cast<std::size_t>(c)].pu;
        EXPECT_NEAR(
            st.perPu[static_cast<std::size_t>(pu)].occupancy,
            run.chunkBusyFraction[static_cast<std::size_t>(c)],
            1e-9);
    }
    // Pipelined chunks must overlap at least once.
    EXPECT_GT(st.interferedFraction, 0.0);
    EXPECT_GT(st.coResidency(0, 1), 0.0);
    // Disabling recording yields an identical measurement, no trace.
    runtime::RunConfig quiet = cfg;
    quiet.recordTrace = false;
    const auto bare = SimExecutor(model, quiet).execute(app, schedule);
    EXPECT_DOUBLE_EQ(bare.makespanSeconds, run.makespanSeconds);
    EXPECT_TRUE(bare.trace.empty());
}

TEST(GreedyRuntimeTrace, AgreesWithRunResult)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::octreeApp();
    const Profiler profiler(model);
    const auto profile = profiler.profile(app);

    runtime::RunConfig cfg;
    cfg.numTasks = 10;
    const auto run = runtime::VirtualTimeBackend(model).run(
        app, runtime::GreedyDispatch{&profile.interference}, cfg);

    EXPECT_EQ(run.trace.size(),
              static_cast<std::size_t>(cfg.numTasks * app.numStages()));
    const auto st = run.trace.stats();
    EXPECT_NEAR(st.makespanSeconds, run.makespanSeconds,
                1e-9 * run.makespanSeconds);
    EXPECT_GT(run.energyJoules, 0.0);
    EXPECT_EQ(stageEvents(run.trace.chromeJson()).size(), run.trace.size());
}

// ---------------------------------------------------------------------
// S2: cross-backend equivalence. A small integer pipeline whose outputs
// are bit-exactly checkable, run under EVERY enumerable schedule of the
// native host, on both time backends.

constexpr int kEquivElems = 256;

std::uint32_t
mixInput(std::uint64_t seed, std::int64_t task, int i)
{
    std::uint64_t x = seed ^ (0x9e3779b97f4a7c15ull
                              * static_cast<std::uint64_t>(task + 1));
    x ^= static_cast<std::uint64_t>(i) * 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    return static_cast<std::uint32_t>(x * 0x94d049bb133111ebull >> 32);
}

void
stage0(std::uint32_t& x)
{
    x = x * 2654435761u + 0x9e37u;
}

void
stage1(std::uint32_t& x)
{
    x ^= x >> 13;
    x *= 0x85ebca6bu;
}

void
stage2(std::uint32_t& x)
{
    x += (x << 7 | x >> 25) ^ 0xc2b2ae35u;
}

struct Fingerprints
{
    std::mutex mutex;
    std::map<std::int64_t, std::uint64_t> byTask;
};

/** 3-stage elementwise integer pipeline with exact validation. */
Application
equivalenceApp(std::uint64_t device_seed,
               std::shared_ptr<Fingerprints> fp)
{
    Application app("Equivalence", "token", "test");
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
    add("s0", stage0);
    add("s1", stage1);
    add("s2", stage2);

    app.setTaskFactory([](std::int64_t task, std::uint64_t seed) {
        auto obj = std::make_unique<TaskObject>();
        obj->addBuffer("data", kEquivElems * sizeof(std::uint32_t));
        auto data = obj->view<std::uint32_t>("data");
        for (int i = 0; i < kEquivElems; ++i)
            data[static_cast<std::size_t>(i)] = mixInput(seed, task, i);
        return obj;
    });
    app.setTaskRefresher(
        [](TaskObject& obj, std::int64_t task, std::uint64_t seed) {
            obj.setTaskIndex(task);
            auto data = obj.view<std::uint32_t>("data");
            for (int i = 0; i < kEquivElems; ++i)
                data[static_cast<std::size_t>(i)]
                    = mixInput(seed, task, i);
        });
    app.setValidator([device_seed, fp](const TaskObject& obj) {
        const std::int64_t task = obj.taskIndex();
        const auto data = obj.view<const std::uint32_t>("data");
        std::uint64_t hash = 1469598103934665603ull;
        for (int i = 0; i < kEquivElems; ++i) {
            std::uint32_t expect = mixInput(device_seed, task, i);
            stage0(expect);
            stage1(expect);
            stage2(expect);
            if (data[static_cast<std::size_t>(i)] != expect)
                return std::string("element ") + std::to_string(i)
                    + " mismatch";
            hash = (hash ^ expect) * 1099511628211ull;
        }
        std::lock_guard<std::mutex> lock(fp->mutex);
        fp->byTask[task] = hash;
        return std::string();
    });
    return app;
}

TEST(CrossBackendEquivalence, AllSchedulesAllBackendsBitIdentical)
{
    const auto soc = platform::nativeHost();
    const platform::PerfModel model(soc);
    auto fp = std::make_shared<Fingerprints>();
    const auto app = equivalenceApp(soc.seed, fp);

    const int num_tasks = 8;
    const auto schedules
        = enumerateSchedules(app.numStages(), soc.numPus());
    ASSERT_GT(schedules.size(), 1u);

    // Reference: every backend and schedule must reproduce these.
    std::map<std::int64_t, std::uint64_t> reference;

    for (const auto& schedule : schedules) {
        for (const bool host : {false, true}) {
            fp->byTask.clear();
            runtime::RunResult run;
            if (host) {
                runtime::RunConfig cfg;
                cfg.numTasks = num_tasks;
                run = NativeExecutor(soc, cfg).execute(app, schedule);
            } else {
                runtime::RunConfig cfg;
                cfg.numTasks = num_tasks;
                cfg.runKernels = true;
                run = SimExecutor(model, cfg).execute(app, schedule);
            }
            const std::string label = (host ? "host " : "virtual ")
                + schedule.compactString();
            EXPECT_TRUE(run.validationErrors.empty())
                << label << ": " << run.validationErrors.front();
            EXPECT_EQ(run.tasks, num_tasks) << label;
            EXPECT_EQ(fp->byTask.size(),
                      static_cast<std::size_t>(num_tasks))
                << label;
            EXPECT_EQ(run.trace.size(),
                      static_cast<std::size_t>(num_tasks
                                               * app.numStages()))
                << label;
            if (reference.empty())
                reference = fp->byTask;
            else
                EXPECT_EQ(fp->byTask, reference) << label;
        }
    }

    // Greedy dispatch moves each task's stages across PUs; the shared
    // session must still run every kernel once, in order.
    fp->byTask.clear();
    runtime::RunConfig cfg;
    cfg.numTasks = num_tasks;
    cfg.runKernels = true;
    const auto table = Profiler(model).profile(app).interference;
    const auto run = runtime::VirtualTimeBackend(model).run(
        app, runtime::GreedyDispatch{&table}, cfg);
    EXPECT_TRUE(run.validationErrors.empty())
        << "greedy: " << run.validationErrors.front();
    EXPECT_EQ(run.trace.size(),
              static_cast<std::size_t>(num_tasks * app.numStages()));
    EXPECT_EQ(fp->byTask, reference) << "greedy";
}

// ---------------------------------------------------------------------
// S3: deterministic noise plumbing, uniform across executors.

TEST(NoiseSalt, SameSaltReproducesStaticPipelineExactly)
{
    const auto soc = platform::pixel7a(); // noisy device
    const platform::PerfModel model(soc);
    const auto app = apps::octreeApp();
    const auto schedule = Schedule::fromAssignment({0, 1, 1, 3, 3, 3, 2});

    runtime::RunConfig cfg;
    cfg.noiseSalt = 0xfeedface;
    const auto a = SimExecutor(model, cfg).execute(app, schedule);
    const auto b = SimExecutor(model, cfg).execute(app, schedule);
    EXPECT_DOUBLE_EQ(a.makespanSeconds, b.makespanSeconds);
    EXPECT_DOUBLE_EQ(a.taskIntervalSeconds, b.taskIntervalSeconds);
    EXPECT_DOUBLE_EQ(a.energyJoules, b.energyJoules);

    runtime::RunConfig other = cfg;
    other.noiseSalt = 0xdeadbeef;
    const auto c = SimExecutor(model, other).execute(app, schedule);
    EXPECT_NE(a.makespanSeconds, c.makespanSeconds);
}

TEST(NoiseSalt, SameSaltReproducesDynamicRunExactly)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::octreeApp();
    const Profiler profiler(model);
    const auto profile = profiler.profile(app);

    runtime::RunConfig cfg;
    cfg.noiseSalt = 0xfeedface;
    const runtime::VirtualTimeBackend dyn(model);
    const runtime::GreedyDispatch greedy{&profile.interference};
    const auto a = dyn.run(app, greedy, cfg);
    const auto b = dyn.run(app, greedy, cfg);
    EXPECT_DOUBLE_EQ(a.makespanSeconds, b.makespanSeconds);
    EXPECT_DOUBLE_EQ(a.meanLatencySeconds, b.meanLatencySeconds);

    runtime::RunConfig other = cfg;
    other.noiseSalt = 0xdeadbeef;
    EXPECT_NE(dyn.run(app, greedy, other).makespanSeconds,
              a.makespanSeconds);
}

// ---------------------------------------------------------------------
// Noise tables: a backend draws each noise factor once per stream and
// reuses it, so a run on a backend that has served other runs (other
// salts, apps of other depths, either policy, shorter and longer
// streams, fault plans) equals the same run on a fresh backend.

/** One run of the reuse sequence. */
struct NoiseRun
{
    std::uint64_t salt;
    bool octree; ///< 7-stage octree, else 9-stage AlexNet dense
    bool greedy;
    int numTasks;
    bool faulty; ///< stragglers (some tripping the watchdog), transients
};

/** Every combination, in the order one backend serves them: the salt
 *  changes last, so each table grows over apps and task counts before
 *  another stream replaces it. */
std::vector<NoiseRun>
noiseRuns()
{
    std::vector<NoiseRun> runs;
    for (const std::uint64_t salt : {0xfeedfaceULL, 0xdeadbeefULL})
        for (const bool octree : {true, false})
            for (const bool greedy : {false, true})
                for (const int tasks : {5, 60})
                    for (const bool faulty : {false, true})
                        runs.push_back({salt, octree, greedy, tasks, faulty});
    return runs;
}

/** The device, apps, schedules and greedy cost tables the runs use. */
struct NoiseRig
{
    platform::SocDescription soc = platform::pixel7a(); // noisy device
    platform::PerfModel model{soc};
    Application octree = apps::octreeApp();
    Application dense = apps::alexnetDense();
    Schedule octreeSchedule = Schedule::fromAssignment({0, 1, 1, 3, 3, 3, 2});
    Schedule denseSchedule
        = Schedule::fromAssignment({0, 0, 0, 0, 1, 1, 1, 1, 1});
    ProfilingTable octreeCosts = Profiler(model).profile(octree).interference;
    ProfilingTable denseCosts = Profiler(model).profile(dense).interference;

    runtime::RunResult
    run(const runtime::VirtualTimeBackend& backend, const NoiseRun& r) const
    {
        runtime::RunConfig cfg;
        cfg.noiseSalt = r.salt;
        cfg.numTasks = r.numTasks;
        cfg.recordTrace = false;
        if (r.faulty) {
            cfg.faults.transients.push_back({-1, -1, 0.05});
            cfg.faults.stragglers.push_back({-1, 0.05, 20.0});
            cfg.faults.faultSeed = 11;
        }
        const Application& app = r.octree ? octree : dense;
        if (r.greedy)
            return backend.run(
                app,
                runtime::GreedyDispatch{r.octree ? &octreeCosts
                                                 : &denseCosts},
                cfg);
        return backend.run(app, r.octree ? octreeSchedule : denseSchedule,
                           cfg);
    }
};

/** Every number a RunResult carries, bit for bit. */
void
expectSameRun(const runtime::RunResult& a, const runtime::RunResult& b)
{
    EXPECT_EQ(a.tasks, b.tasks);
    EXPECT_EQ(a.makespanSeconds, b.makespanSeconds);
    EXPECT_EQ(a.taskIntervalSeconds, b.taskIntervalSeconds);
    EXPECT_EQ(a.meanLatencySeconds, b.meanLatencySeconds);
    EXPECT_EQ(a.energyJoules, b.energyJoules);
    EXPECT_EQ(a.chunkBusyFraction, b.chunkBusyFraction);
    const auto& x = a.recovery;
    const auto& y = b.recovery;
    EXPECT_EQ(x.transientFaults, y.transientFaults);
    EXPECT_EQ(x.timeouts, y.timeouts);
    EXPECT_EQ(x.stragglers, y.stragglers);
    EXPECT_EQ(x.retries, y.retries);
    EXPECT_EQ(x.remaps, y.remaps);
    EXPECT_EQ(x.dropouts, y.dropouts);
    EXPECT_EQ(x.replans, y.replans);
    EXPECT_EQ(x.unrecovered, y.unrecovered);
    EXPECT_EQ(x.backoffSeconds, y.backoffSeconds);
}

std::string
describe(const NoiseRun& r)
{
    std::ostringstream os;
    os << std::hex << "salt " << r.salt << std::dec
       << (r.octree ? " octree" : " dense")
       << (r.greedy ? " greedy " : " static ") << r.numTasks << " tasks"
       << (r.faulty ? " faulty" : "");
    return os.str();
}

TEST(NoiseTable, ReusedBackendEqualsFreshBackend)
{
    const NoiseRig rig;
    const auto runs = noiseRuns();
    const runtime::VirtualTimeBackend reused(rig.model);
    std::vector<runtime::RunResult> served;
    for (const auto& r : runs)
        served.push_back(rig.run(reused, r));

    int faults = 0;
    int timeouts = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        SCOPED_TRACE(describe(runs[i]));
        expectSameRun(served[i],
                      rig.run(runtime::VirtualTimeBackend(rig.model),
                              runs[i]));
        // A second pass reads only tables the backend already holds.
        expectSameRun(served[i], rig.run(reused, runs[i]));
        faults += served[i].recovery.faultsInjected();
        timeouts += served[i].recovery.timeouts;
    }
    // The fault plan really fired, watchdog retries included.
    EXPECT_GT(faults, 0);
    EXPECT_GT(timeouts, 0);
}

TEST(NoiseTable, ConcurrentRunsOnOneBackendEqualFreshRuns)
{
    const NoiseRig rig;
    const auto runs = noiseRuns();
    std::vector<runtime::RunResult> fresh;
    for (const auto& r : runs)
        fresh.push_back(rig.run(runtime::VirtualTimeBackend(rig.model), r));

    // Four threads walk the sequence from different offsets, so the two
    // salts and both policies race for the backend's tables.
    constexpr int kThreads = 4;
    const runtime::VirtualTimeBackend shared(rig.model);
    std::vector<std::vector<runtime::RunResult>> got(kThreads);
    std::vector<std::thread> team;
    for (int t = 0; t < kThreads; ++t)
        team.emplace_back([&, t] {
            for (std::size_t k = 0; k < runs.size(); ++k) {
                const std::size_t i = (k + t * runs.size() / kThreads)
                    % runs.size();
                got[static_cast<std::size_t>(t)].push_back(
                    rig.run(shared, runs[i]));
            }
        });
    for (auto& th : team)
        th.join();

    for (int t = 0; t < kThreads; ++t)
        for (std::size_t k = 0; k < runs.size(); ++k) {
            const std::size_t i = (k + t * runs.size() / kThreads)
                % runs.size();
            SCOPED_TRACE(describe(runs[i]));
            expectSameRun(got[static_cast<std::size_t>(t)][k], fresh[i]);
        }
}

// ---------------------------------------------------------------------
// The end-to-end flow surfaces the deployed run's timeline.

TEST(PipelineFlow, ReportCarriesDeployedTrace)
{
    const auto soc = platform::pixel7a();
    FrameworkConfig cfg;
    cfg.autotune = false;
    const Framework flow(soc, cfg);
    const auto report = flow.run(apps::octreeApp());

    ASSERT_FALSE(report.deployedRun.trace.empty());
    EXPECT_EQ(report.deployedRun.trace.size(),
              static_cast<std::size_t>(report.deployedRun.tasks * 7));
    const auto st = report.deployedRun.trace.stats();
    EXPECT_NEAR(st.makespanSeconds,
                report.deployedRun.makespanSeconds,
                1e-9 * st.makespanSeconds);
    EXPECT_EQ(stageEvents(report.deployedRun.trace.chromeJson()).size(),
              report.deployedRun.trace.size());
}

// ---------------------------------------------------------------------
// Chrome-trace JSON escaping of hostile names.

TEST(TraceTimeline, ChromeJsonEscapesHostileNames)
{
    // Quotes, backslashes, every shorthand control escape, and a raw
    // C0 byte that only \u00XX can represent.
    const std::string stage = "st\"age\\one\n\twith\rctl\x01end";
    const std::string pu = "pu\"zero\\\x02";
    const std::string backend = "back\bend\f";

    runtime::TraceTimeline tl(backend, 1, {pu}, {stage});
    using runtime::TraceEventKind;
    tl.record({0, 0, 0, 0, 0.0, 0.0, 1.0, {}, TraceEventKind::Stage,
               {}});
    tl.record(runtime::makeFaultEvent(TraceEventKind::Retry, 0, 0, 0,
                                      0, 1.0, 1.1, 1.0));
    const std::string json = tl.chromeJson();
    for (const char c : json)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20)
            << "raw control character leaked into the trace JSON";

    // Every hostile string decodes back to the original bytes.
    const auto trace = json::parse(json).value();
    EXPECT_EQ(trace.at("otherData").at("backend").text, backend);
    const auto& events = trace.at("traceEvents").items;
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].at("args").at("name").text, pu);
    EXPECT_EQ(events[1].at("name").text, stage);
    // Incident notes are rendered from the event's detail at export.
    EXPECT_EQ(events[2].at("args").at("note").text, "attempt 1");
}

// The exact bytes of the Chrome export for a small session-tagged
// timeline: co-runner masks list their PUs ascending ([] when none),
// and one remap, retry and straggler incident each.
TEST(TraceTimeline, ChromeJsonBytesArePinned)
{
    using runtime::TraceEventKind;
    runtime::TraceTimeline tl("virtual", 3, {"cpu", "gpu"},
                              {"load", "sort"});
    tl.setSessionId(4);
    tl.record({0, 0, 0, 0, 1.25e-4, 0.0, 0.0015, 0b101,
               TraceEventKind::Stage, {}});
    tl.record({0, 1, 1, 2, 1e-5, 0.0015, 0.0031, 0, TraceEventKind::Stage,
               {}});
    tl.record(runtime::makeFaultEvent(TraceEventKind::Remap, 1, 1, 1, 2,
                                      0.002, 0.002, 1.0));
    tl.record(runtime::makeFaultEvent(TraceEventKind::Retry, 1, 0, 0, 0,
                                      0.0025, 0.0025, 2.0));
    tl.record(runtime::makeFaultEvent(TraceEventKind::Straggler, 2, 1, 1,
                                      1, 0.003, 0.0041, 8.5));
    EXPECT_EQ(
        tl.chromeJson(),
        R"({"displayTimeUnit":"ms","otherData":{"backend":"virtual",)"
        R"("numPus":3,"events":5},"traceEvents":[)"
        R"({"name":"thread_name","ph":"M","pid":0,"tid":0,)"
        R"("args":{"name":"cpu"}},)"
        R"({"name":"thread_name","ph":"M","pid":0,"tid":1,)"
        R"("args":{"name":"gpu"}},)"
        R"({"name":"thread_name","ph":"M","pid":0,"tid":2,)"
        R"("args":{"name":"pu2"}},)"
        R"({"name":"s4:load","cat":"stage","ph":"X","pid":0,"tid":0,)"
        R"("ts":0,"dur":1500,"args":{"task":0,"stage":0,"chunk":0,)"
        R"("session":4,"queue_wait_us":125,"co_runners":[0,2]}},)"
        R"({"name":"s4:sort","cat":"stage","ph":"X","pid":0,"tid":2,)"
        R"("ts":1500,"dur":1599.9999999999998,"args":{"task":0,)"
        R"("stage":1,"chunk":1,"session":4,"queue_wait_us":10,)"
        R"("co_runners":[]}},)"
        R"({"name":"remap","cat":"fault","ph":"i","s":"p","pid":0,)"
        R"("tid":2,"ts":2000,"args":{"task":1,"stage":1,"chunk":1,)"
        R"("pu":2,"session":4,"note":"pu 1 -> 2"}},)"
        R"({"name":"retry","cat":"fault","ph":"i","s":"p","pid":0,)"
        R"("tid":0,"ts":2500,"args":{"task":1,"stage":0,"chunk":0,)"
        R"("pu":0,"session":4,"note":"attempt 2"}},)"
        R"({"name":"straggler","cat":"fault","ph":"i","s":"p","pid":0,)"
        R"("tid":1,"ts":3000,"args":{"task":2,"stage":1,"chunk":1,)"
        R"("pu":1,"session":4,"note":"x8.500000"}}]})");
}

// ---------------------------------------------------------------------
// Native pipelines: every chunk owns its PU's team, and the recycler
// validates each task before its buffer returns to the head.

int
puOfKind(const platform::SocDescription& soc, platform::PuKind kind)
{
    for (int p = 0; p < soc.numPus(); ++p)
        if (soc.pu(p).kind == kind)
            return p;
    return -1;
}

/**
 * Two-stage app whose kernels record the size of the team they ran on
 * (0 = no team). The validator requires stage 0 to have seen the CPU
 * PU's team and stage 1 the GPU PU's.
 */
Application
teamProbeApp(int cpu_cores, int gpu_cores)
{
    Application app("TeamProbe", "token", "test");
    platform::WorkProfile w;
    w.flops = 1e3;
    w.bytes = 1e2;
    w.parallelFraction = 1.0;
    w.pattern = platform::Pattern::Dense;
    for (const char* key : {"team0", "team1"}) {
        const KernelFn probe = [key](KernelCtx& ctx) {
            ctx.task.setScalar(key, ctx.pool ? ctx.pool->threads() : 0);
        };
        app.addStage(Stage(key, w, probe, probe));
    }
    app.setTaskFactory([](std::int64_t, std::uint64_t) {
        return std::make_unique<TaskObject>();
    });
    app.setTaskRefresher([](TaskObject&, std::int64_t, std::uint64_t) {});
    app.setValidator([cpu_cores, gpu_cores](const TaskObject& obj) {
        const auto seen = [&](const char* key) {
            return obj.hasScalar(key) ? obj.scalar(key) : -1;
        };
        if (seen("team0") != cpu_cores || seen("team1") != gpu_cores)
            return "teams " + std::to_string(seen("team0")) + "/"
                + std::to_string(seen("team1")) + ", want "
                + std::to_string(cpu_cores) + "/"
                + std::to_string(gpu_cores);
        return std::string();
    });
    return app;
}

TEST(HostBackendTeams, GpuChunkRunsOnItsPusTeam)
{
    const auto soc = platform::nativeHost();
    const int cpu = puOfKind(soc, platform::PuKind::Cpu);
    const int gpu = puOfKind(soc, platform::PuKind::Gpu);
    ASSERT_GE(cpu, 0);
    ASSERT_GE(gpu, 0);
    const auto app = teamProbeApp(soc.pu(cpu).cores, soc.pu(gpu).cores);

    runtime::RunConfig cfg;
    cfg.numTasks = 6;
    const auto run = runtime::HostTimeBackend(soc).run(
        app, Schedule::fromAssignment({cpu, gpu}), cfg);
    EXPECT_EQ(run.tasks, cfg.numTasks);
    EXPECT_TRUE(run.validationErrors.empty())
        << run.validationErrors.front();
}

TEST(HostBackendTeams, OctreeSimtStagesOnATeamAreBitIdentical)
{
    apps::OctreeConfig oc;
    oc.numPoints = 4096;
    const auto app = apps::octreeApp(oc);
    ASSERT_EQ(app.numStages(), 7);
    EXPECT_EQ(app.stage(3).name(), "radix_tree");
    EXPECT_EQ(app.stage(6).name(), "build_octree");

    // Stages 0-2 on the host serially, then the SIMT stages 3-6 either
    // across a 4-thread team or serially on the caller.
    sched::ThreadPool team(4);
    const auto build = [&](sched::ThreadPool* simt_team) {
        auto task = app.makeTask(0, 0x9005);
        for (int s = 0; s < app.numStages(); ++s) {
            KernelCtx ctx{*task, s >= 3 ? simt_team : nullptr};
            if (s >= 3)
                app.stage(s).runGpu(ctx);
            else
                app.stage(s).runCpu(ctx);
        }
        return task;
    };
    const auto pooled = build(&team);
    const auto serial = build(nullptr);

    EXPECT_GT(serial->scalar("oct_nodes"), 1);
    EXPECT_EQ(pooled->scalar("oct_nodes"), serial->scalar("oct_nodes"));
    for (const char* name :
         {"oct_prefix", "oct_level", "oct_parent", "oct_childmask",
          "oct_first", "oct_count", "rt_left", "rt_right", "rt_parent",
          "rt_leafparent", "rt_prefixlen", "rt_first", "rt_last"}) {
        const auto& a = pooled->buffer(name);
        const auto& b = serial->buffer(name);
        ASSERT_EQ(a.sizeBytes(), b.sizeBytes()) << name;
        EXPECT_EQ(std::memcmp(a.data(), b.data(), a.sizeBytes()), 0)
            << name << " differs between pooled and serial SIMT launches";
    }
}

/**
 * The equivalence pipeline plus a tail stage that corrupts task
 * @p corrupt_task's output (-1 = none), with a validator that counts
 * its calls in @p calls.
 */
Application
countedApp(std::uint64_t device_seed, std::int64_t corrupt_task,
           std::shared_ptr<std::atomic<int>> calls)
{
    auto reference = std::make_shared<Application>(equivalenceApp(
        device_seed, std::make_shared<Fingerprints>()));
    Application app = *reference;
    platform::WorkProfile w;
    w.flops = 1e3;
    w.bytes = 1e2;
    w.parallelFraction = 1.0;
    w.pattern = platform::Pattern::Dense;
    app.addStage(Stage("tail", w,
                       [corrupt_task](KernelCtx& ctx) {
                           if (ctx.task.taskIndex() == corrupt_task)
                               ctx.task.view<std::uint32_t>("data")[0]
                                   ^= 1u;
                       },
                       nullptr));
    app.setValidator([reference, calls](const TaskObject& obj) {
        calls->fetch_add(1, std::memory_order_relaxed);
        // A slow checker widens the window in which a validator racing
        // the token's return to the head would see its buffer rebound.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        return reference->validate(obj);
    });
    return app;
}

TEST(HostBackendValidation, RecyclerValidatesEveryTaskBeforeReuse)
{
    const auto soc = platform::nativeHost();
    const int cpu = puOfKind(soc, platform::PuKind::Cpu);
    const int gpu = puOfKind(soc, platform::PuKind::Gpu);
    const auto schedule = Schedule::fromAssignment({cpu, cpu, gpu, gpu});

    runtime::RunConfig cfg;
    cfg.numTasks = 32;
    cfg.queueCapacity = 1;

    auto calls = std::make_shared<std::atomic<int>>(0);
    const auto clean = runtime::HostTimeBackend(soc).run(
        countedApp(soc.seed, -1, calls), schedule, cfg);
    EXPECT_EQ(calls->load(), cfg.numTasks);
    EXPECT_EQ(clean.tasks, cfg.numTasks);
    EXPECT_TRUE(clean.validationErrors.empty())
        << clean.validationErrors.front();

    // Only task 7 is wrong: the recycler must validate the task its
    // token carried, before inject() rebinds and refreshes the buffer.
    calls->store(0);
    const auto corrupt = runtime::HostTimeBackend(soc).run(
        countedApp(soc.seed, 7, calls), schedule, cfg);
    EXPECT_EQ(calls->load(), cfg.numTasks);
    ASSERT_EQ(corrupt.validationErrors.size(), 1u);
    EXPECT_EQ(corrupt.validationErrors.front().rfind("task 7:", 0), 0u)
        << corrupt.validationErrors.front();
}

} // namespace
} // namespace bt::core
