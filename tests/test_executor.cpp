/**
 * @file
 * Tests for the BT-Implementer executors and the autotuner: virtual-time
 * pipeline semantics (bottleneck-limited throughput, utilization,
 * determinism), functional correctness of pipelined execution under
 * arbitrary schedules (both executors), and autotuning behaviour.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "apps/alexnet.hpp"
#include "apps/octree_app.hpp"
#include "bt.hpp"
#include "core/autotuner.hpp"
#include "core/native_executor.hpp"
#include "core/profiler.hpp"
#include "core/sim_executor.hpp"
#include "platform/devices.hpp"
#include "runtime/fault_plan.hpp"
#include "service/service.hpp"

namespace bt::core {
namespace {

/** Tiny synthetic application with exactly known work profiles. */
Application
syntheticApp(int stages, double flops_each = 1e6)
{
    Application app("Synthetic", "token", "test");
    for (int i = 0; i < stages; ++i) {
        platform::WorkProfile w;
        w.flops = flops_each * (1 + i % 3);
        w.bytes = 1e3;
        w.parallelFraction = 1.0;
        w.pattern = platform::Pattern::Dense;
        app.addStage(Stage("s" + std::to_string(i), w,
                           [](KernelCtx&) {}, nullptr));
    }
    app.setTaskFactory([](std::int64_t, std::uint64_t) {
        return std::make_unique<TaskObject>();
    });
    app.setTaskRefresher([](TaskObject&, std::int64_t, std::uint64_t) {
    });
    return app;
}

/** Noise-free Jetson clone for analytic checks. */
platform::SocDescription
quietJetson()
{
    auto soc = platform::jetsonOrinNano();
    soc.noiseSigma = 0.0;
    return soc;
}

TEST(SimExecutor, SingleChunkMatchesAnalyticTime)
{
    const auto soc = quietJetson();
    const platform::PerfModel model(soc);
    const auto app = syntheticApp(3);

    runtime::RunConfig cfg;
    cfg.numTasks = 10;
    const SimExecutor exec(model, cfg);
    const auto schedule = Schedule::homogeneous(3, 0);
    const auto result = exec.execute(app, schedule);

    double expect = 0.0;
    for (const auto& s : app.stages())
        expect += model.isolatedTime(s.work(), 0);
    // One chunk, no overlap: makespan = tasks * per-task time.
    EXPECT_NEAR(result.makespanSeconds, 10 * expect, 1e-9);
    EXPECT_NEAR(result.taskIntervalSeconds, expect, 1e-9);
    EXPECT_NEAR(result.meanLatencySeconds, expect, 1e-9);
}

TEST(SimExecutor, PipelineThroughputBeatsSerial)
{
    const auto soc = quietJetson();
    const platform::PerfModel model(soc);
    const auto app = syntheticApp(4);

    runtime::RunConfig cfg;
    cfg.numTasks = 30;
    const SimExecutor exec(model, cfg);

    const auto serial
        = exec.execute(app, Schedule::homogeneous(4, 0));
    const auto piped
        = exec.execute(app, Schedule::fromAssignment({0, 0, 1, 1}));
    EXPECT_LT(piped.taskIntervalSeconds, serial.taskIntervalSeconds);
}

TEST(SimExecutor, SteadyStateIntervalTracksBottleneck)
{
    const auto soc = quietJetson();
    const platform::PerfModel model(soc);
    const auto app = syntheticApp(2);

    runtime::RunConfig cfg;
    cfg.numTasks = 40;
    const SimExecutor exec(model, cfg);
    const auto schedule = Schedule::fromAssignment({0, 1});
    const auto result = exec.execute(app, schedule);

    // The interval cannot beat the slowest chunk under full contention
    // nor be slower than it in isolation... sanity band:
    double iso_bottleneck = 0.0;
    for (int c = 0; c < 2; ++c) {
        const auto& st = app.stage(c);
        iso_bottleneck = std::max(
            iso_bottleneck,
            model.isolatedTime(st.work(),
                               schedule.chunks()[static_cast<
                                   std::size_t>(c)].pu));
    }
    EXPECT_GT(result.taskIntervalSeconds, 0.5 * iso_bottleneck);
    EXPECT_LT(result.taskIntervalSeconds, 4.0 * iso_bottleneck);
}

TEST(SimExecutor, DeterministicAcrossRuns)
{
    const platform::SocDescription soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = syntheticApp(5);
    const SimExecutor exec(model);
    const auto s = Schedule::fromAssignment({0, 1, 1, 2, 3});
    const auto a = exec.execute(app, s);
    const auto b = exec.execute(app, s);
    EXPECT_DOUBLE_EQ(a.makespanSeconds, b.makespanSeconds);
    EXPECT_DOUBLE_EQ(a.taskIntervalSeconds, b.taskIntervalSeconds);
}

TEST(SimExecutor, NoiseSaltChangesMeasurement)
{
    const platform::SocDescription soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = syntheticApp(5);
    runtime::RunConfig cfg;
    cfg.noiseSalt = 1;
    const SimExecutor a(model);
    const SimExecutor b(model, cfg);
    const auto s = Schedule::fromAssignment({0, 1, 1, 2, 3});
    EXPECT_NE(a.execute(app, s).makespanSeconds,
              b.execute(app, s).makespanSeconds);
}

TEST(SimExecutor, BusyFractionsBounded)
{
    const platform::SocDescription soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = syntheticApp(6);
    const SimExecutor exec(model);
    const auto result
        = exec.execute(app, Schedule::fromAssignment({0, 0, 1, 1, 2,
                                                      3}));
    ASSERT_EQ(result.chunkBusyFraction.size(), 4u);
    for (double f : result.chunkBusyFraction) {
        EXPECT_GT(f, 0.0);
        EXPECT_LE(f, 1.0 + 1e-9);
    }
}

TEST(SimExecutor, MoreBuffersNeverSlowsSteadyState)
{
    const auto soc = quietJetson();
    const platform::PerfModel model(soc);
    const auto app = syntheticApp(4);
    runtime::RunConfig small_cfg;
    small_cfg.numBuffers = 1;
    runtime::RunConfig big_cfg;
    big_cfg.numBuffers = 6;
    const auto s = Schedule::fromAssignment({0, 0, 1, 1});
    const double t_small = SimExecutor(model, small_cfg)
                               .execute(app, s)
                               .taskIntervalSeconds;
    const double t_big = SimExecutor(model, big_cfg)
                             .execute(app, s)
                             .taskIntervalSeconds;
    EXPECT_LE(t_big, t_small + 1e-12);
}

class FunctionalSchedules : public ::testing::TestWithParam<const char*>
{
};

TEST_P(FunctionalSchedules, SimExecutorValidatesOctreeOutputs)
{
    // Functional execution: kernels really run; outputs validated per
    // task under every chunking.
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    auto app = apps::octreeApp(apps::OctreeConfig{
        .numPoints = 2000, .withValidator = true});

    std::vector<int> assign;
    for (const char* c = GetParam(); *c; ++c)
        assign.push_back(*c - '0');
    ASSERT_EQ(assign.size(), 7u);

    runtime::RunConfig cfg;
    cfg.numTasks = 3;
    cfg.runKernels = true;
    const SimExecutor exec(model, cfg);
    const auto result
        = exec.execute(app, Schedule::fromAssignment(assign));
    EXPECT_TRUE(result.valid())
        << (result.validationErrors.empty()
                ? ""
                : result.validationErrors.front());
}

INSTANTIATE_TEST_SUITE_P(Chunkings, FunctionalSchedules,
                         ::testing::Values("0000000", "3333333",
                                           "0003333", "0112233",
                                           "0001123"));

TEST(SimExecutor, AlexNetFunctionalOutputsValidate)
{
    const auto soc = platform::jetsonOrinNano();
    const platform::PerfModel model(soc);
    auto app = apps::alexnetDense(apps::AlexNetConfig{
        .batch = 1, .withValidator = true});

    runtime::RunConfig cfg;
    cfg.numTasks = 2;
    cfg.runKernels = true;
    const SimExecutor exec(model, cfg);
    const auto result = exec.execute(
        app, Schedule::fromAssignment({0, 0, 0, 0, 1, 1, 1, 1, 1}));
    EXPECT_TRUE(result.valid())
        << (result.validationErrors.empty()
                ? ""
                : result.validationErrors.front());
}

TEST(SimExecutor, ClusteredOctreeInputsValidate)
{
    // Clustered point clouds generate many duplicate Morton codes,
    // exercising the dedup/compaction path heavily.
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    auto app = apps::octreeApp(apps::OctreeConfig{
        .numPoints = 3000,
        .distribution = apps::PointDistribution::Clustered,
        .numClusters = 4,
        .withValidator = true});

    runtime::RunConfig cfg;
    cfg.numTasks = 3;
    cfg.runKernels = true;
    const SimExecutor exec(model, cfg);
    const auto result = exec.execute(
        app, Schedule::fromAssignment({0, 1, 1, 3, 3, 3, 2}));
    EXPECT_TRUE(result.valid())
        << (result.validationErrors.empty()
                ? ""
                : result.validationErrors.front());
}

TEST(SimExecutor, DenseAlexNetBatchTwoValidates)
{
    const auto soc = platform::jetsonOrinNano();
    const platform::PerfModel model(soc);
    auto app = apps::alexnetDense(apps::AlexNetConfig{
        .batch = 2, .withValidator = true});

    runtime::RunConfig cfg;
    cfg.numTasks = 2;
    cfg.runKernels = true;
    const SimExecutor exec(model, cfg);
    const auto result = exec.execute(
        app, Schedule::fromAssignment({1, 1, 1, 1, 1, 0, 0, 0, 0}));
    EXPECT_TRUE(result.valid())
        << (result.validationErrors.empty()
                ? ""
                : result.validationErrors.front());
}

TEST(NativeExecutor, RunsOctreePipelineCorrectly)
{
    const auto soc = platform::nativeHost();
    auto app = apps::octreeApp(apps::OctreeConfig{
        .numPoints = 1500, .withValidator = true});

    runtime::RunConfig cfg;
    cfg.numTasks = 4;
    const NativeExecutor exec(soc, cfg);
    const auto result
        = exec.execute(app, Schedule::fromAssignment({0, 0, 0, 1, 1, 1,
                                                      1}));
    EXPECT_TRUE(result.valid())
        << (result.validationErrors.empty()
                ? ""
                : result.validationErrors.front());
    EXPECT_GT(result.makespanSeconds, 0.0);
    EXPECT_GT(result.taskIntervalSeconds, 0.0);
}

TEST(NativeExecutor, SparseAlexNetAcrossBothPus)
{
    const auto soc = platform::nativeHost();
    auto app = apps::alexnetSparse(apps::AlexNetConfig{
        .batch = 2, .sparse = true, .withValidator = true});

    runtime::RunConfig cfg;
    cfg.numTasks = 3;
    const NativeExecutor exec(soc, cfg);
    const auto result = exec.execute(
        app, Schedule::fromAssignment({0, 0, 0, 0, 1, 1, 1, 1, 1}));
    EXPECT_TRUE(result.valid())
        << (result.validationErrors.empty()
                ? ""
                : result.validationErrors.front());
}

TEST(NativeExecutor, TightQueueCapacityStillCompletes)
{
    // Backpressure path: queues of capacity 1 with several buffers.
    const auto soc = platform::nativeHost();
    auto app = apps::octreeApp(apps::OctreeConfig{
        .numPoints = 800, .withValidator = true});

    runtime::RunConfig cfg;
    cfg.numTasks = 6;
    cfg.queueCapacity = 1;
    cfg.numBuffers = 3;
    const NativeExecutor exec(soc, cfg);
    const auto result = exec.execute(
        app, Schedule::fromAssignment({0, 0, 0, 1, 1, 1, 1}));
    EXPECT_TRUE(result.valid());
    EXPECT_EQ(result.tasks, 6);
}

TEST(AutoTuner, RanksByMeasuredLatency)
{
    const platform::SocDescription soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = syntheticApp(6);

    // Hand-built candidates, deliberately in a silly predicted order.
    std::vector<Candidate> cands;
    for (const auto& assign :
         {std::vector<int>{0, 0, 0, 0, 0, 0},
          std::vector<int>{0, 0, 0, 1, 1, 1},
          std::vector<int>{0, 1, 1, 2, 3, 3}}) {
        Candidate c;
        c.schedule = Schedule::fromAssignment(assign);
        cands.push_back(c);
    }

    const SimExecutor exec(model);
    const AutoTuner tuner(exec);
    const auto report = tuner.tune(app, cands);
    ASSERT_EQ(report.all.size(), 3u);
    for (std::size_t i = 1; i < report.all.size(); ++i)
        EXPECT_GE(report.all[i].measuredLatency,
                  report.all[i - 1].measuredLatency);
    EXPECT_GT(report.campaignCostSeconds, 0.0);
    EXPECT_GE(report.autotuningGain(), 1.0);
}

TEST(Framework, FullFlowProducesSpeedupOnPixelOctree)
{
    const auto soc = platform::pixel7a();
    const Framework bt(soc);
    const auto report = bt.run(apps::octreeApp());

    EXPECT_EQ(report.candidates.size(), 20u);
    EXPECT_GT(report.bestLatencySeconds, 0.0);
    EXPECT_GT(report.cpuBaselineSeconds, 0.0);
    EXPECT_GT(report.gpuBaselineSeconds, 0.0);
    // The paper's headline claim, qualitatively: the heterogeneous
    // pipeline beats the best homogeneous baseline on mobile SoCs.
    EXPECT_GT(report.speedupOverBestBaseline(), 1.0);
}

TEST(Framework, AutotuningNeverPicksWorseThanPredictedBest)
{
    const auto soc = platform::oneplus11();
    const Framework bt(soc);
    const auto report = bt.run(apps::alexnetSparse());
    ASSERT_FALSE(report.tuning.all.empty());
    EXPECT_GE(report.tuning.autotuningGain(), 1.0 - 1e-12);
}

TEST(Framework, NoAutotuneUsesPredictedBest)
{
    const auto soc = platform::jetsonOrinNano();
    FrameworkConfig cfg;
    cfg.autotune = false;
    const Framework bt(soc, cfg);
    const auto report = bt.run(apps::alexnetDense());
    EXPECT_EQ(report.bestSchedule.compactString(),
              report.candidates.front().schedule.compactString());
}

TEST(Framework, DefaultConfigPlansTheManycoreRig)
{
    // AlexNet-Sparse on the 8-class rig is a ~3.16M-schedule space:
    // the preflight admits it and optimize() anneals it.
    FrameworkConfig cfg;
    cfg.autotune = false;
    const Framework bt(platform::manycoreRig(), cfg);
    const auto report = bt.run(apps::alexnetSparse());
    EXPECT_EQ(report.preflight.errors(), 0);
    EXPECT_FALSE(report.candidates.empty());
    EXPECT_EQ(report.optimizeStats.engine, PlannerEngine::Annealed);
    EXPECT_TRUE(report.bestSchedule.valid(9, 8))
        << report.bestSchedule.compactString();
}

TEST(Framework, HonorsTheC6Budget)
{
    // A C6 budget set on the config reaches the optimizer: the flow
    // plans exactly what an Optimizer handed the profile's contention
    // snapshot plans, and that plan draws within the budget.
    const auto soc = platform::pixel7a();
    FrameworkConfig cfg;
    cfg.autotune = false;
    cfg.optimizer.contention.budgetGbps = 5.0;
    const Framework bt(soc, cfg);
    const auto report = bt.run(apps::alexnetDense());

    PlannerSpec spec = cfg.optimizer;
    spec.contentionProfile = &report.profile.contention;
    Optimizer optimizer(soc, report.profile.interference, spec);
    const Candidate expected = optimizer.optimize().front();
    const Candidate& front = report.candidates.front();
    EXPECT_EQ(front.schedule.toAssignment(),
              expected.schedule.toAssignment())
        << front.schedule.compactString() << " vs "
        << expected.schedule.compactString();
    EXPECT_EQ(front.predictedLatency, expected.predictedLatency);
    EXPECT_GT(front.predictedDemandGbps, 0.0);
    EXPECT_LE(front.predictedDemandGbps, 5.0);
}

/** The fault plan CI's explorer run injects: 2% transient failures on
 *  every stage and PU, and PU 2 dropping out 50 ms in. */
runtime::FaultPlan
ciFaultPlan()
{
    runtime::FaultPlan plan;
    plan.transients = {{-1, -1, 0.02}};
    plan.dropouts = {{2, 0.05}};
    plan.faultSeed = 7;
    return plan;
}

TEST(Framework, MeasuresCleanAndDeploysUnderTheFaultPlan)
{
    // The fault plan describes the deployment, not the measurements
    // that choose it: tuning and baselines are those of a fault-free
    // flow, and only the deployment run meets the faults.
    const auto soc = platform::pixel7a();
    const auto app = apps::octreeApp();
    FrameworkConfig faulty;
    faulty.run.faults = ciFaultPlan();
    const auto clean = Framework(soc).run(app);
    const auto report = Framework(soc, faulty).run(app);

    ASSERT_EQ(report.tuning.all.size(), clean.tuning.all.size());
    for (std::size_t i = 0; i < clean.tuning.all.size(); ++i) {
        const auto& got = report.tuning.all[i];
        const auto& want = clean.tuning.all[i];
        EXPECT_EQ(got.candidate.schedule.toAssignment(),
                  want.candidate.schedule.toAssignment());
        EXPECT_EQ(got.measuredLatency, want.measuredLatency);
        EXPECT_EQ(got.rankPredicted, want.rankPredicted);
    }
    EXPECT_EQ(report.tuning.campaignCostSeconds,
              clean.tuning.campaignCostSeconds);
    EXPECT_EQ(report.bestSchedule.toAssignment(),
              clean.bestSchedule.toAssignment())
        << report.bestSchedule.compactString() << " vs "
        << clean.bestSchedule.compactString();
    EXPECT_EQ(report.bestLatencySeconds, clean.bestLatencySeconds);
    EXPECT_EQ(report.cpuBaselineSeconds, clean.cpuBaselineSeconds);
    EXPECT_EQ(report.gpuBaselineSeconds, clean.gpuBaselineSeconds);
    EXPECT_TRUE(clean.deployedRun.recovery.cleanRun());
    EXPECT_FALSE(report.deployedRun.recovery.cleanRun());

    // The service plans through the same phases, so a fault plan in
    // its run config changes no plan either.
    service::ServiceConfig scfg;
    scfg.workers = 1;
    scfg.autotune = true;
    service::ServiceConfig sfaulty = scfg;
    sfaulty.run.faults = ciFaultPlan();
    service::Service plain(soc, scfg);
    service::Service withFaults(soc, sfaulty);
    ASSERT_TRUE(plain.registerApp(app));
    ASSERT_TRUE(withFaults.registerApp(app));
    const auto want = plain.freshPlan(app.name(), 0, 0, 1);
    const auto got = withFaults.freshPlan(app.name(), 0, 0, 1);
    EXPECT_EQ(got.schedule.toAssignment(), want.schedule.toAssignment())
        << got.schedule.compactString() << " vs "
        << want.schedule.compactString();
    EXPECT_EQ(got.predictedLatencySeconds, want.predictedLatencySeconds);
    EXPECT_EQ(got.predictedDemandGbps, want.predictedDemandGbps);
}

TEST(AutoTuner, ParallelCampaignBitIdenticalAcrossThreadCounts)
{
    // The acceptance bar for parallel autotuning: the TuningReport must
    // be byte-identical at 1, 2, and 8 threads - same measured
    // latencies (bit-exact), same order, same campaign cost fold.
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::alexnetSparse();

    Profiler profiler(model);
    const auto profile = profiler.profile(app);
    Optimizer optimizer(soc, profile.interference);
    const auto candidates = optimizer.optimize();
    ASSERT_GE(candidates.size(), 2u);

    const SimExecutor exec(model);
    const AutoTuner serial(exec, 10.0, 1);
    const auto baseline = serial.tune(app, candidates);

    for (const int threads : {2, 8}) {
        const AutoTuner tuner(exec, 10.0, threads);
        const auto report = tuner.tune(app, candidates);
        ASSERT_EQ(report.all.size(), baseline.all.size())
            << threads << " threads";
        EXPECT_EQ(report.bestIndex, baseline.bestIndex);
        EXPECT_EQ(report.campaignCostSeconds,
                  baseline.campaignCostSeconds);
        for (std::size_t i = 0; i < report.all.size(); ++i) {
            EXPECT_EQ(report.all[i].measuredLatency,
                      baseline.all[i].measuredLatency);
            EXPECT_EQ(report.all[i].rankPredicted,
                      baseline.all[i].rankPredicted);
            EXPECT_EQ(
                report.all[i].candidate.schedule.toAssignment(),
                baseline.all[i].candidate.schedule.toAssignment());
            EXPECT_EQ(report.all[i].candidate.predictedLatency,
                      baseline.all[i].candidate.predictedLatency);
        }
        EXPECT_EQ(report.autotuningGain(),
                  baseline.autotuningGain());
    }
}

TEST(AutoTuner, GainRejectsReportWithoutPredictedBest)
{
    const platform::SocDescription soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = syntheticApp(4);

    Candidate c;
    c.schedule = Schedule::homogeneous(4, 0);
    const SimExecutor exec(model);
    const AutoTuner tuner(exec);
    auto report = tuner.tune(app, {c});
    EXPECT_GT(report.autotuningGain(), 0.0); // well-formed: fine
    report.all[0].rankPredicted = 3;         // drop the predicted best
    EXPECT_DEATH_IF_SUPPORTED(report.autotuningGain(),
                              "malformed TuningReport");
}

} // namespace
} // namespace bt::core
