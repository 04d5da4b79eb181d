/**
 * @file
 * Tests for the extension subsystems: the SoC energy model (power
 * envelopes, energy integration in the simulated executor), the
 * HEFT-style dynamic scheduling baseline, the data-parallel baseline
 * model, and the pinned bits of static and greedy DES runs.
 */

#include <gtest/gtest.h>

#include "apps/alexnet.hpp"
#include "apps/octree_app.hpp"
#include "bt.hpp"
#include "core/data_parallel.hpp"
#include "core/profiler.hpp"
#include "core/sim_executor.hpp"
#include "platform/devices.hpp"
#include "runtime/virtual_backend.hpp"

namespace bt::core {
namespace {

Application
syntheticApp(int stages)
{
    Application app("Synthetic", "token", "test");
    for (int i = 0; i < stages; ++i) {
        platform::WorkProfile w;
        w.flops = 1e6 * (1 + i % 3);
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

TEST(EnergyModel, PaperPowerEnvelopes)
{
    // Paper Sec. 4.2: the Jetson low-power mode reduces consumption
    // from 25 W to 7 W.
    EXPECT_NEAR(platform::jetsonOrinNano().peakPowerW(), 25.0, 0.1);
    EXPECT_NEAR(platform::jetsonOrinNanoLp().peakPowerW(), 7.0, 0.1);
}

TEST(EnergyModel, SystemPowerBetweenIdleAndPeak)
{
    for (const auto& soc : platform::paperDevices()) {
        const platform::PerfModel model(soc);
        const std::vector<bool> none(static_cast<std::size_t>(
            soc.numPus()), false);
        const std::vector<bool> all(static_cast<std::size_t>(
            soc.numPus()), true);
        const double idle = model.systemPowerW(none);
        const double full = model.systemPowerW(all);
        EXPECT_GT(idle, 0.0);
        EXPECT_GT(full, idle);
        // Governor boosts can push a class above its base-clock power,
        // so "peak at base clock" is not a strict bound; stay sane.
        EXPECT_LT(full, soc.peakPowerW() * 10.0);
    }
}

TEST(EnergyModel, BoostRaisesActivePowerQuadratically)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const int gpu = soc.gpuIndex();
    const double alone = model.activePowerW(gpu, 0);
    const double boosted = model.activePowerW(gpu, 1);
    const double f = soc.pu(gpu).busyFreqFactor;
    EXPECT_NEAR(boosted / alone, f * f, 1e-9);
}

TEST(EnergyModel, ExecutorIntegratesEnergy)
{
    auto soc = platform::jetsonOrinNano();
    soc.noiseSigma = 0.0;
    const platform::PerfModel model(soc);
    const auto app = syntheticApp(4);
    const SimExecutor exec(model);
    const auto run
        = exec.execute(app, Schedule::fromAssignment({0, 0, 1, 1}));
    EXPECT_GT(run.energyJoules, 0.0);
    // Average power within the physically sensible band.
    const std::vector<bool> none(2, false);
    EXPECT_GT(run.averagePowerW(), model.systemPowerW(none) - 1e-9);
    EXPECT_LT(run.averagePowerW(), 2.0 * soc.peakPowerW());
    EXPECT_NEAR(run.energyPerTaskJ() * run.tasks, run.energyJoules,
                1e-12);
}

TEST(EnergyModel, BusyPipelineDrawsMoreThanSerial)
{
    auto soc = platform::jetsonOrinNano();
    soc.noiseSigma = 0.0;
    const platform::PerfModel model(soc);
    const auto app = syntheticApp(4);
    const SimExecutor exec(model);
    const auto serial = exec.execute(
        app, Schedule::homogeneous(4, 0));
    const auto piped = exec.execute(
        app, Schedule::fromAssignment({0, 0, 1, 1}));
    // Two PUs active concurrently -> higher average power.
    EXPECT_GT(piped.averagePowerW(), serial.averagePowerW());
}

class DynamicOverheads : public ::testing::TestWithParam<double>
{
};

TEST_P(DynamicOverheads, ExecutesAllTasks)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::alexnetSparse();
    const Profiler profiler(model);
    const auto profile = profiler.profile(app);

    runtime::RunConfig cfg;
    cfg.numTasks = 12;
    const auto run = runtime::VirtualTimeBackend(model).run(
        app, runtime::GreedyDispatch{&profile.interference, GetParam()},
        cfg);
    EXPECT_EQ(run.tasks, 12);
    EXPECT_GT(run.taskIntervalSeconds, 0.0);
    EXPECT_GT(run.makespanSeconds, 0.0);
    EXPECT_EQ(run.chunkBusyFraction.size(),
              static_cast<std::size_t>(soc.numPus()));
}

INSTANTIATE_TEST_SUITE_P(Overheads, DynamicOverheads,
                         ::testing::Values(0.0, 50.0, 500.0));

TEST(GreedyRuntime, OverheadMonotonicallyHurts)
{
    auto soc = platform::jetsonOrinNano();
    soc.noiseSigma = 0.0;
    const platform::PerfModel model(soc);
    const auto app = syntheticApp(6);
    const Profiler profiler(model);
    const auto profile = profiler.profile(app);

    double prev = 0.0;
    for (const double us : {0.0, 100.0, 1000.0}) {
        const runtime::GreedyDispatch greedy{&profile.interference, us};
        const runtime::VirtualTimeBackend dyn(model);
        const double t = dyn.run(app, greedy, {}).taskIntervalSeconds;
        EXPECT_GT(t, prev);
        prev = t;
    }
}

TEST(GreedyRuntime, DeterministicAcrossRuns)
{
    const auto soc = platform::oneplus11();
    const platform::PerfModel model(soc);
    const auto app = apps::octreeApp();
    const Profiler profiler(model);
    const auto profile = profiler.profile(app);
    const runtime::VirtualTimeBackend dyn(model);
    const runtime::GreedyDispatch greedy{&profile.interference};
    const auto a = dyn.run(app, greedy, {});
    const auto b = dyn.run(app, greedy, {});
    EXPECT_DOUBLE_EQ(a.makespanSeconds, b.makespanSeconds);
}

TEST(GreedyRuntime, SingleStageAppUsesFastestPu)
{
    auto soc = platform::jetsonOrinNano();
    soc.noiseSigma = 0.0;
    const platform::PerfModel model(soc);
    auto app = syntheticApp(1);
    const Profiler profiler(model);
    const auto profile = profiler.profile(app);

    runtime::RunConfig cfg;
    cfg.numBuffers = 1;
    const auto run = runtime::VirtualTimeBackend(model).run(
        app, runtime::GreedyDispatch{&profile.interference, 0.0}, cfg);
    // With one task in flight and one stage, every task lands on the
    // table-fastest PU; the other stays idle.
    const int fastest = profile.interference.at(0, 0)
                < profile.interference.at(0, 1)
        ? 0
        : 1;
    EXPECT_GT(run.chunkBusyFraction[static_cast<std::size_t>(fastest)],
              0.5);
    EXPECT_LT(run.chunkBusyFraction[static_cast<std::size_t>(
                  1 - fastest)],
              0.01);
}

TEST(GreedyRuntime, FaultFreeResultsArePinned)
{
    // Fault-free greedy runs, bit for bit, as the standalone greedy
    // runtime measured them before it became a dispatch policy of the
    // virtual backend: the shared session, recovery layer and energy
    // meter must leave a clean run untouched.
    struct Pin
    {
        platform::SocDescription soc;
        double overheadUs;
        int numBuffers;
        double makespan, interval, latency, energy;
        std::vector<double> busy;
    };
    const std::vector<Pin> pins = {
        {platform::pixel7a(), 0.0, 0, 0.06791962967185998,
         0.0020372349893361878, 0.010824188972632449,
         0.61900011919078823,
         {0, 0.37981180110089918, 0.7409980181046929,
          0.83854575995516978}},
        {platform::pixel7a(), 50.0, 0, 0.074233152226624438,
         0.0022378727120974922, 0.011786385408116933,
         0.64019955503430481,
         {0, 0.29294458382460192, 0.74066652903940267,
          0.88085093017495542}},
        {platform::pixel7a(), 200.0, 0, 0.089744805961065877,
         0.0027046946808102885, 0.014412182492570499,
         0.64775061699241565,
         {0, 0.20385744696037486, 0.77710170547198654,
          0.92869628794766967}},
        {platform::jetsonOrinNano(), 50.0, 1, 0.039559941826355201,
         0.0013187065708156565, 0.0013186647275451734,
         0.56170702268276551, {0, 1}},
    };
    const auto app = apps::octreeApp();
    for (const Pin& pin : pins) {
        SCOPED_TRACE(pin.soc.name + " " + std::to_string(pin.overheadUs)
                     + "us");
        const platform::PerfModel model(pin.soc);
        const auto profile = Profiler(model).profile(app);
        runtime::RunConfig cfg;
        cfg.numBuffers = pin.numBuffers;
        const auto run = runtime::VirtualTimeBackend(model).run(
            app,
            runtime::GreedyDispatch{&profile.interference,
                                    pin.overheadUs},
            cfg);
        EXPECT_EQ(run.makespanSeconds, pin.makespan);
        EXPECT_EQ(run.taskIntervalSeconds, pin.interval);
        EXPECT_EQ(run.meanLatencySeconds, pin.latency);
        EXPECT_EQ(run.energyJoules, pin.energy);
        EXPECT_EQ(run.chunkBusyFraction, pin.busy);
        EXPECT_EQ(run.trace.size(), 210u);
    }
}

TEST(VirtualRuntime, StaticResultsArePinned)
{
    // Static pipelines (and greedy dispatch under a fault plan), bit
    // for bit, across every input the rate refresh reads: each paper
    // device's PU classes, an ambient co-runner load, throttle windows
    // whose boundaries fall mid-run, watchdog retries that leave a slot
    // waiting out its backoff (it still counts as running for power),
    // a PU dropout with failover, and greedy dispatch under a throttle.
    struct Pin
    {
        std::string name;
        platform::SocDescription soc;
        bool greedy;
        runtime::RunConfig cfg;
        double makespan, interval, latency, energy;
        std::vector<double> busy;
        std::size_t traceSize;
        std::uint64_t coRunners; ///< OR over every trace event
        int retries = 0;
    };
    const auto devices = platform::paperDevices();
    runtime::RunConfig ambient;
    ambient.ambientBandwidthGbps = 3.0;
    runtime::RunConfig slowdown;
    slowdown.faults.slowdowns = {{0, 0.1, 0.2, 0.5},
                                 {1, 0.15, 0.25, 0.4},
                                 {3, 0.02, 0.05, 0.3}};
    runtime::RunConfig retry;
    retry.faults.stragglers.push_back({-1, 0.05, 100.0});
    retry.faults.transients.push_back({-1, -1, 0.05});
    retry.faults.dropouts.push_back({2, 0.03});
    retry.faults.faultSeed = 11;
    retry.recovery.timeoutFactor = 8.0;
    runtime::RunConfig greedy_slowdown;
    greedy_slowdown.faults.slowdowns.push_back({3, 0.005, 0.025, 0.3});

    const std::vector<Pin> pins = {
        {"pixel", devices[0], false, {}, 0.31383876068046107,
         0.010332157532026523, 0.016384083858752514, 1.0197752003425373,
         {0.9831850166952395, 0.45983176703540346, 0.068538114426794958,
          0.054607658363186679},
         210u, 0x7},
        {"oneplus", devices[1], false, {}, 0.70851300074304224,
         0.023422024744984893, 0.027141291050005196, 2.6281340151658306,
         {0.99501610267004736, 0.10829687569215816, 0.024710004401024086,
          0.021199022543991752},
         210u, 0x3},
        {"jetson", devices[2], false, {}, 0.066778062722566034,
         0.0022099430168753364, 0.0027290934094257699,
         1.0463602366635976, {0.99421095575985696, 0.23183243251451061},
         210u, 0x3},
        {"jetson_lp", devices[3], false, {}, 0.09259072235521329,
         0.0030674292693098301, 0.0036104519522307107,
         0.39468971389805679, {0.99647601850658085, 0.17333404249919943},
         210u, 0x3},
        {"ambient", platform::contentionRig(), false, ambient,
         0.3363251118546583, 0.010805257707136095, 0.047468682518776249,
         1.2064748177439473,
         {0.72904650664742865, 0.96680108087946803, 0.21398620963981826,
          0.15113353801935078},
         210u, 0xf},
        {"slowdown", platform::pixel7a(), false, slowdown,
         0.36892022104635042, 0.012395554151200654, 0.019696991690091394,
         1.2053294442119102,
         {0.98569556988158247, 0.50261562210358768, 0.05830506343640763,
          0.053937412250630382},
         210u, 0x7},
        {"retry_dropout", platform::pixel7a(), false, retry,
         0.38933980401571544, 0.012035449611753972, 0.027513094388680149,
         1.5014439899221723,
         {0.97774783248019304, 0.63755988030984712, 0.06365818690927072,
          0.062064490337802224},
         279u, 0xb, 28},
        {"greedy_slowdown", platform::pixel7a(), true, greedy_slowdown,
         0.091824456270452659, 0.0024857911045075894,
         0.014784291369474973, 0.6731045068003384,
         {0, 0.23777034692008023, 0.61470457124335964,
          0.82866628369131723},
         210u, 0xe},
    };
    const auto app = apps::octreeApp();
    for (const Pin& pin : pins) {
        SCOPED_TRACE(pin.name);
        const platform::PerfModel model(pin.soc);
        const runtime::VirtualTimeBackend backend(model);
        runtime::RunResult run;
        if (pin.greedy) {
            const auto profile = Profiler(model).profile(app);
            run = backend.run(
                app, runtime::GreedyDispatch{&profile.interference},
                pin.cfg);
        } else {
            // Contiguous chunks spread over every PU class in order.
            std::vector<int> assignment;
            for (int s = 0; s < app.numStages(); ++s)
                assignment.push_back(s * pin.soc.numPus()
                                     / app.numStages());
            run = backend.run(app, Schedule::fromAssignment(assignment),
                              pin.cfg);
        }
        std::uint64_t co_runners = 0;
        for (const auto& e : run.trace.events())
            co_runners |= e.coRunners;
        EXPECT_EQ(run.makespanSeconds, pin.makespan);
        EXPECT_EQ(run.taskIntervalSeconds, pin.interval);
        EXPECT_EQ(run.meanLatencySeconds, pin.latency);
        EXPECT_EQ(run.energyJoules, pin.energy);
        EXPECT_EQ(run.chunkBusyFraction, pin.busy);
        EXPECT_EQ(run.trace.size(), pin.traceSize);
        EXPECT_EQ(co_runners, pin.coRunners);
        EXPECT_EQ(run.recovery.retries, pin.retries);
    }
}

TEST(EnergyObjective, CandidatesCarryEnergyPredictions)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::alexnetSparse();
    const Profiler profiler(model);
    const auto profile = profiler.profile(app);
    Optimizer opt(soc, profile.interference);
    for (const auto& c : opt.optimize()) {
        EXPECT_GT(c.predictedEnergyJ, 0.0);
        EXPECT_GT(c.predictedEdp(), 0.0);
    }
}

TEST(EnergyObjective, EdpModeNeverPicksWorseEdpThanLatencyMode)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::octreeApp();
    const Profiler profiler(model);
    const auto profile = profiler.profile(app);

    PlannerSpec lat_cfg;
    PlannerSpec edp_cfg;
    edp_cfg.objective = PlannerSpec::Objective::EnergyDelay;
    Optimizer lat_opt(soc, profile.interference, lat_cfg);
    Optimizer edp_opt(soc, profile.interference, edp_cfg);
    const auto by_latency = lat_opt.optimize();
    const auto by_edp = edp_opt.optimize();

    EXPECT_LE(by_edp.front().predictedEdp(),
              by_latency.front().predictedEdp() + 1e-15);
    // And the latency-mode winner has the better (or equal) latency.
    EXPECT_LE(by_latency.front().predictedLatency,
              by_edp.front().predictedLatency + 1e-15);
}

TEST(EnergyObjective, EnergyPredictionTracksSimulatedEnergy)
{
    auto soc = platform::jetsonOrinNano();
    soc.noiseSigma = 0.0;
    const platform::PerfModel model(soc);
    const auto app = apps::alexnetDense();
    const Profiler profiler(model);
    const auto profile = profiler.profile(app);
    Optimizer opt(soc, profile.interference);
    const auto cands = opt.optimize();

    const SimExecutor exec(model);
    const auto& c = cands.front();
    const auto run = exec.execute(app, c.schedule);
    // Predicted and simulated energy-per-task agree within 2x (the
    // prediction uses static duty cycles; the DES has fill/drain and
    // time-varying rates).
    const double ratio = run.energyPerTaskJ() / c.predictedEnergyJ;
    EXPECT_GT(ratio, 0.5);
    EXPECT_LT(ratio, 2.0);
}

TEST(DataParallel, HarmonicCombinationBounds)
{
    ProfilingTable table({"a"}, {"cpu", "gpu"});
    table.set(0, 0, 4e-3);
    table.set(0, 1, 1e-3);
    Application app = syntheticApp(1);
    // The split share runs at 1 / (1/4 + 1/1) = 0.8 ms; the stage can
    // beat neither that nor the fastest PU alone by more than the
    // serial share and the barrier allow.
    const double dp = dataParallelLatency(app, table);
    EXPECT_NEAR(dp,
                kDataParallelSplittable * 0.8e-3
                    + (1.0 - kDataParallelSplittable) * 1e-3
                    + kDataParallelSyncSeconds,
                1e-12);
    EXPECT_GT(dp, 0.8e-3);
    EXPECT_LT(dp, 1e-3 + kDataParallelSyncSeconds);
}

TEST(DataParallel, SerialFractionStaysOnFastestPu)
{
    // Slowing the slow PU further only shrinks its share of the split
    // part; the serial part keeps running on the fast one.
    Application app = syntheticApp(1);
    double previous = 0.0;
    for (const double slow : {4e-3, 40e-3, 400e-3}) {
        ProfilingTable table({"a"}, {"cpu", "gpu"});
        table.set(0, 0, slow);
        table.set(0, 1, 1e-3);
        const double dp = dataParallelLatency(app, table);
        EXPECT_GT(dp, previous) << slow;
        EXPECT_LT(dp, 1e-3 + kDataParallelSyncSeconds) << slow;
        previous = dp;
    }
}

TEST(DataParallel, SyncOverheadPerStage)
{
    ProfilingTable one({"a"}, {"cpu"});
    one.set(0, 0, 1e-3);
    ProfilingTable two({"a", "b"}, {"cpu"});
    two.set(0, 0, 1e-3);
    two.set(1, 0, 1e-3);
    // On one PU the split and serial shares add back to the stage time.
    EXPECT_NEAR(dataParallelLatency(syntheticApp(1), one),
                1e-3 + kDataParallelSyncSeconds, 1e-12);
    EXPECT_NEAR(dataParallelLatency(syntheticApp(2), two),
                2e-3 + 2 * kDataParallelSyncSeconds, 1e-12);
}

TEST(DataParallel, LosesOnMixedWorkloads)
{
    // The paper's Sec. 1 argument: forcing the GPU to take a share of
    // sorting hurts. On octree/Pixel the BT pipeline must beat the
    // data-parallel estimate.
    const auto soc = platform::pixel7a();
    const Framework bt(soc);
    const auto app = apps::octreeApp();
    const auto report = bt.run(app);
    const double dp = dataParallelLatency(
        app, report.profile.interference);
    EXPECT_LT(report.bestLatencySeconds, dp);
}

} // namespace
} // namespace bt::core
