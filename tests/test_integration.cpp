/**
 * @file
 * End-to-end integration tests: the complete BetterTogether flow on
 * every (device, application) pair, asserting the paper's qualitative
 * results - baseline winners (Table 3), interference-effect signs
 * (Fig. 7), no speedup regressions and mobile gains (Fig. 4), and
 * model-accuracy dominance of the interference-aware tables (Fig. 6).
 */

#include <gtest/gtest.h>

#include <vector>

#include "apps/alexnet.hpp"
#include "apps/octree_app.hpp"
#include "bt.hpp"
#include "common/stats.hpp"
#include "core/profiler.hpp"
#include "platform/devices.hpp"

namespace bt::core {
namespace {

Application
appByIndex(int a)
{
    switch (a) {
      case 0:
        return apps::alexnetDense();
      case 1:
        return apps::alexnetSparse();
      default:
        return apps::octreeApp();
    }
}

struct Combo
{
    int device;
    int app;
};

class FullFlow : public ::testing::TestWithParam<Combo>
{
  protected:
    void
    SetUp() override
    {
        soc = platform::paperDevices()[static_cast<std::size_t>(
            GetParam().device)];
        app = std::make_unique<Application>(
            appByIndex(GetParam().app));
        flow = std::make_unique<Framework>(soc);
        report = flow->run(*app);
    }

    platform::SocDescription soc;
    std::unique_ptr<Application> app;
    std::unique_ptr<Framework> flow;
    FrameworkReport report;
};

TEST_P(FullFlow, NeverRegressesBelowBestBaseline)
{
    // The autotuned schedule may tie the best homogeneous baseline
    // (single-chunk schedules are in the search space) but must not
    // lose to it beyond noise.
    EXPECT_GE(report.speedupOverBestBaseline(), 0.97)
        << soc.name << " / " << app->name();
}

TEST_P(FullFlow, BeatsCpuOnlySubstantially)
{
    // The paper reports 11.23x geomean over CPU-only; individual cells
    // vary, but every one should improve on the CPU baseline.
    EXPECT_GT(report.speedupOverCpu(), 1.0)
        << soc.name << " / " << app->name();
}

TEST_P(FullFlow, PredictionTracksMeasurementWell)
{
    const SimExecutor executor(flow->model());
    std::vector<double> predicted, measured;
    for (const auto& c : report.candidates) {
        predicted.push_back(c.predictedLatency);
        measured.push_back(
            executor.execute(*app, c.schedule).taskIntervalSeconds);
    }
    // Paper Fig. 6a: >= 0.83 in every cell; we assert a safe floor.
    EXPECT_GT(pearson(predicted, measured), 0.85)
        << soc.name << " / " << app->name();
}

TEST_P(FullFlow, BaselineWinnerMatchesPaperTable3)
{
    // Which side wins CPU vs GPU per the paper's Table 3.
    const bool paper_gpu_wins[4][3] = {
        {true, true, false},  // Pixel: dense, sparse, octree
        {true, true, false},  // OnePlus
        {true, true, true},   // Jetson
        {true, true, true},   // Jetson LP
    };
    const bool gpu_wins
        = report.gpuBaselineSeconds < report.cpuBaselineSeconds;
    EXPECT_EQ(gpu_wins,
              paper_gpu_wins[GetParam().device][GetParam().app])
        << soc.name << " / " << app->name();
}

TEST_P(FullFlow, AutotunedNeverWorseThanPredictedBest)
{
    EXPECT_GE(report.tuning.autotuningGain(), 1.0 - 1e-9);
}

TEST_P(FullFlow, CandidatesAllValidForDevice)
{
    for (const auto& c : report.candidates)
        EXPECT_TRUE(c.schedule.valid(app->numStages(), soc.numPus()));
}

std::vector<Combo>
allCombos()
{
    std::vector<Combo> combos;
    for (int d = 0; d < 4; ++d)
        for (int a = 0; a < 3; ++a)
            combos.push_back(Combo{d, a});
    return combos;
}

std::string
comboName(const ::testing::TestParamInfo<Combo>& info)
{
    const char* devices[] = {"Pixel", "OnePlus", "Jetson", "JetsonLP"};
    const char* apps[] = {"Dense", "Sparse", "Octree"};
    return std::string(devices[info.param.device]) + "_"
        + apps[info.param.app];
}

INSTANTIATE_TEST_SUITE_P(AllCombos, FullFlow,
                         ::testing::ValuesIn(allCombos()), comboName);

TEST(IntegrationHeadline, MobileSpeedupsExceedJetson)
{
    // Paper Sec. 5.1: mobile SoCs gain multiples; Jetson gains are
    // marginal (geomeans 5.10 / 3.55 vs 1.09 / 1.15).
    std::vector<double> mobile, jetson;
    const auto devices = platform::paperDevices();
    for (int d = 0; d < 4; ++d) {
        const Framework flow(devices[static_cast<std::size_t>(d)]);
        for (int a = 0; a < 3; ++a) {
            const double s = flow.run(appByIndex(a))
                                 .speedupOverBestBaseline();
            (d < 2 ? mobile : jetson).push_back(s);
        }
    }
    EXPECT_GT(geomean(mobile), 1.5);
    EXPECT_GT(geomean(mobile), geomean(jetson) * 1.3);
    EXPECT_GT(geomean(jetson), 0.99);
}

TEST(IntegrationHeadline, InterferenceTableBeatsIsolatedOnSparse)
{
    // Fig. 6: the accuracy gap is widest on the sparse workload on
    // mobile devices.
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::alexnetSparse();
    const Profiler profiler(model);
    const auto profile = profiler.profile(app);
    const SimExecutor executor(model);

    auto correlation = [&](bool interference_aware) {
        PlannerSpec cfg;
        cfg.utilizationFilter = interference_aware;
        Optimizer opt(soc,
                      interference_aware ? profile.interference
                                         : profile.isolated,
                      cfg);
        std::vector<double> predicted, measured;
        for (const auto& c : opt.optimize()) {
            predicted.push_back(c.predictedLatency);
            measured.push_back(executor.execute(app, c.schedule)
                                   .taskIntervalSeconds);
        }
        return pearson(predicted, measured);
    };
    EXPECT_GT(correlation(true), correlation(false) + 0.2);
}

TEST(IntegrationHeadline, Fig7SignsReproduced)
{
    // Interference-heavy / isolated ratio signs per PU, as in Fig. 7.
    struct Expectation
    {
        int device;
        const char* pu;
        bool slows; ///< ratio > 1
    };
    const Expectation expectations[] = {
        {0, "little", true}, {0, "mid", true},   {0, "big", true},
        {0, "gpu", false},   {1, "little", false}, {1, "big", true},
        {1, "gpu", false},   {2, "cpu", true},   {2, "gpu", true},
        {3, "cpu", true},    {3, "gpu", true},
    };
    const auto devices = platform::paperDevices();
    for (const auto& e : expectations) {
        const auto& soc
            = devices[static_cast<std::size_t>(e.device)];
        const platform::PerfModel model(soc);
        const Profiler profiler(model);
        const auto profile = profiler.profile(apps::octreeApp());
        const int pu = soc.findPu(e.pu);
        ASSERT_GE(pu, 0);
        std::vector<double> ratios;
        for (int s = 0; s < profile.isolated.numStages(); ++s)
            ratios.push_back(profile.interference.at(s, pu)
                             / profile.isolated.at(s, pu));
        const double avg = mean(ratios);
        if (e.slows)
            EXPECT_GT(avg, 1.0) << soc.name << " " << e.pu;
        else
            EXPECT_LT(avg, 1.0) << soc.name << " " << e.pu;
    }
}

TEST(IntegrationHeadline, ScheduleSpaceMatchesPaperMath)
{
    // 9 stages, 4 PU classes: 2,116 contiguity-feasible schedules out
    // of the 4^9 = 262,144 unconstrained assignments the paper quotes.
    EXPECT_EQ(countSchedules(9, 4), 2116u);
    // 7 stages (octree): 4 + 6*12 + 15*24 + 20*24 = 916.
    EXPECT_EQ(countSchedules(7, 4), 916u);
    std::uint64_t unconstrained = 1;
    for (int i = 0; i < 9; ++i)
        unconstrained *= 4;
    EXPECT_EQ(unconstrained, 262144u);
}

} // namespace
} // namespace bt::core
