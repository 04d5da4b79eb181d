/**
 * @file
 * Cross-cutting property tests: invariants of the performance model
 * over every device and pattern, schedule-cost algebra, engine work
 * conservation under randomized task sets, and optimizer contracts.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "core/optimizer.hpp"
#include "core/schedule.hpp"
#include "platform/devices.hpp"
#include "platform/perf_model.hpp"
#include "sim/engine.hpp"

namespace bt {
namespace {

using platform::LoadCell;
using platform::Pattern;
using platform::PerfModel;
using platform::WorkProfile;

struct ModelCase
{
    int device;
    int pattern;
};

class ModelProperties : public ::testing::TestWithParam<ModelCase>
{
  protected:
    platform::SocDescription soc = platform::paperDevices()
        [static_cast<std::size_t>(GetParam().device)];
    Pattern pattern = static_cast<Pattern>(GetParam().pattern);
};

TEST_P(ModelProperties, TimeMonotoneInFlops)
{
    const PerfModel model(soc);
    for (int p = 0; p < soc.numPus(); ++p) {
        double prev = 0.0;
        for (double flops : {1e5, 1e6, 1e7, 1e8}) {
            WorkProfile w{flops, 1e4, 0.99, pattern};
            const double t = model.isolatedTime(w, p);
            EXPECT_GT(t, prev);
            prev = t;
        }
    }
}

TEST_P(ModelProperties, TimeMonotoneInBytes)
{
    const PerfModel model(soc);
    for (int p = 0; p < soc.numPus(); ++p) {
        double prev = -1.0;
        for (double bytes : {1e4, 1e6, 1e8}) {
            WorkProfile w{1e5, bytes, 0.99, pattern};
            const double t = model.isolatedTime(w, p);
            EXPECT_GE(t, prev);
            prev = t;
        }
    }
}

TEST_P(ModelProperties, MoreParallelFractionNeverSlower)
{
    const PerfModel model(soc);
    for (int p = 0; p < soc.numPus(); ++p) {
        WorkProfile serial{1e8, 1e4, 0.2, pattern};
        WorkProfile parallel = serial;
        parallel.parallelFraction = 0.95;
        EXPECT_LE(model.isolatedTime(parallel, p),
                  model.isolatedTime(serial, p) + 1e-15);
    }
}

TEST_P(ModelProperties, InterferenceHeavyEqualsTimeOfFullSet)
{
    // interferenceHeavyTime must be consistent with timesOf on the
    // same-kernel-everywhere active set it documents, with and without
    // ambient demand.
    const PerfModel model(soc);
    WorkProfile w{1e7, 1e6, 0.99, pattern};
    std::vector<LoadCell> cells;
    for (int q = 0; q < soc.numPus(); ++q)
        cells.push_back(model.cellOf(w, q));
    std::vector<double> times(cells.size());
    for (const double ambient : {0.0, 0.5 * soc.mem.dramBwGbps}) {
        model.timesOf(cells, {}, ambient, times);
        for (int p = 0; p < soc.numPus(); ++p)
            EXPECT_DOUBLE_EQ(model.interferenceHeavyTime(w, p, ambient),
                             times[static_cast<std::size_t>(p)]);
    }
}

TEST_P(ModelProperties, CpuWorkScaleOnlyAffectsCpus)
{
    const PerfModel model(soc);
    WorkProfile base{1e8, 1e3, 1.0, pattern};
    WorkProfile scaled = base;
    scaled.cpuWorkScale = 5.0;
    for (int p = 0; p < soc.numPus(); ++p) {
        const double t0 = model.isolatedTime(base, p);
        const double t1 = model.isolatedTime(scaled, p);
        if (soc.pu(p).kind == platform::PuKind::Cpu)
            EXPECT_GT(t1, t0 * 2.0);
        else
            EXPECT_DOUBLE_EQ(t1, t0);
    }
}

std::vector<ModelCase>
allModelCases()
{
    std::vector<ModelCase> cases;
    for (int d = 0; d < 4; ++d)
        for (int p = 0; p < platform::kNumPatterns; ++p)
            cases.push_back(ModelCase{d, p});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(DevicesAndPatterns, ModelProperties,
                         ::testing::ValuesIn(allModelCases()));

TEST(ScheduleAlgebra, HomogeneousGapnessIsZero)
{
    core::ProfilingTable t({"a", "b", "c"}, {"x", "y"});
    Rng rng(1);
    for (int s = 0; s < 3; ++s)
        for (int p = 0; p < 2; ++p)
            t.set(s, p, rng.nextRange(0.5, 2.0));
    for (int p = 0; p < 2; ++p)
        EXPECT_DOUBLE_EQ(
            core::Schedule::homogeneous(3, p).gapness(t), 0.0);
}

TEST(ScheduleAlgebra, BottleneckAtLeastLargestStage)
{
    core::ProfilingTable t({"a", "b", "c", "d"}, {"x", "y", "z"});
    Rng rng(2);
    for (int s = 0; s < 4; ++s)
        for (int p = 0; p < 3; ++p)
            t.set(s, p, rng.nextRange(0.1, 1.0));
    for (const auto& sched : core::enumerateSchedules(4, 3)) {
        double floor = 0.0;
        for (int s = 0; s < 4; ++s)
            floor = std::max(floor, t.at(s, sched.puOfStage(s)));
        EXPECT_GE(sched.bottleneckTime(t), floor - 1e-15);
    }
}

TEST(ScheduleAlgebra, ChunkTimesSumToAllStages)
{
    core::ProfilingTable t({"a", "b", "c", "d", "e"}, {"x", "y"});
    Rng rng(3);
    for (int s = 0; s < 5; ++s)
        for (int p = 0; p < 2; ++p)
            t.set(s, p, rng.nextRange(0.1, 1.0));
    for (const auto& sched : core::enumerateSchedules(5, 2)) {
        double total = 0.0;
        for (int c = 0; c < sched.numChunks(); ++c)
            total += sched.chunkTime(t, c);
        double per_stage = 0.0;
        for (int s = 0; s < 5; ++s)
            per_stage += t.at(s, sched.puOfStage(s));
        EXPECT_NEAR(total, per_stage, 1e-12);
    }
}

class EngineRandomized : public ::testing::TestWithParam<int>
{
};

TEST_P(EngineRandomized, WorkConservation)
{
    // Total completed work must equal total injected work: integrate
    // rates over intervals via the advanced() hook and compare.
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 31);
    double injected = 0.0;
    double integrated = 0.0;

    // rates() maintains the current total rate; advanced() integrates
    // it over every constant-rate interval. The sum of
    // integrated rate must equal the work injected.
    int started = 0;
    struct Client
    {
        Rng& rng;
        double& injected;
        double& integrated;
        int& started;
        double currentRateSum = 0.0;
        sim::Engine<Client>* engine = nullptr;

        void
        rates(std::span<const sim::ActiveTask> active,
              std::span<double> rates_out)
        {
            double sum = 0.0;
            for (std::size_t i = 0; i < active.size(); ++i) {
                rates_out[i] = 0.5
                    + static_cast<double>((active[i].tag * 7) % 5);
                sum += rates_out[i];
            }
            currentRateSum = sum;
        }
        void
        advanced(double t0, double t1)
        {
            integrated += currentRateSum * (t1 - t0);
        }
        void
        completed(sim::TaskId, std::uint64_t tag)
        {
            if (started < 40 && tag % 3 == 0) {
                const double work = rng.nextRange(0.1, 2.0);
                injected += work;
                engine->startTask(
                    static_cast<std::uint64_t>(100 + started), work);
                ++started;
            }
        }
        void fired(const sim::Timer&) {}
    } client{rng, injected, integrated, started};
    sim::Engine<Client> engine(client);
    client.engine = &engine;
    for (int i = 0; i < 10; ++i) {
        const double work = rng.nextRange(0.1, 2.0);
        injected += work;
        engine.startTask(static_cast<std::uint64_t>(i), work);
        ++started;
    }
    engine.run();
    EXPECT_NEAR(integrated, injected, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineRandomized,
                         ::testing::Range(0, 8));

TEST(OptimizerContract, TopCandidateEqualsUnrestrictedOptimum)
{
    // Without the utilization filter, the first candidate's predicted
    // latency is exactly the space-wide optimum.
    const auto soc = platform::jetsonOrinNano();
    core::ProfilingTable t({"a", "b", "c", "d"}, {"cpu", "gpu"});
    Rng rng(4);
    for (int s = 0; s < 4; ++s)
        for (int p = 0; p < 2; ++p)
            t.set(s, p, rng.nextRange(0.2, 2.0));
    core::PlannerSpec cfg;
    cfg.utilizationFilter = false;
    core::Optimizer opt(soc, t, cfg);
    const auto cands = opt.optimize();
    double best = 1e300;
    for (const auto& s : core::enumerateSchedules(4, 2))
        best = std::min(best, s.bottleneckTime(t));
    EXPECT_DOUBLE_EQ(cands.front().predictedLatency, best);
    EXPECT_DOUBLE_EQ(opt.stats().unrestrictedLatency, best);
}

TEST(OptimizerContract, TierCapLimitsRepeatedCriticalChunks)
{
    const auto soc = platform::pixel7a();
    core::ProfilingTable t({"a", "b", "c", "d", "e"},
                           {"little", "mid", "big", "gpu"});
    Rng rng(5);
    for (int s = 0; s < 5; ++s)
        for (int p = 0; p < 4; ++p)
            t.set(s, p, rng.nextRange(0.2, 2.0));
    core::Optimizer opt(soc, t, core::PlannerSpec{});
    const auto cands = opt.optimize();

    std::map<std::string, int> tier_counts;
    for (const auto& c : cands) {
        // Identify the critical chunk (bottleneck).
        int best_chunk = 0;
        double worst = -1.0;
        for (int ch = 0; ch < c.schedule.numChunks(); ++ch) {
            const double time = c.schedule.chunkTime(t, ch);
            if (time > worst) {
                worst = time;
                best_chunk = ch;
            }
        }
        const auto& chunk = c.schedule.chunks()[static_cast<
            std::size_t>(best_chunk)];
        const std::string key = std::to_string(chunk.firstStage) + "-"
            + std::to_string(chunk.lastStage) + "@"
            + std::to_string(chunk.pu);
        EXPECT_LE(++tier_counts[key], core::PlannerSpec::kMaxPerTier)
            << key;
    }
}

} // namespace
} // namespace bt
