/**
 * @file
 * Tests for BT-Profiler and BT-Optimizer: profiling-table structure and
 * interference signatures, the exact planner against a solver-built
 * reference (byte-identical candidate lists and level-1 bounds), the
 * evaluator against from-scratch folds, gapness filtering,
 * blocking-clause diversity, and the latency-only comparison
 * configurations of Fig. 5b/5c.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <tuple>

#include "apps/alexnet.hpp"
#include "apps/octree_app.hpp"
#include "core/application.hpp"
#include "core/autotuner.hpp"
#include "core/optimizer.hpp"
#include "core/schedule_eval.hpp"
#include "core/profiler.hpp"
#include "platform/contention.hpp"
#include "platform/devices.hpp"
#include "solver/solver.hpp"

#include "mem_pipeline.hpp"

namespace bt::core {
namespace {

/** Fixture giving each test a profiled AlexNet-sparse on the Pixel. */
class ProfiledPixel : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        soc = platform::pixel7a();
        model = std::make_unique<platform::PerfModel>(soc);
        app = std::make_unique<Application>(apps::alexnetSparse());
        Profiler profiler(*model);
        result = profiler.profile(*app);
    }

    platform::SocDescription soc;
    std::unique_ptr<platform::PerfModel> model;
    std::unique_ptr<Application> app;
    ProfileResult result;
};

TEST_F(ProfiledPixel, TableShapeMatchesAppAndDevice)
{
    EXPECT_EQ(result.isolated.numStages(), app->numStages());
    EXPECT_EQ(result.isolated.numPus(), soc.numPus());
    EXPECT_EQ(result.interference.numStages(), app->numStages());
    EXPECT_EQ(result.isolated.stages()[0], "conv1");
    EXPECT_EQ(result.isolated.pus()[3], "gpu");
}

TEST_F(ProfiledPixel, AllEntriesPositiveWithNoiseStddev)
{
    for (int s = 0; s < result.isolated.numStages(); ++s) {
        for (int p = 0; p < result.isolated.numPus(); ++p) {
            EXPECT_GT(result.isolated.at(s, p), 0.0);
            EXPECT_GT(result.interference.at(s, p), 0.0);
            EXPECT_GT(result.isolated.stddevAt(s, p), 0.0);
        }
    }
}

TEST_F(ProfiledPixel, GpuBoostShowsInInterferenceTable)
{
    // The Mali governor boosts under CPU load: the interference-heavy
    // entries on the GPU must be faster than isolated ones for
    // compute-bound stages (conv2 is compute bound on the GPU; conv1
    // is launch/memory dominated).
    const int gpu = soc.findPu("gpu");
    EXPECT_LT(result.interference.at(2, gpu),
              result.isolated.at(2, gpu));
}

TEST_F(ProfiledPixel, CpuSlowdownShowsInInterferenceTable)
{
    const int big = soc.findPu("big");
    EXPECT_GT(result.interference.at(0, big),
              result.isolated.at(0, big));
}

TEST_F(ProfiledPixel, ProfilingIsDeterministic)
{
    Profiler profiler(*model);
    const ProfileResult again = profiler.profile(*app);
    for (int s = 0; s < result.isolated.numStages(); ++s)
        for (int p = 0; p < result.isolated.numPus(); ++p)
            EXPECT_DOUBLE_EQ(again.isolated.at(s, p),
                             result.isolated.at(s, p));
}

TEST_F(ProfiledPixel, ProfilingCostAccumulates)
{
    EXPECT_GT(result.profilingCostSeconds, 0.0);
}

TEST_F(ProfiledPixel, MoreRepsTightenNothingButStillPositive)
{
    Profiler profiler(*model, ProfilerConfig{.repetitions = 5});
    const ProfileResult quick = profiler.profile(*app);
    for (int s = 0; s < quick.isolated.numStages(); ++s)
        for (int p = 0; p < quick.isolated.numPus(); ++p)
            EXPECT_GT(quick.isolated.at(s, p), 0.0);
}

TEST_F(ProfiledPixel, CandidatesAreDistinctSchedules)
{
    Optimizer opt(soc, result.interference);
    const auto cands = opt.optimize();
    EXPECT_EQ(cands.size(), 20u);
    std::set<std::string> seen;
    for (const auto& c : cands)
        EXPECT_TRUE(seen.insert(c.schedule.compactString()).second);
}

TEST_F(ProfiledPixel, CandidatesSortedByLatencyWithinFeasibleClass)
{
    Optimizer opt(soc, result.interference);
    const auto cands = opt.optimize();
    const auto& st = opt.stats();
    auto fully_feasible = [&](const Candidate& c) {
        return c.predictedLatency <= st.latencyBound + 1e-12
            && c.schedule.numChunks() >= st.requiredPus
            && c.predictedGapness <= st.gapnessBound + 1e-12;
    };
    // Within the fully feasible prefix, latency is non-decreasing, and
    // no infeasible candidate precedes a feasible one.
    bool left_class = false;
    double prev = -1.0;
    for (const auto& c : cands) {
        if (fully_feasible(c)) {
            EXPECT_FALSE(left_class)
                << "feasible candidate after infeasible one";
            EXPECT_GE(c.predictedLatency, prev);
            prev = c.predictedLatency;
        } else {
            left_class = true;
        }
    }
    EXPECT_GT(st.candidatesWithinBound, 0);
}

TEST_F(ProfiledPixel, UtilizationFilterMaximizesPuCountUnderBound)
{
    Optimizer opt(soc, result.interference);
    const auto cands = opt.optimize();
    const auto& st = opt.stats();

    // The feasibility class: within the latency bound and using the
    // highest attainable PU-class count.
    EXPECT_GE(st.requiredPus, 1);
    EXPECT_LE(st.requiredPus, soc.numPus());
    EXPECT_GE(st.latencyBound, st.unrestrictedLatency);

    // The top candidate must sit inside the class.
    EXPECT_LE(cands.front().predictedLatency,
              st.latencyBound + 1e-12);
    EXPECT_GE(cands.front().schedule.numChunks(), st.requiredPus);

    // No schedule with MORE distinct PUs fits the latency bound
    // (otherwise requiredPus was not maximal).
    for (const auto& s :
         enumerateSchedules(result.interference.numStages(),
                            soc.numPus())) {
        if (s.numChunks() > st.requiredPus) {
            EXPECT_GT(s.bottleneckTime(result.interference),
                      st.latencyBound - 1e-12);
        }
    }
}

TEST_F(ProfiledPixel, LatencyOnlyModeFindsGlobalLatencyOptimum)
{
    PlannerSpec cfg;
    cfg.utilizationFilter = false;
    Optimizer opt(soc, result.interference, cfg);
    const auto cands = opt.optimize();

    // The first candidate must equal the brute-force latency optimum
    // over the whole schedule space.
    const auto all = enumerateSchedules(app->numStages(), soc.numPus());
    double best = 1e300;
    for (const auto& s : all)
        best = std::min(best, s.bottleneckTime(result.interference));
    EXPECT_NEAR(cands.front().predictedLatency, best, 1e-12);
}

TEST_F(ProfiledPixel, GapnessFilterNeverWorsensBeyondSlack)
{
    Optimizer opt(soc, result.interference);
    const auto cands = opt.optimize();
    const auto& st = opt.stats();
    EXPECT_GT(st.candidatesWithinBound, 0);
    EXPECT_GE(st.gapnessBound, st.minimalGapness);
    // The level-1 optimum must itself be attainable.
    bool found_min = false;
    for (const auto& c : cands)
        found_min = found_min
            || c.predictedGapness <= st.gapnessBound + 1e-12;
    EXPECT_TRUE(found_min);
}

TEST_F(ProfiledPixel, PipelineSchedulesBeatHomogeneousPrediction)
{
    Optimizer opt(soc, result.interference);
    const auto cands = opt.optimize();
    // Predicted bottleneck of the best pipeline must beat every
    // homogeneous schedule's predicted latency (this is the whole
    // point of pipelining).
    for (int p = 0; p < soc.numPus(); ++p) {
        const auto homog
            = Schedule::homogeneous(app->numStages(), p);
        EXPECT_LT(cands.front().predictedLatency,
                  homog.bottleneckTime(result.interference));
    }
}

TEST_F(ProfiledPixel, SolverStatsPopulated)
{
    // solverNodes counts the schedules the exact engine enumerated.
    Optimizer opt(soc, result.interference);
    opt.optimize();
    EXPECT_EQ(opt.stats().solverNodes,
              countSchedules(app->numStages(), soc.numPus()));
}

/**
 * Every stage-to-PU assignment the DPLL solver admits under the paper's
 * C1 (one PU per stage) and C2 (contiguity) encoding, with unit clauses
 * banning the PUs outside @p allowed (empty = all), in solver order.
 */
std::vector<std::vector<int>>
solverAssignments(int stages, int pus, const std::vector<int>& allowed)
{
    solver::Model model;
    std::vector<std::vector<solver::Var>> x(
        static_cast<std::size_t>(stages));
    const auto at = [&x](int i, int c) {
        return x[static_cast<std::size_t>(i)][static_cast<std::size_t>(c)];
    };
    for (int i = 0; i < stages; ++i) {
        for (int c = 0; c < pus; ++c)
            x[static_cast<std::size_t>(i)].push_back(model.newVar());
        model.addExactlyOne(x[static_cast<std::size_t>(i)]);
    }
    for (int c = 0; c < pus; ++c)
        for (int i = 0; i < stages; ++i)
            for (int k = i + 2; k < stages; ++k)
                for (int j = i + 1; j < k; ++j)
                    model.addImplication(
                        {solver::pos(at(i, c)), solver::pos(at(k, c))},
                        solver::pos(at(j, c)));
    for (int c = 0; c < pus; ++c)
        if (!allowed.empty()
            && std::find(allowed.begin(), allowed.end(), c)
                == allowed.end())
            for (int i = 0; i < stages; ++i)
                model.addClause({solver::neg(at(i, c))});

    std::vector<std::vector<int>> out;
    solver::Solver s(model);
    s.forEachSolution([&](const solver::Assignment& a) {
        std::vector<int> assign(static_cast<std::size_t>(stages), -1);
        for (int i = 0; i < stages; ++i)
            for (int c = 0; c < pus; ++c)
                if (a.value(at(i, c)))
                    assign[static_cast<std::size_t>(i)] = c;
        out.push_back(std::move(assign));
        return true;
    });
    return out;
}

class ScheduleModelCounts
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(ScheduleModelCounts, SolverEncodingCountsMatchEnumeration)
{
    // The C1+C2 solver encoding must admit exactly the schedules the
    // combinatorial enumerator produces - the same set, not just as
    // many.
    const auto [stages, pus] = GetParam();
    const auto solved = solverAssignments(stages, pus, {});
    const std::set<std::vector<int>> from_solver(solved.begin(),
                                                 solved.end());
    EXPECT_EQ(from_solver.size(), solved.size()) << "duplicate solution";
    EXPECT_EQ(solved.size(), countSchedules(stages, pus));

    std::set<std::vector<int>> from_enum;
    for (const auto& s : enumerateSchedules(stages, pus))
        from_enum.insert(s.toAssignment());
    EXPECT_EQ(from_solver, from_enum);
}

INSTANTIATE_TEST_SUITE_P(Spaces, ScheduleModelCounts,
                         ::testing::Values(std::pair{1, 1},
                                           std::pair{3, 2},
                                           std::pair{5, 3},
                                           std::pair{7, 4},
                                           std::pair{9, 4}));

TEST(Optimizer, FewerStagesThanPusStillSolves)
{
    const auto soc = platform::pixel7a(); // 4 PUs
    ProfilingTable table({"a", "b"}, {"little", "mid", "big", "gpu"});
    for (int s = 0; s < 2; ++s)
        for (int p = 0; p < 4; ++p)
            table.set(s, p, 1.0 + s + p);
    Optimizer opt(soc, table);
    const auto cands = opt.optimize();
    EXPECT_FALSE(cands.empty());
    for (const auto& c : cands)
        EXPECT_TRUE(c.schedule.valid(2, 4));
}

TEST(Optimizer, SingleStageSinglePu)
{
    platform::SocDescription soc = platform::jetsonOrinNano();
    ProfilingTable table({"only"}, {"cpu", "gpu"});
    table.set(0, 0, 2.0);
    table.set(0, 1, 1.0);
    Optimizer opt(soc, table);
    const auto cands = opt.optimize();
    ASSERT_FALSE(cands.empty());
    // Best single-stage schedule picks the faster PU.
    EXPECT_EQ(cands.front().schedule.puOfStage(0), 1);
}

TEST(Optimizer, CandidateCountRespectsK)
{
    const auto soc = platform::jetsonOrinNano();
    ProfilingTable table({"a", "b", "c"}, {"cpu", "gpu"});
    for (int s = 0; s < 3; ++s)
        for (int p = 0; p < 2; ++p)
            table.set(s, p, 1.0 + s * 0.5 + p * 0.25);
    PlannerSpec cfg;
    cfg.numCandidates = 5;
    Optimizer opt(soc, table, cfg);
    EXPECT_LE(opt.optimize().size(), 5u);
}

TEST(Optimizer, ExhaustsSpaceWhenKExceedsIt)
{
    const auto soc = platform::jetsonOrinNano(); // 2 PUs
    ProfilingTable table({"a", "b"}, {"cpu", "gpu"});
    for (int s = 0; s < 2; ++s)
        for (int p = 0; p < 2; ++p)
            table.set(s, p, 1.0 + s + p);
    PlannerSpec cfg;
    cfg.numCandidates = 50;
    cfg.utilizationFilter = false;
    Optimizer opt(soc, table, cfg);
    // 2 stages, 2 PUs: 2 single-chunk + 2 two-chunk = 4 schedules.
    EXPECT_EQ(opt.optimize().size(), 4u);
}

TEST_F(ProfiledPixel, EvaluatorChunkTimesBitIdenticalToRangeTime)
{
    const auto& table = result.interference;
    ScheduleEvaluator eval(soc, table, *model);
    for (int first = 0; first < table.numStages(); ++first)
        for (int last = first; last < table.numStages(); ++last)
            for (int p = 0; p < table.numPus(); ++p)
                EXPECT_EQ(eval.chunkTime(first, last, p),
                          table.rangeTime(first, last, p))
                    << "chunk [" << first << ", " << last << "] on "
                    << p;
}

/**
 * From-scratch predicted per-task energy of @p s: each used PU is
 * active for its chunk time (duty-cycled against the bottleneck
 * interval) and idle for the rest, unused PUs idle throughout, plus
 * the uncore floor. The evaluator must reproduce it bit for bit.
 */
double
scratchEnergyJ(const platform::SocDescription& soc,
               const platform::PerfModel& model,
               const ProfilingTable& table, const Schedule& s)
{
    const double interval = s.bottleneckTime(table);
    const int busy_others = s.numChunks() - 1;
    double energy = soc.basePowerW * interval;
    std::vector<bool> used(static_cast<std::size_t>(soc.numPus()),
                           false);
    for (int ch = 0; ch < s.numChunks(); ++ch) {
        const int pu = s.chunks()[static_cast<std::size_t>(ch)].pu;
        used[static_cast<std::size_t>(pu)] = true;
        const double active = s.chunkTime(table, ch);
        energy += active * model.activePowerW(pu, busy_others)
            + std::max(0.0, interval - active) * soc.pu(pu).idlePowerW;
    }
    for (int p = 0; p < soc.numPus(); ++p)
        if (!used[static_cast<std::size_t>(p)])
            energy += interval * soc.pu(p).idlePowerW;
    return energy;
}

/** From-scratch aggregate demand of @p s: per chunk, the hungriest
 *  stage; summed over chunks. */
std::int64_t
scratchDemandMilli(const platform::ContentionProfile& profile,
                   const Schedule& s)
{
    std::int64_t demand = 0;
    for (const auto& chunk : s.chunks()) {
        std::int64_t d = 0;
        for (int i = chunk.firstStage; i <= chunk.lastStage; ++i)
            d = std::max(d, profile.demandMilli(i, chunk.pu));
        demand += d;
    }
    return demand;
}

TEST_F(ProfiledPixel, EvaluatorBitIdenticalOverAllSchedules)
{
    const auto& table = result.interference;
    ScheduleEvaluator eval(soc, table, *model, &result.contention);
    const auto all
        = enumerateSchedules(app->numStages(), soc.numPus());
    for (const auto& s : all) {
        const Prediction p = eval.evaluate(s.chunks());
        EXPECT_EQ(p.latency, s.bottleneckTime(table));
        EXPECT_EQ(p.gapness, s.gapness(table));
        EXPECT_EQ(p.numChunks, s.numChunks());
        EXPECT_EQ(p.energyJ, scratchEnergyJ(soc, *model, table, s))
            << s.compactString();
        EXPECT_EQ(p.demandMilli, scratchDemandMilli(result.contention, s))
            << s.compactString();
    }
}

/** A plan over a shared, already used evaluator must agree bit-for-bit
 *  with a cold one: same candidates, same predicted numbers, same
 *  stats, counters included. The warm run shares an evaluator that a
 *  default-spec plan under the same engine rule has already used. */
void
expectSamePlan(const platform::SocDescription& soc,
               const platform::PerfModel& model,
               const ProfilingTable& table, PlannerSpec cfg)
{
    Optimizer cold(soc, table, cfg);
    const auto a = cold.optimize();

    ScheduleEvaluator eval(soc, table, model);
    PlannerSpec warmup;
    warmup.exactSpaceLimit = cfg.exactSpaceLimit;
    warmup.sharedEvaluator = &eval;
    Optimizer(soc, table, warmup).optimize();
    cfg.sharedEvaluator = &eval;
    Optimizer warm(soc, table, cfg);
    const auto b = warm.optimize();

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].schedule.toAssignment(),
                  b[i].schedule.toAssignment());
        EXPECT_EQ(a[i].predictedLatency, b[i].predictedLatency);
        EXPECT_EQ(a[i].predictedGapness, b[i].predictedGapness);
        EXPECT_EQ(a[i].predictedEnergyJ, b[i].predictedEnergyJ);
    }
    const OptimizeStats& c = cold.stats();
    const OptimizeStats& w = warm.stats();
    EXPECT_EQ(c.engine, w.engine);
    EXPECT_EQ(c.spaceSize, w.spaceSize);
    EXPECT_EQ(c.unrestrictedLatency, w.unrestrictedLatency);
    EXPECT_EQ(c.latencyBound, w.latencyBound);
    EXPECT_EQ(c.requiredPus, w.requiredPus);
    EXPECT_EQ(c.minimalGapness, w.minimalGapness);
    EXPECT_EQ(c.gapnessBound, w.gapnessBound);
    EXPECT_EQ(c.solverNodes, w.solverNodes);
    EXPECT_EQ(c.candidatesWithinBound, w.candidatesWithinBound);
    EXPECT_EQ(c.demandBudgetGbps, w.demandBudgetGbps);
    EXPECT_EQ(c.c6Relaxed, w.c6Relaxed);
    EXPECT_EQ(c.evalHits, w.evalHits);
    EXPECT_EQ(c.evalMisses, w.evalMisses);
    EXPECT_EQ(c.annealProposed, w.annealProposed);
    EXPECT_EQ(c.annealAccepted, w.annealAccepted);
    EXPECT_EQ(c.annealFiltered, w.annealFiltered);
    EXPECT_EQ(c.annealDistinct, w.annealDistinct);
    EXPECT_EQ(c.annealChains, w.annealChains);
}

TEST_F(ProfiledPixel, MemoizedExhaustivePlanBitIdentical)
{
    expectSamePlan(soc, *model, result.interference, PlannerSpec{});
}

TEST_F(ProfiledPixel, MemoizedEnergyDelayPlanBitIdentical)
{
    PlannerSpec cfg;
    cfg.objective = PlannerSpec::Objective::EnergyDelay;
    expectSamePlan(soc, *model, result.interference, cfg);
}

TEST_F(ProfiledPixel, MemoizedReplanShapeBitIdentical)
{
    // The graceful-degradation configuration: one candidate on a
    // restricted PU set.
    PlannerSpec cfg;
    cfg.numCandidates = 1;
    cfg.allowedPus = {0, 1, 2};
    expectSamePlan(soc, *model, result.interference, cfg);
}

TEST_F(ProfiledPixel, MemoizedAnnealedSweepPlanBitIdentical)
{
    // exactSpaceLimit 0 always anneals; the space fits the move budget,
    // so the annealer sweeps it into its pool.
    PlannerSpec cfg;
    cfg.exactSpaceLimit = 0;
    expectSamePlan(soc, *model, result.interference, cfg);
}

TEST_F(ProfiledPixel, SharedEvaluatorServesSecondOptimizerFromCache)
{
    const auto& table = result.interference;
    ScheduleEvaluator eval(soc, table, *model);
    PlannerSpec cfg;
    cfg.numCandidates = 1;
    cfg.sharedEvaluator = &eval;

    Optimizer first(soc, table, cfg);
    ASSERT_FALSE(first.optimize().empty());

    cfg.allowedPus = {0, 1, 2}; // a replan against the same table
    Optimizer second(soc, table, cfg);
    const auto plan_b = second.optimize();
    ASSERT_FALSE(plan_b.empty());
    for (const auto& chunk : plan_b.front().schedule.chunks())
        EXPECT_LE(chunk.pu, 2);
    // The shared chunk tables score the replan exactly as a private
    // evaluator would.
    cfg.sharedEvaluator = nullptr;
    const auto cold = Optimizer(soc, table, cfg).optimize();
    ASSERT_EQ(cold.size(), plan_b.size());
    EXPECT_EQ(cold.front().schedule.toAssignment(),
              plan_b.front().schedule.toAssignment());
    EXPECT_EQ(cold.front().predictedLatency,
              plan_b.front().predictedLatency);
    EXPECT_EQ(cold.front().predictedEnergyJ,
              plan_b.front().predictedEnergyJ);
}

// ---------------------------------------------------------------------
// Trace independence: measurement runs record no trace, and recording
// one never changes a number the planning path keeps.

/** Bit pattern of @p x, so EXPECT_EQ compares doubles byte for byte. */
std::uint64_t
bitsOf(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

TEST_F(ProfiledPixel, TuningReportIsIdenticalWithAndWithoutTraceConfig)
{
    Optimizer optimizer(soc, result.interference);
    const auto candidates = optimizer.optimize();
    ASSERT_GT(candidates.size(), 1u);

    runtime::RunConfig traced;
    traced.recordTrace = true;
    traced.sessionId = 3;
    runtime::RunConfig plain = traced;
    plain.recordTrace = false;
    const SimExecutor traced_exec(*model, traced);
    const SimExecutor plain_exec(*model, plain);
    const TuningReport a = AutoTuner(traced_exec).tune(*app, candidates);
    const TuningReport b = AutoTuner(plain_exec).tune(*app, candidates);

    ASSERT_EQ(a.all.size(), b.all.size());
    EXPECT_EQ(a.bestIndex, b.bestIndex);
    EXPECT_EQ(bitsOf(a.campaignCostSeconds), bitsOf(b.campaignCostSeconds));
    for (std::size_t i = 0; i < a.all.size(); ++i) {
        EXPECT_EQ(a.all[i].rankPredicted, b.all[i].rankPredicted) << i;
        EXPECT_EQ(a.all[i].candidate.schedule.toAssignment(),
                  b.all[i].candidate.schedule.toAssignment())
            << i;
        EXPECT_EQ(bitsOf(a.all[i].measuredLatency),
                  bitsOf(b.all[i].measuredLatency))
            << i;
    }
}

TEST_F(ProfiledPixel, MeasureIsExecuteWithoutTheTrace)
{
    runtime::RunConfig cfg;
    cfg.recordTrace = true;
    const SimExecutor executor(*model, cfg);
    const Schedule s = Schedule::fromAssignment(
        {0, 0, 1, 1, 2, 2, 3, 3, 3});
    ASSERT_EQ(s.numStages(), app->numStages());

    const runtime::RunResult traced = executor.execute(*app, s);
    const runtime::RunResult measured = executor.measure(*app, s);
    EXPECT_FALSE(traced.trace.empty());
    EXPECT_TRUE(measured.trace.empty());
    EXPECT_EQ(measured.tasks, traced.tasks);
    EXPECT_EQ(bitsOf(measured.makespanSeconds),
              bitsOf(traced.makespanSeconds));
    EXPECT_EQ(bitsOf(measured.taskIntervalSeconds),
              bitsOf(traced.taskIntervalSeconds));
    EXPECT_EQ(bitsOf(measured.meanLatencySeconds),
              bitsOf(traced.meanLatencySeconds));
    EXPECT_EQ(bitsOf(measured.energyJoules), bitsOf(traced.energyJoules));
    ASSERT_EQ(measured.chunkBusyFraction.size(),
              traced.chunkBusyFraction.size());
    for (std::size_t c = 0; c < traced.chunkBusyFraction.size(); ++c)
        EXPECT_EQ(bitsOf(measured.chunkBusyFraction[c]),
                  bitsOf(traced.chunkBusyFraction[c]))
            << c;
}

// ---------------------------------------------------------------------
// Oracle: the exact planner against a reference that shares none of
// Optimizer's selection code.

/** One admissible schedule of the reference, with its prediction. */
struct OracleEntry
{
    std::vector<int> assign;
    Prediction pred;
};

/** The reference plan: level-1 bounds and the K picked candidates. */
struct OraclePlan
{
    double unrestrictedLatency = 0.0;
    double latencyBound = std::numeric_limits<double>::infinity();
    int requiredPus = 1;
    double minimalGapness = 0.0;
    double gapnessBound = std::numeric_limits<double>::infinity();
    int candidatesWithinBound = 0;
    std::size_t admitted = 0; ///< pool size after allowedPus and C6
    std::vector<OracleEntry> picked;
};

/**
 * The planner's contract, written out independently of
 * Optimizer::selectDiverse and of ScheduleEvaluator: the DPLL solver
 * enumerates the C1/C2 space over the allowed PUs, C6 keeps the
 * assignments whose integer aggregate demand fits the budget, each is
 * scored from scratch (Schedule's folds over the table, stretched cell
 * by cell under an ambient bucket, and scratchEnergyJ), the level-1
 * bounds are derived over that pool, and level 2
 * picks K candidates by K argmin passes over (class, score, assignment)
 * tuples. A pick saturating its bottleneck tier blocks every
 * assignment placing the tier's stage range on the tier's PU.
 */
OraclePlan
oraclePlan(const platform::SocDescription& soc,
           const platform::PerfModel& model, const ProfilingTable& table,
           const PlannerSpec& spec)
{
    const platform::ContentionProfile* profile = spec.contentionProfile;
    const int bucket = profile != nullptr
        ? model.contention().bucketOf(spec.contention.ambientGbps)
        : 0;
    const std::int64_t budget = profile != nullptr
        ? platform::ContentionModel::milliGbps(spec.contention.budgetGbps)
        : 0;
    // Chunk times as the planner sees them: the base cells, stretched
    // by the ambient bucket's slowdown.
    ProfilingTable stretched(table.stages(), table.pus());
    if (bucket > 0)
        for (int s = 0; s < table.numStages(); ++s)
            for (int p = 0; p < table.numPus(); ++p)
                stretched.set(s, p,
                              table.at(s, p)
                                  * profile->stretch(s, p, bucket));
    const ProfilingTable& scoring = bucket > 0 ? stretched : table;

    std::vector<OracleEntry> pool;
    for (auto& assign : solverAssignments(table.numStages(), soc.numPus(),
                                          spec.allowedPus)) {
        const std::int64_t demand
            = profile != nullptr ? profile->aggregateDemandMilli(assign)
                                 : 0;
        if (budget > 0 && demand > budget)
            continue;
        const Schedule s = Schedule::fromAssignment(assign);
        Prediction pred;
        pred.latency = s.bottleneckTime(scoring);
        pred.gapness = s.gapness(scoring);
        pred.energyJ = scratchEnergyJ(soc, model, scoring, s);
        pred.numChunks = s.numChunks();
        pred.demandMilli = demand;
        pred.demandGbps = static_cast<double>(demand) / 1000.0;
        pool.push_back({std::move(assign), pred});
    }

    OraclePlan plan;
    plan.admitted = pool.size();
    plan.unrestrictedLatency = std::numeric_limits<double>::infinity();
    for (const auto& e : pool)
        plan.unrestrictedLatency
            = std::min(plan.unrestrictedLatency, e.pred.latency);
    if (spec.utilizationFilter) {
        plan.latencyBound = plan.unrestrictedLatency
                * (1.0 + spec.latencySlack)
            + 1e-12;
        for (const auto& e : pool)
            if (e.pred.latency <= plan.latencyBound)
                plan.requiredPus
                    = std::max(plan.requiredPus, e.pred.numChunks);
        plan.minimalGapness = std::numeric_limits<double>::infinity();
        for (const auto& e : pool)
            if (e.pred.latency <= plan.latencyBound
                && e.pred.numChunks >= plan.requiredPus)
                plan.minimalGapness
                    = std::min(plan.minimalGapness, e.pred.gapness);
        plan.gapnessBound = plan.minimalGapness
                * (1.0 + spec.gapnessSlack)
            + 1e-9;
    }

    const auto classOf = [&](const Prediction& p) {
        if (!spec.utilizationFilter)
            return 0;
        if (p.latency > plan.latencyBound + 1e-12
            || p.numChunks < plan.requiredPus)
            return 2;
        return p.gapness > plan.gapnessBound + 1e-12 ? 1 : 0;
    };
    const auto scoreOf = [&](const Prediction& p) {
        return spec.objective == PlannerSpec::Objective::EnergyDelay
            ? p.energyJ * p.latency
            : p.latency;
    };

    using Tier = std::tuple<int, int, int>; // first, last, pu
    std::vector<Tier> blocked;
    std::map<Tier, int> tier_count;
    std::vector<bool> taken(pool.size(), false);
    const auto isBlocked = [&](const std::vector<int>& a) {
        for (const auto& [first, last, pu] : blocked) {
            bool covered = true;
            for (int i = first; i <= last; ++i)
                covered = covered && a[static_cast<std::size_t>(i)] == pu;
            if (covered)
                return true;
        }
        return false;
    };
    for (int k = 0; k < spec.numCandidates; ++k) {
        std::size_t best = pool.size();
        for (std::size_t i = 0; i < pool.size(); ++i) {
            if (taken[i] || isBlocked(pool[i].assign))
                continue;
            if (best == pool.size()
                || std::tuple(classOf(pool[i].pred), scoreOf(pool[i].pred),
                              pool[i].assign)
                    < std::tuple(classOf(pool[best].pred),
                                 scoreOf(pool[best].pred),
                                 pool[best].assign))
                best = i;
        }
        if (best == pool.size())
            break;
        taken[best] = true;
        const OracleEntry& pick = pool[best];
        plan.picked.push_back(pick);
        if (classOf(pick.pred) == 0)
            ++plan.candidatesWithinBound;
        // The bottleneck chunk: the first chunk of maximal time.
        Tier tier{};
        double worst = -1.0;
        const int n = static_cast<int>(pick.assign.size());
        for (int first = 0; first < n;) {
            const int pu = pick.assign[static_cast<std::size_t>(first)];
            int last = first;
            while (last + 1 < n
                   && pick.assign[static_cast<std::size_t>(last + 1)]
                       == pu)
                ++last;
            const double t = scoring.rangeTime(first, last, pu);
            if (t > worst) {
                worst = t;
                tier = {first, last, pu};
            }
            first = last + 1;
        }
        if (++tier_count[tier] >= PlannerSpec::kMaxPerTier)
            blocked.push_back(tier);
    }
    return plan;
}

/** One configuration of the oracle matrix. */
struct OracleCase
{
    const char* name;
    platform::SocDescription (*device)();
    Application (*app)();
    PlannerSpec spec;
    bool c6 = false; ///< budget 5 GB/s under 5 GB/s ambient load
    bool ambient = false; ///< 5 GB/s ambient load, no budget
};

/** gtest prints a failing case by its name, not its bytes. */
void
PrintTo(const OracleCase& c, std::ostream* os)
{
    *os << c.name;
}

PlannerSpec
objectiveSpec(PlannerSpec::Objective objective)
{
    PlannerSpec spec;
    spec.objective = objective;
    return spec;
}

PlannerSpec
latencyOnlySpec()
{
    PlannerSpec spec;
    spec.utilizationFilter = false;
    return spec;
}

PlannerSpec
replanSpec()
{
    PlannerSpec spec;
    spec.numCandidates = 1;
    spec.allowedPus = {0, 2, 3};
    return spec;
}

class ExactPlannerOracle : public ::testing::TestWithParam<OracleCase>
{
};

TEST_P(ExactPlannerOracle, MatchesSolverReferenceByteForByte)
{
    const OracleCase& param = GetParam();
    const auto soc = param.device();
    const platform::PerfModel model(soc);
    const Application app = param.app();
    const ProfileResult profile = Profiler(model).profile(app);
    const ProfilingTable& table = profile.interference;
    PlannerSpec spec = param.spec;
    if (param.c6 || param.ambient) {
        spec.contention.ambientGbps = 5.0;
        spec.contentionProfile = &profile.contention;
    }
    if (param.c6)
        spec.contention.budgetGbps = 5.0;
    if (param.ambient) { // predictions must come from a stretched table
        EXPECT_GT(model.contention().bucketOf(5.0), 0);
    }

    Optimizer opt(soc, table, spec);
    const auto got = opt.optimize();
    const OraclePlan want = oraclePlan(soc, model, table, spec);
    const auto& st = opt.stats();
    EXPECT_FALSE(st.c6Relaxed);
    if (param.c6) { // the budget must actually cut the space
        EXPECT_LT(want.admitted, st.spaceSize);
    }

    ASSERT_EQ(got.size(), want.picked.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        const Prediction& p = want.picked[i].pred;
        EXPECT_EQ(got[i].schedule.toAssignment(), want.picked[i].assign)
            << "rank " << i << ": " << got[i].schedule.compactString();
        EXPECT_EQ(got[i].predictedLatency, p.latency) << "rank " << i;
        EXPECT_EQ(got[i].predictedGapness, p.gapness) << "rank " << i;
        EXPECT_EQ(got[i].predictedEnergyJ, p.energyJ) << "rank " << i;
        EXPECT_EQ(got[i].predictedDemandGbps, p.demandGbps)
            << "rank " << i;
    }
    EXPECT_EQ(st.unrestrictedLatency, want.unrestrictedLatency);
    EXPECT_EQ(st.latencyBound, want.latencyBound);
    EXPECT_EQ(st.requiredPus, want.requiredPus);
    EXPECT_EQ(st.minimalGapness, want.minimalGapness);
    EXPECT_EQ(st.gapnessBound, want.gapnessBound);
    EXPECT_EQ(st.candidatesWithinBound, want.candidatesWithinBound);
}

std::string
oracleCaseName(const ::testing::TestParamInfo<OracleCase>& param)
{
    return param.param.name;
}

using Obj = PlannerSpec::Objective;
Application denseApp() { return apps::alexnetDense(); }
Application sparseApp() { return apps::alexnetSparse(); }
Application octree() { return apps::octreeApp(); }

/** 17 synthetic stages: one more than a 4-bit-per-stage key packs. */
Application
seventeenStages()
{
    Application app("Seventeen", "buffer", "synthetic 17-stage chain");
    for (int i = 0; i < 17; ++i) {
        platform::WorkProfile w;
        w.flops = 1e5 * (1 + (i * 7) % 11);
        w.bytes = 4e4 * (1 + (i * 5) % 13);
        w.parallelFraction = i % 3 == 0 ? 0.6 : 1.0;
        w.pattern = i % 2 == 0 ? platform::Pattern::Dense
                               : platform::Pattern::Irregular;
        app.addStage(Stage("s" + std::to_string(i), w,
                           [](KernelCtx&) {}, nullptr));
    }
    return app;
}

INSTANTIATE_TEST_SUITE_P(
    Pixel, ExactPlannerOracle,
    ::testing::Values(
        OracleCase{"Dense_Latency", platform::pixel7a, denseApp,
                   objectiveSpec(Obj::Latency)},
        OracleCase{"Dense_EnergyDelay", platform::pixel7a, denseApp,
                   objectiveSpec(Obj::EnergyDelay)},
        OracleCase{"Sparse_Latency", platform::pixel7a, sparseApp,
                   objectiveSpec(Obj::Latency)},
        OracleCase{"Sparse_EnergyDelay", platform::pixel7a, sparseApp,
                   objectiveSpec(Obj::EnergyDelay)},
        OracleCase{"Octree_Latency", platform::pixel7a, octree,
                   objectiveSpec(Obj::Latency)},
        OracleCase{"Octree_EnergyDelay", platform::pixel7a, octree,
                   objectiveSpec(Obj::EnergyDelay)},
        OracleCase{"Dense_NoUtilizationFilter", platform::pixel7a,
                   denseApp, latencyOnlySpec()},
        OracleCase{"Sparse_NoUtilizationFilter", platform::pixel7a,
                   sparseApp, latencyOnlySpec()},
        OracleCase{"Octree_NoUtilizationFilter", platform::pixel7a,
                   octree, latencyOnlySpec()},
        OracleCase{"Dense_Replan", platform::pixel7a, denseApp,
                   replanSpec()},
        OracleCase{"Sparse_Replan", platform::pixel7a, sparseApp,
                   replanSpec()},
        OracleCase{"Octree_Replan", platform::pixel7a, octree,
                   replanSpec()}),
    oracleCaseName);

INSTANTIATE_TEST_SUITE_P(
    OnePlus, ExactPlannerOracle,
    ::testing::Values(OracleCase{"Sparse_Latency", platform::oneplus11,
                                 sparseApp, PlannerSpec{}}),
    oracleCaseName);

// Both Jetson rigs have two PU classes: 18 schedules of a 9-stage app,
// fewer than K = 20, so the selection runs out of records.
INSTANTIATE_TEST_SUITE_P(
    Jetson, ExactPlannerOracle,
    ::testing::Values(
        OracleCase{"OrinNano_Dense", platform::jetsonOrinNano, denseApp,
                   PlannerSpec{}},
        OracleCase{"OrinNanoLp_Dense", platform::jetsonOrinNanoLp,
                   denseApp, PlannerSpec{}},
        OracleCase{"OrinNano_Seventeen", platform::jetsonOrinNano,
                   seventeenStages, PlannerSpec{}}),
    oracleCaseName);

INSTANTIATE_TEST_SUITE_P(
    ContentionRig, ExactPlannerOracle,
    ::testing::Values(OracleCase{"MemHeavy_C6", platform::contentionRig,
                                 fixtures::memHeavy, PlannerSpec{},
                                 true},
                      OracleCase{"MemHeavy_Ambient",
                                 platform::contentionRig,
                                 fixtures::memHeavy, PlannerSpec{},
                                 false, true}),
    oracleCaseName);

} // namespace
} // namespace bt::core
