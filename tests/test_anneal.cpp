/**
 * @file
 * Tests for the annealed planning engine and the PlannerSpec API:
 * closed-form schedule-space sizing, annealed-vs-exact cross-validation
 * on every enumerable instance, seed determinism (including autotuner
 * thread-count invariance), fingerprint coverage of the annealing
 * knobs, the exact engine's large-instance refusal, and bt::Service's
 * annealed fallback for large tenants.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "apps/alexnet.hpp"
#include "apps/octree_app.hpp"
#include "bench/common/bench_util.hpp"
#include "core/autotuner.hpp"
#include "core/optimizer.hpp"
#include "core/profiler.hpp"
#include "core/schedule.hpp"
#include "core/sim_executor.hpp"
#include "platform/devices.hpp"
#include "service/schedule_cache.hpp"
#include "service/service.hpp"

namespace bt::core {
namespace {

// ---------------------------------------------------------------------
// scheduleSpaceSize: the exact engine's refusal predicate.

TEST(ScheduleSpaceSize, MatchesEnumerationOnSmallSpaces)
{
    for (int n = 1; n <= 9; ++n)
        for (int m = 1; m <= 4; ++m)
            EXPECT_EQ(scheduleSpaceSize(n, m), countSchedules(n, m))
                << n << " stages, " << m << " PUs";
    EXPECT_EQ(scheduleSpaceSize(5, 5), countSchedules(5, 5));
    EXPECT_EQ(scheduleSpaceSize(6, 6), countSchedules(6, 6));
}

TEST(ScheduleSpaceSize, KnownValues)
{
    EXPECT_EQ(scheduleSpaceSize(9, 4), 2116u);
    // The large-instance tier: 14 stages on 8 PU classes.
    EXPECT_EQ(scheduleSpaceSize(14, 8), 169636384u);
}

TEST(ScheduleSpaceSize, SaturatesInsteadOfOverflowing)
{
    const auto sat = std::numeric_limits<std::uint64_t>::max();
    EXPECT_EQ(scheduleSpaceSize(64, 16), sat);
    EXPECT_EQ(scheduleSpaceSize(200, 16), sat);
}

TEST(PlannerEngineNames, RoundTrip)
{
    EXPECT_STREQ(plannerEngineName(PlannerEngine::Exhaustive),
                 "exhaustive");
    EXPECT_STREQ(plannerEngineName(PlannerEngine::Annealed),
                 "annealed");
    EXPECT_EQ(plannerEngineFromName("exhaustive"),
              PlannerEngine::Exhaustive);
    EXPECT_EQ(plannerEngineFromName("annealed"),
              PlannerEngine::Annealed);
    // Retired names are unknown like any other.
    for (const char* name : {"solver", "constraint_solver", "bogus"})
        EXPECT_DEATH_IF_SUPPORTED(
            (void)plannerEngineFromName(name),
            "unknown planner engine.*expected exhaustive.annealed");
}

// ---------------------------------------------------------------------
// Cross-validation: annealed vs exact on enumerable instances.

/** Front-candidate cost under the configured ranking objective. */
double
frontCost(const Candidate& c, const PlannerSpec& spec)
{
    switch (spec.objective) {
      case PlannerSpec::Objective::Latency:
        return c.predictedLatency;
      case PlannerSpec::Objective::EnergyDelay:
        return c.predictedEdp();
      case PlannerSpec::Objective::EnergyKDelay:
        return std::pow(c.predictedEnergyJ, spec.energyExponent)
            * c.predictedLatency;
    }
    return c.predictedLatency;
}

/**
 * The acceptance check: on an instance the exact engine can
 * enumerate, the annealed engine's front candidate must be cost-equal
 * to the exact optimum (identical evaluator arithmetic on both sides,
 * so the comparison is bit-exact, not approximate), and the level-1
 * feasibility class must agree.
 */
void
expectAnnealedMatchesExact(
    const platform::SocDescription& soc, const ProfilingTable& table,
    PlannerSpec spec,
    const platform::ContentionProfile* contention = nullptr)
{
    spec.contentionProfile = contention;
    PlannerSpec exact_spec = spec;
    exact_spec.engine = PlannerEngine::Exhaustive;
    PlannerSpec annealed_spec = spec;
    annealed_spec.engine = PlannerEngine::Annealed;

    Optimizer exact_opt(soc, table, exact_spec);
    const auto exact_cands = exact_opt.optimize();
    Optimizer annealed_opt(soc, table, annealed_spec);
    const auto annealed_cands = annealed_opt.optimize();

    ASSERT_FALSE(exact_cands.empty());
    ASSERT_FALSE(annealed_cands.empty());
    EXPECT_EQ(annealed_opt.stats().engine, PlannerEngine::Annealed);
    EXPECT_EQ(annealed_opt.stats().spaceSize,
              exact_opt.stats().spaceSize);
    EXPECT_GT(annealed_opt.stats().annealDistinct, 0);

    // Level-1 agreement: the walk found the same unrestricted optimum
    // and the same utilization class as the exact levels.
    EXPECT_DOUBLE_EQ(annealed_opt.stats().unrestrictedLatency,
                     exact_opt.stats().unrestrictedLatency);
    EXPECT_EQ(annealed_opt.stats().requiredPus,
              exact_opt.stats().requiredPus);

    EXPECT_DOUBLE_EQ(frontCost(annealed_cands.front(), spec),
                     frontCost(exact_cands.front(), spec))
        << "annealed " << annealed_cands.front().schedule.compactString()
        << " vs exact " << exact_cands.front().schedule.compactString();
}

TEST(AnnealedCrossValidation, PixelAlexNetSparse)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::alexnetSparse();
    const auto profile = Profiler(model).profile(app);
    expectAnnealedMatchesExact(soc, profile.interference, {});
}

TEST(AnnealedCrossValidation, PixelAlexNetSparseNoFilter)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::alexnetSparse();
    const auto profile = Profiler(model).profile(app);
    PlannerSpec spec;
    spec.utilizationFilter = false;
    expectAnnealedMatchesExact(soc, profile.interference, spec);
}

TEST(AnnealedCrossValidation, PixelAlexNetSparseEnergyObjectives)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::alexnetSparse();
    const auto profile = Profiler(model).profile(app);
    PlannerSpec edp;
    edp.objective = PlannerSpec::Objective::EnergyDelay;
    expectAnnealedMatchesExact(soc, profile.interference, edp);

    PlannerSpec ekd;
    ekd.objective = PlannerSpec::Objective::EnergyKDelay;
    ekd.energyExponent = 2.0;
    expectAnnealedMatchesExact(soc, profile.interference, ekd);
}

TEST(AnnealedCrossValidation, PixelOctree)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::octreeApp();
    const auto profile = Profiler(model).profile(app);
    expectAnnealedMatchesExact(soc, profile.interference, {});
}

TEST(AnnealedCrossValidation, JetsonAlexNetSparse)
{
    const auto soc = platform::jetsonOrinNano();
    const platform::PerfModel model(soc);
    const auto app = apps::alexnetSparse();
    const auto profile = Profiler(model).profile(app);
    expectAnnealedMatchesExact(soc, profile.interference, {});
}

TEST(AnnealedCrossValidation, ContentionRigWithC6Budget)
{
    const auto soc = platform::contentionRig();
    const platform::PerfModel model(soc);
    const auto app = apps::alexnetSparse();
    const auto profile = Profiler(model).profile(app);

    PlannerSpec spec;
    spec.contention.budgetGbps = 5.0;
    expectAnnealedMatchesExact(soc, profile.interference, spec,
                               &profile.contention);

    // And the annealed candidates all honor the budget.
    spec.engine = PlannerEngine::Annealed;
    spec.contentionProfile = &profile.contention;
    Optimizer opt(soc, profile.interference, spec);
    for (const auto& c : opt.optimize())
        EXPECT_LE(c.predictedDemandGbps, 5.0 + 1e-9)
            << c.schedule.compactString();
    EXPECT_FALSE(opt.stats().c6Relaxed);
    EXPECT_GT(opt.stats().annealFiltered, 0);
}

TEST(AnnealedCrossValidation, RestrictedPuSet)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::alexnetSparse();
    const auto profile = Profiler(model).profile(app);

    PlannerSpec spec;
    spec.allowedPus = {0, 1, 2};
    expectAnnealedMatchesExact(soc, profile.interference, spec);

    spec.engine = PlannerEngine::Annealed;
    Optimizer opt(soc, profile.interference, spec);
    for (const auto& c : opt.optimize())
        for (const auto& chunk : c.schedule.chunks())
            EXPECT_LE(chunk.pu, 2);
}

// ---------------------------------------------------------------------
// Determinism.

TEST(AnnealedDeterminism, SameSeedSameSchedulesByteForByte)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::alexnetSparse();
    const auto profile = Profiler(model).profile(app);

    PlannerSpec spec;
    spec.engine = PlannerEngine::Annealed;

    Optimizer first(soc, profile.interference, spec);
    const auto a = first.optimize();
    Optimizer second(soc, profile.interference, spec);
    const auto b = second.optimize();

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].schedule.toAssignment(),
                  b[i].schedule.toAssignment())
            << "rank " << i;
        EXPECT_EQ(a[i].predictedLatency, b[i].predictedLatency);
        EXPECT_EQ(a[i].predictedGapness, b[i].predictedGapness);
        EXPECT_EQ(a[i].predictedEnergyJ, b[i].predictedEnergyJ);
    }
    EXPECT_EQ(first.stats().annealProposed,
              second.stats().annealProposed);
    EXPECT_EQ(first.stats().annealAccepted,
              second.stats().annealAccepted);
    EXPECT_EQ(first.stats().annealDistinct,
              second.stats().annealDistinct);
}

TEST(AnnealedDeterminism, AutotunerReportInvariantAcrossThreadCounts)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::alexnetSparse();
    const auto profile = Profiler(model).profile(app);
    const SimExecutor executor(model);

    PlannerSpec spec;
    AnnealCampaign campaign; // default: 4 seeds, 1 temperature

    std::vector<TuningReport> reports;
    for (const int threads : {1, 2, 8}) {
        const AutoTuner tuner(executor, 10.0, threads);
        reports.push_back(tuner.tuneAnnealed(
            app, soc, profile.interference, spec, campaign));
    }
    const TuningReport& serial = reports.front();
    ASSERT_FALSE(serial.all.empty());
    for (const TuningReport& r : reports) {
        ASSERT_EQ(r.all.size(), serial.all.size());
        for (std::size_t i = 0; i < r.all.size(); ++i) {
            // Byte-identical: same schedule, same bits of every
            // measured number, same predicted rank.
            EXPECT_EQ(r.all[i].candidate.schedule.toAssignment(),
                      serial.all[i].candidate.schedule.toAssignment());
            EXPECT_EQ(r.all[i].measuredLatency,
                      serial.all[i].measuredLatency);
            EXPECT_EQ(r.all[i].rankPredicted,
                      serial.all[i].rankPredicted);
        }
        EXPECT_EQ(r.bestIndex, serial.bestIndex);
        EXPECT_EQ(r.campaignCostSeconds, serial.campaignCostSeconds);
        EXPECT_NO_THROW((void)r.autotuningGain());
    }
}

// ---------------------------------------------------------------------
// Fingerprint coverage.

TEST(PlannerFingerprint, DefaultValuesPinned)
{
    // Schedule-cache keys embed these values; pinning them keeps keys
    // minted by earlier builds addressable.
    EXPECT_EQ(PlannerSpec{}.fingerprint(), 0xe360348aa1e29e06ull);
    PlannerSpec annealed;
    annealed.engine = PlannerEngine::Annealed;
    EXPECT_EQ(annealed.fingerprint(), 0x715e8858dcb5ddcdull);
}

TEST(PlannerFingerprint, AnnealedEngineAndKnobsAreCovered)
{
    PlannerSpec exact;
    PlannerSpec annealed = exact;
    annealed.engine = PlannerEngine::Annealed;
    EXPECT_NE(exact.fingerprint(), annealed.fingerprint());

    // Every annealing knob matters once the engine is Annealed...
    PlannerSpec seed = annealed;
    seed.anneal.seed ^= 1;
    EXPECT_NE(annealed.fingerprint(), seed.fingerprint());
    PlannerSpec budget = annealed;
    budget.anneal.moveBudget += 1;
    EXPECT_NE(annealed.fingerprint(), budget.fingerprint());
    PlannerSpec restarts = annealed;
    restarts.anneal.restarts += 1;
    EXPECT_NE(annealed.fingerprint(), restarts.fingerprint());
    PlannerSpec temp = annealed;
    temp.anneal.initialTemperature = 0.5;
    EXPECT_NE(annealed.fingerprint(), temp.fingerprint());

    // ...and none of them matter under an exactness-preserving engine.
    PlannerSpec exact_seed = exact;
    exact_seed.anneal.seed ^= 1;
    EXPECT_EQ(exact.fingerprint(), exact_seed.fingerprint());
}

TEST(PlannerFingerprint, SharedPointersAreExcluded)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::alexnetSparse();
    const auto profile = Profiler(model).profile(app);
    ScheduleEvaluator eval(soc, profile.interference, model);

    PlannerSpec base;
    PlannerSpec shared = base;
    shared.sharedEvaluator = &eval;
    shared.contentionProfile = &profile.contention;
    // Sharing never changes results, only cache temperature.
    EXPECT_EQ(base.fingerprint(), shared.fingerprint());
}

TEST(PlannerFingerprint, CacheKeysAnnealedAndExactPlansApart)
{
    // The schedule-cache contract: a key minted for an exact plan can
    // never serve an annealed one, because the fingerprint differs.
    PlannerSpec exact;
    PlannerSpec annealed = exact;
    annealed.engine = PlannerEngine::Annealed;

    service::ScheduleKey exact_key;
    exact_key.app = "tenant";
    exact_key.platform = "rig";
    exact_key.plannerFingerprint = exact.fingerprint();
    service::ScheduleKey annealed_key = exact_key;
    annealed_key.plannerFingerprint = annealed.fingerprint();
    EXPECT_FALSE(exact_key == annealed_key);

    service::ScheduleCache cache(service::ScheduleCacheConfig{});
    service::CachedPlan plan;
    plan.schedule = Schedule::fromAssignment({0, 0, 0});
    cache.insert(exact_key, plan);
    EXPECT_TRUE(cache.lookup(exact_key).has_value());
    EXPECT_FALSE(cache.lookup(annealed_key).has_value());

    // Same seed, same knobs: the annealed key is stable...
    PlannerSpec again = annealed;
    EXPECT_EQ(annealed_key.plannerFingerprint, again.fingerprint());
    // ...and a different seed is a different plan, hence a miss.
    again.anneal.seed ^= 1;
    service::ScheduleKey reseeded = annealed_key;
    reseeded.plannerFingerprint = again.fingerprint();
    cache.insert(annealed_key, plan);
    EXPECT_FALSE(cache.lookup(reseeded).has_value());
}

// ---------------------------------------------------------------------
// Large instances: exact refusal, annealed feasibility.

class LargeInstance : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        soc = platform::manycoreRig();
        table = bench::deepPipelineTable(soc);
        contention = bench::deepPipelineContention(soc, *table);
    }

    platform::SocDescription soc;
    std::optional<ProfilingTable> table;
    platform::ContentionProfile contention;
};

TEST_F(LargeInstance, ExactEnginesRefuse)
{
    EXPECT_GT(scheduleSpaceSize(table->numStages(), soc.numPus()),
              PlannerSpec{}.exactSpaceLimit);
    Optimizer opt(soc, *table, PlannerSpec{});
    EXPECT_DEATH_IF_SUPPORTED((void)opt.optimize(),
                              "exceeds exactSpaceLimit");
}

TEST_F(LargeInstance, LeasedExactPlanEnumeratesOnlyTheAllowedSpace)
{
    // A four-PU lease of the 8-class rig fits the exact limit; the
    // pool is built over the lease alone, never the 1.7e8-schedule
    // full space.
    PlannerSpec spec;
    spec.allowedPus = {0, 2, 4, 6};
    ASSERT_LE(scheduleSpaceSize(table->numStages(), 4),
              spec.exactSpaceLimit);

    Optimizer opt(soc, *table, spec);
    const auto cands = opt.optimize();
    ASSERT_FALSE(cands.empty());
    EXPECT_EQ(opt.stats().solverNodes,
              scheduleSpaceSize(table->numStages(), 4));
    EXPECT_EQ(opt.stats().solverNodes, opt.stats().spaceSize);
    for (const auto& c : cands)
        for (const auto& chunk : c.schedule.chunks())
            EXPECT_EQ(chunk.pu % 2, 0) << c.schedule.compactString();
}

TEST_F(LargeInstance, AnnealedPlansFeasiblyUnderC6)
{
    PlannerSpec spec;
    spec.engine = PlannerEngine::Annealed;
    spec.contention.budgetGbps = soc.mem.dramBwGbps;
    spec.contentionProfile = &contention;

    Optimizer opt(soc, *table, spec);
    const auto cands = opt.optimize();
    ASSERT_FALSE(cands.empty());
    EXPECT_FALSE(opt.stats().c6Relaxed);
    // The walk stayed inside its move budget and the space is recorded.
    EXPECT_GT(opt.stats().annealProposed, 0);
    EXPECT_LE(opt.stats().annealProposed, spec.anneal.moveBudget);
    EXPECT_EQ(opt.stats().spaceSize, 169636384u);
    for (const auto& c : cands) {
        EXPECT_TRUE(c.schedule.valid(table->numStages(), soc.numPus()));
        EXPECT_LE(c.predictedDemandGbps,
                  spec.contention.budgetGbps + 1e-9)
            << c.schedule.compactString();
    }

    // Determinism holds at this scale too.
    Optimizer again(soc, *table, spec);
    const auto b = again.optimize();
    ASSERT_EQ(cands.size(), b.size());
    for (std::size_t i = 0; i < cands.size(); ++i)
        EXPECT_EQ(cands[i].schedule.toAssignment(),
                  b[i].schedule.toAssignment());
}

// ---------------------------------------------------------------------
// bt::Service: large tenants fall back to the annealed engine.

TEST(ServiceAnnealedFallback, LargeTenantAnnealsInsteadOfFailing)
{
    // AlexNet-sparse (9 stages) on the 8-class rig is ~3.16M schedules
    // - beyond the exact limit, so the service must flip the plan to
    // the annealed engine rather than panic or relax C6.
    const auto soc = platform::manycoreRig();
    service::ServiceConfig cfg;
    cfg.workers = 1;
    service::Service service(soc, cfg);
    service.registerApp(apps::alexnetSparse());

    const auto key = service.keyFor("AlexNet-Sparse", 0, 0, 1);
    EXPECT_NE(key.plannerFingerprint, cfg.optimizer.fingerprint());

    const auto plan = service.freshPlan("AlexNet-Sparse", 0, 0, 1);
    EXPECT_TRUE(plan.schedule.valid(9, soc.numPus()));
    const auto report = service.report();
    EXPECT_EQ(report.plannerEngine, "exhaustive"); // the configured one
    EXPECT_GE(report.annealedFallbacks, 1);

    // Disabling the refusal threshold keeps the exact engine, so the
    // two configurations mint different cache keys: an annealed plan
    // can never be served where an exact one was requested.
    service::ServiceConfig unlimited = cfg;
    unlimited.optimizer.exactSpaceLimit = 0;
    service::Service exact_service(soc, unlimited);
    exact_service.registerApp(apps::alexnetSparse());
    const auto exact_key = exact_service.keyFor("AlexNet-Sparse", 0, 0, 1);
    EXPECT_NE(exact_key.plannerFingerprint, key.plannerFingerprint);
}

TEST(ServiceAnnealedFallback, SmallTenantKeepsTheExactEngine)
{
    const auto soc = platform::pixel7a();
    service::ServiceConfig cfg;
    cfg.workers = 1;
    service::Service service(soc, cfg);
    service.registerApp(apps::alexnetSparse());

    const auto plan = service.freshPlan("AlexNet-Sparse", 0, 0, 1);
    EXPECT_TRUE(plan.schedule.valid(9, soc.numPus()));
    const auto report = service.report();
    EXPECT_EQ(report.plannerEngine, "exhaustive");
    EXPECT_EQ(report.annealedFallbacks, 0);
}

} // namespace
} // namespace bt::core
