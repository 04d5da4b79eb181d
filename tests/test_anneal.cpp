/**
 * @file
 * Tests for the annealed planning engine and the PlannerSpec API:
 * closed-form schedule-space sizing, annealed-vs-exact cross-validation
 * on every enumerable instance, seed determinism (including autotuner
 * thread-count invariance), fingerprint coverage of the annealing
 * knobs and the engine rule, the rule's choice on large instances, and
 * bt::Service annealing large tenants.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <optional>
#include <string>
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
// scheduleSpaceSize: the input of the planner's engine rule.

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
    }
    return c.predictedLatency;
}

/** @p spec with the engine rule forced to @p engine at any size. */
PlannerSpec
forcing(PlannerSpec spec, PlannerEngine engine)
{
    spec.exactSpaceLimit = engine == PlannerEngine::Annealed
        ? 0
        : std::numeric_limits<std::uint64_t>::max();
    return spec;
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
    Optimizer exact_opt(soc, table,
                        forcing(spec, PlannerEngine::Exhaustive));
    const auto exact_cands = exact_opt.optimize();
    Optimizer annealed_opt(soc, table,
                           forcing(spec, PlannerEngine::Annealed));
    const auto annealed_cands = annealed_opt.optimize();

    ASSERT_FALSE(exact_cands.empty());
    ASSERT_FALSE(annealed_cands.empty());
    EXPECT_EQ(exact_opt.stats().engine, PlannerEngine::Exhaustive);
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
    spec.contentionProfile = &profile.contention;
    Optimizer opt(soc, profile.interference,
                  forcing(spec, PlannerEngine::Annealed));
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

    Optimizer opt(soc, profile.interference,
                  forcing(spec, PlannerEngine::Annealed));
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

    const PlannerSpec spec = forcing({}, PlannerEngine::Annealed);

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

    // A seed campaign: plan once per annealing seed and keep each
    // plan's front candidate, deduplicated by assignment in first-seen
    // order, then measure the champions at every thread count.
    std::vector<Candidate> champions;
    for (const std::uint64_t seed : {1, 2, 3, 4}) {
        PlannerSpec spec = forcing({}, PlannerEngine::Annealed);
        spec.anneal.seed = seed;
        Optimizer optimizer(soc, profile.interference, spec);
        const auto cands = optimizer.optimize();
        ASSERT_FALSE(cands.empty());
        const auto assign = cands.front().schedule.toAssignment();
        if (std::none_of(champions.begin(), champions.end(),
                         [&](const Candidate& c) {
                             return c.schedule.toAssignment() == assign;
                         }))
            champions.push_back(cands.front());
    }

    std::vector<TuningReport> reports;
    for (const int threads : {1, 2, 8}) {
        const AutoTuner tuner(executor, 10.0, threads);
        reports.push_back(tuner.tune(app, champions));
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
    EXPECT_EQ(PlannerSpec{}.fingerprint(), 0xd159fde0ea9a57f3ull);
    EXPECT_EQ(forcing({}, PlannerEngine::Annealed).fingerprint(),
              0xe08da4bc836bea5bull);
}

TEST(PlannerFingerprint, AnnealedEngineAndKnobsAreCovered)
{
    // Every annealing knob and the engine rule's limit change the
    // fingerprint, for every spec: whether they matter depends on the
    // schedule space, which the rest of a cache key fixes.
    const PlannerSpec base;
    PlannerSpec limit = base;
    limit.exactSpaceLimit = 0;
    EXPECT_NE(base.fingerprint(), limit.fingerprint());
    PlannerSpec seed = base;
    seed.anneal.seed ^= 1;
    EXPECT_NE(base.fingerprint(), seed.fingerprint());
    PlannerSpec budget = base;
    budget.anneal.moveBudget += 1;
    EXPECT_NE(base.fingerprint(), budget.fingerprint());
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
    // Sharing never changes results, only who builds the tables.
    EXPECT_EQ(base.fingerprint(), shared.fingerprint());
}

TEST(PlannerFingerprint, CacheKeysAnnealedAndExactPlansApart)
{
    // The schedule-cache contract: a key minted for an exact plan can
    // never serve an annealed one, because the limits that pick the
    // two engines give different fingerprints.
    const PlannerSpec exact = forcing({}, PlannerEngine::Exhaustive);
    const PlannerSpec annealed = forcing({}, PlannerEngine::Annealed);

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
// Large instances: the default spec anneals them, feasibly.

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

TEST_F(LargeInstance, DefaultSpecAnneals)
{
    EXPECT_GT(scheduleSpaceSize(table->numStages(), soc.numPus()),
              PlannerSpec{}.exactSpaceLimit);
    Optimizer opt(soc, *table, PlannerSpec{});
    const auto cands = opt.optimize();
    EXPECT_EQ(opt.stats().engine, PlannerEngine::Annealed);
    ASSERT_FALSE(cands.empty());
    for (const auto& c : cands)
        EXPECT_TRUE(c.schedule.valid(table->numStages(), soc.numPus()))
            << c.schedule.compactString();
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
    EXPECT_EQ(opt.stats().engine, PlannerEngine::Exhaustive);
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
// Trajectory pins: the exact walk the annealer takes. Any change to its
// scoring, pooling or C6 filtering that moves one proposal's outcome
// moves these counters, so a refactor that claims to keep the engine's
// behaviour must leave every row unchanged.

/** One annealed plan's walk counters, level-1 bounds and front pick. */
struct TrajectoryPin
{
    const char* spec;
    std::uint64_t seed;
    std::int64_t proposed;
    std::int64_t accepted;
    std::int64_t filtered;
    std::int64_t distinct;
    std::uint64_t evalHits; ///< pool revisits
    int requiredPus;
    std::uint64_t latencyBoundBits;
    std::uint64_t gapnessBoundBits;
    const char* top;
    std::uint64_t topLatencyBits;
};

void
expectTrajectory(Optimizer& opt, const TrajectoryPin& pin)
{
    const auto cands = opt.optimize();
    const OptimizeStats& st = opt.stats();
    SCOPED_TRACE(::testing::Message()
                 << pin.spec << " seed " << pin.seed);
    ASSERT_EQ(st.engine, PlannerEngine::Annealed);
    ASSERT_FALSE(cands.empty());
    EXPECT_EQ(st.annealProposed, pin.proposed);
    EXPECT_EQ(st.annealAccepted, pin.accepted);
    EXPECT_EQ(st.annealFiltered, pin.filtered);
    EXPECT_EQ(st.annealDistinct, pin.distinct);
    EXPECT_EQ(st.evalHits, pin.evalHits);
    EXPECT_EQ(st.evalMisses, static_cast<std::uint64_t>(pin.distinct));
    EXPECT_EQ(st.requiredPus, pin.requiredPus);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(st.latencyBound),
              pin.latencyBoundBits);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(st.gapnessBound),
              pin.gapnessBoundBits);
    EXPECT_EQ(cands.front().schedule.compactString(), pin.top);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  cands.front().predictedLatency),
              pin.topLatencyBits);
}

TEST_F(LargeInstance, AnnealedTrajectoryPinned)
{
    // "c6": a C6 budget at the rig's DRAM bandwidth; "c6_ambient_edp":
    // the same under 6 GB/s of co-runner traffic (an ambient bucket
    // above 0) ranked by energy-delay; "plain": no contention profile at all.
    const TrajectoryPin pins[] = {
        {"c6", 1, 200000, 23617, 138094, 13538, 46600, 7,
         0x3f7cb330285398a8ull, 0x3f7bce1e1c5838ffull,
         "44600015333222", 0x3f73cb06baa91b36ull},
        {"c6", 7, 200000, 40285, 121267, 20641, 54252, 7,
         0x3f7cb330285398a8ull, 0x3f7bce1e1c5838ffull,
         "44600015333222", 0x3f73cb06baa91b36ull},
        {"c6", 0x5eedb17, 200000, 41230, 121996, 20650, 53669, 7,
         0x3f7cb330285398a8ull, 0x3f7bce1e1c5838ffull,
         "44600015333222", 0x3f73cb06baa91b36ull},
        {"c6_ambient_edp", 1, 200000, 23693, 138009, 13545, 46681, 7,
         0x3f7cb330285398a8ull, 0x3f7bce1e1c5838ffull,
         "44600015333222", 0x3f73cb06baa91b36ull},
        {"c6_ambient_edp", 7, 200000, 40569, 120985, 20582, 54601, 7,
         0x3f7cb330285398a8ull, 0x3f7bce1e1c5838ffull,
         "44600015333222", 0x3f73cb06baa91b36ull},
        {"c6_ambient_edp", 0x5eedb17, 200000, 41150, 122127, 20994,
         53245, 7,
         0x3f7cb330285398a8ull, 0x3f7bce1e1c5838ffull,
         "44600015333222", 0x3f73cb06baa91b36ull},
        {"plain", 1, 200000, 22423, 0, 30198, 80817, 8,
         0x3f70b84aaf1abd6bull, 0x3f58d380bb7f1f6eull,
         "66355224110077", 0x3f670fd9c54a6921ull},
        {"plain", 7, 200000, 14949, 0, 23843, 84242, 8,
         0x3f70b84aaf1abd6bull, 0x3f57d092b5948352ull,
         "11355224660077", 0x3f670fd9c54a6921ull},
        {"plain", 0x5eedb17, 200000, 18945, 0, 28699, 80358, 8,
         0x3f70b84aaf1abd6bull, 0x3f54c597f16d5f9eull,
         "11355224660077", 0x3f670fd9c54a6921ull},
    };
    for (const TrajectoryPin& pin : pins) {
        PlannerSpec spec;
        spec.anneal.seed = pin.seed;
        if (std::string(pin.spec) != "plain") {
            spec.contention.budgetGbps = soc.mem.dramBwGbps;
            spec.contentionProfile = &contention;
        }
        if (std::string(pin.spec) == "c6_ambient_edp") {
            spec.contention.ambientGbps = 6.0;
            spec.objective = PlannerSpec::Objective::EnergyDelay;
        }
        Optimizer opt(soc, *table, spec);
        expectTrajectory(opt, pin);
    }
}

TEST(AnnealedTrajectory, PixelAlexNetSparseWalkPinned)
{
    // 2,116 schedules against a 400-move budget: too many to sweep
    // (the sweep needs budget / 4), so the annealer really walks.
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto profile = Profiler(model).profile(apps::alexnetSparse());
    const TrajectoryPin pins[] = {
        {"walk", 3, 400, 66, 0, 121, 146, 4,
         0x3f75c686ced4d5baull, 0x3f6deee965ddffd3ull,
         "033321111", 0x3f6e09008ff2d147ull},
        {"walk", 11, 400, 71, 0, 149, 111, 4,
         0x3f75a5c0f4e47590ull, 0x3f65699a5966f66full,
         "112033333", 0x3f6ddbcc5a83f45dull},
    };
    for (const TrajectoryPin& pin : pins) {
        PlannerSpec spec = forcing({}, PlannerEngine::Annealed);
        spec.anneal.seed = pin.seed;
        spec.anneal.moveBudget = 400;
        Optimizer opt(soc, profile.interference, spec);
        expectTrajectory(opt, pin);
    }
}

// ---------------------------------------------------------------------
// bt::Service: large tenants are annealed.

TEST(ServiceAnnealedFallback, LargeTenantAnnealsInsteadOfFailing)
{
    // AlexNet-sparse (9 stages) on the 8-class rig is ~3.16M schedules
    // - beyond the exact limit, so the plan is annealed rather than
    // panicking or relaxing C6.
    const auto soc = platform::manycoreRig();
    service::ServiceConfig cfg;
    cfg.workers = 1;
    service::Service service(soc, cfg);
    service.registerApp(apps::alexnetSparse());

    // The service plans with its configured spec (one group leases
    // every PU); the engine follows from the space inside optimize().
    const auto key = service.keyFor("AlexNet-Sparse", 0, 0, 1);
    EXPECT_EQ(key.plannerFingerprint, cfg.optimizer.fingerprint());

    const auto plan = service.freshPlan("AlexNet-Sparse", 0, 0, 1);
    EXPECT_TRUE(plan.schedule.valid(9, soc.numPus()));
    EXPECT_TRUE(plan.annealed);

    // An unlimited exact engine keeps enumerating, so the two
    // configurations mint different cache keys: an annealed plan can
    // never be served where an exact one was requested.
    service::ServiceConfig unlimited = cfg;
    unlimited.optimizer.exactSpaceLimit
        = std::numeric_limits<std::uint64_t>::max();
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
    EXPECT_FALSE(plan.annealed);
}

} // namespace
} // namespace bt::core
