/**
 * @file
 * Tests for the shared DRAM-contention model and everything that
 * consumes it: ContentionModel/ContentionProfile quantization and
 * demand math, PerfModel's delegation and overload forwarding
 * (bit-exactness), bucketed ScheduleEvaluator predictions, the
 * optimizer's C6 aggregate-bandwidth constraint family (budget
 * respected, infeasible budgets relaxed, single-tenant byte-identity;
 * the C6 plan itself is checked against the solver reference in
 * test_optimizer), the service's contention-aware
 * two-tenant planning on the bandwidth-starved contention rig, and
 * agreement between the planner's stretched predictions and the virtual
 * backend under ambient co-runner demand (the host backend's wall-clock
 * case is in test_wallclock).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/application.hpp"
#include "core/optimizer.hpp"
#include "core/profiler.hpp"
#include "core/schedule_eval.hpp"
#include "core/sim_executor.hpp"
#include "platform/contention.hpp"
#include "platform/devices.hpp"
#include "platform/perf_model.hpp"
#include "service/service.hpp"

#include "mem_pipeline.hpp"

namespace bt::core {
namespace {

// ---------------------------------------------------------------------
// Fixtures: synthetic pipelines on the bandwidth-starved contention
// rig (tests/mem_pipeline.hpp). MemHeavy moves twice the bytes of
// MemLight, so the two-tenant scenarios are asymmetric.

using fixtures::memHeavy;
using fixtures::memPipeline;

Application
memLight()
{
    return memPipeline("MemLight", 0.5);
}

std::vector<platform::WorkProfile>
worksOf(const Application& app)
{
    std::vector<platform::WorkProfile> works;
    for (const auto& stage : app.stages())
        works.push_back(stage.work());
    return works;
}

/** Aggregate DRAM demand (GB/s) a schedule draws, from first
 *  principles via the application's analytic contention profile. */
double
demandOf(const platform::SocDescription& soc, const Application& app,
         const Schedule& schedule)
{
    const platform::PerfModel model(soc);
    const auto works = worksOf(app);
    const platform::ContentionProfile profile
        = model.contention().profileStages(model, works);
    return static_cast<double>(profile.aggregateDemandMilli(
               schedule.toAssignment()))
        / 1000.0;
}

/** Profiled fixture shared by the evaluator/optimizer tests. */
class ContentionRig : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        soc = platform::contentionRig();
        model = std::make_unique<platform::PerfModel>(soc);
        app = std::make_unique<Application>(memHeavy());
        Profiler profiler(*model);
        result = profiler.profile(*app);
    }

    platform::SocDescription soc;
    std::unique_ptr<platform::PerfModel> model;
    std::unique_ptr<Application> app;
    ProfileResult result;
};

// ---------------------------------------------------------------------
// ContentionModel / ContentionProfile units.

TEST(ContentionModel, MilliQuantizationRoundsToNearest)
{
    EXPECT_EQ(platform::ContentionModel::milliGbps(0.0), 0);
    EXPECT_EQ(platform::ContentionModel::milliGbps(1.0), 1000);
    EXPECT_EQ(platform::ContentionModel::milliGbps(1.2345), 1235);
    EXPECT_EQ(platform::ContentionModel::milliGbps(4.7999), 4800);
}

TEST(ContentionModel, BucketsAreConservativeAndMonotone)
{
    const auto soc = platform::contentionRig();
    const platform::ContentionModel model(soc);
    const double roofline = model.rooflineGbps();
    EXPECT_DOUBLE_EQ(roofline, 10.0);

    EXPECT_EQ(model.bucketOf(0.0), 0);
    EXPECT_DOUBLE_EQ(model.bucketCeilingGbps(0), 0.0);

    int prev = 0;
    for (double g = 0.1; g <= roofline + 2.0; g += 0.1) {
        const int b = model.bucketOf(g);
        EXPECT_GE(b, 1);
        EXPECT_LT(b, platform::ContentionModel::kBuckets);
        EXPECT_GE(b, prev); // monotone in demand
        // Conservative: the bucket ceiling never understates demand.
        EXPECT_GE(model.bucketCeilingGbps(b) + 1e-12,
                  std::min(g, roofline));
        prev = b;
    }
    // The top bucket's ceiling is the roofline itself.
    EXPECT_DOUBLE_EQ(model.bucketCeilingGbps(
                         platform::ContentionModel::kBuckets - 1),
                     roofline);
}

TEST(ContentionModel, ProfileDemandMatchesLinkTimesIntensity)
{
    const auto soc = platform::contentionRig();
    const platform::PerfModel model(soc);
    const auto app = memHeavy();
    const auto works = worksOf(app);
    const platform::ContentionProfile profile
        = model.contention().profileStages(model, works);

    ASSERT_EQ(profile.numStages, app.numStages());
    ASSERT_EQ(profile.numPus, soc.numPus());
    ASSERT_EQ(profile.numBuckets, platform::ContentionModel::kBuckets);
    for (int s = 0; s < profile.numStages; ++s) {
        for (int p = 0; p < profile.numPus; ++p) {
            const double expected = model.contention().demandGbps(
                works[static_cast<std::size_t>(s)], soc.pu(p));
            EXPECT_DOUBLE_EQ(profile.demandGbps(s, p), expected);
            EXPECT_EQ(profile.demandMilli(s, p),
                      platform::ContentionModel::milliGbps(expected));
        }
    }
    // The memory block saturates every link it lands on; the compute
    // tail draws almost nothing.
    EXPECT_DOUBLE_EQ(profile.demandGbps(0, 0), 4.8); // m1 on littleA
    EXPECT_DOUBLE_EQ(profile.demandGbps(0, 2), 6.0); // m1 on big
    EXPECT_DOUBLE_EQ(profile.demandGbps(0, 3), 12.0); // m1 on gpu
    EXPECT_LT(profile.demandGbps(2, 2), 1.0);         // c1 on big
}

TEST(ContentionModel, StretchIsOneAtBucketZeroAndTracksHeavyTime)
{
    const auto soc = platform::contentionRig();
    const platform::PerfModel model(soc);
    const auto works = worksOf(memHeavy());
    const platform::ContentionProfile profile
        = model.contention().profileStages(model, works);

    for (int s = 0; s < profile.numStages; ++s) {
        for (int p = 0; p < profile.numPus; ++p) {
            EXPECT_DOUBLE_EQ(profile.stretch(s, p, 0), 1.0);
            double prev = 1.0;
            for (int b = 1; b < profile.numBuckets; ++b) {
                const double stretch = profile.stretch(s, p, b);
                // Exactly the interference-heavy slowdown under the
                // bucket's ceiling demand - the number timesOf folds.
                const auto& w = works[static_cast<std::size_t>(s)];
                EXPECT_DOUBLE_EQ(
                    stretch,
                    model.interferenceHeavyTime(
                        w, p, model.contention().bucketCeilingGbps(b))
                        / model.interferenceHeavyTime(w, p));
                EXPECT_GE(stretch + 1e-12, prev); // monotone
                prev = stretch;
            }
        }
    }
    // Memory-bound work on the little cores stretches visibly under a
    // saturating ambient; the compute tail on big barely moves.
    EXPECT_GT(profile.stretch(0, 0, profile.numBuckets - 1), 1.10);
    EXPECT_LT(profile.stretch(2, 2, profile.numBuckets - 1), 1.02);
}

TEST(ContentionModel, AggregateDemandSumsTheHungriestStagePerPu)
{
    const auto soc = platform::contentionRig();
    const platform::PerfModel model(soc);
    const auto works = worksOf(memHeavy());
    const platform::ContentionProfile profile
        = model.contention().profileStages(model, works);

    // {m1, m2} on littleA, {c1} on big: littleA draws its hungriest
    // stage (not the sum), big draws the compute tail.
    const std::vector<int> assign{0, 0, 2};
    const std::int64_t expected
        = std::max(profile.demandMilli(0, 0), profile.demandMilli(1, 0))
        + profile.demandMilli(2, 2);
    EXPECT_EQ(profile.aggregateDemandMilli(assign), expected);

    // Single-PU schedules draw exactly their hungriest stage.
    const std::vector<int> gpuOnly{3, 3, 3};
    EXPECT_EQ(profile.aggregateDemandMilli(gpuOnly),
              std::max({profile.demandMilli(0, 3),
                        profile.demandMilli(1, 3),
                        profile.demandMilli(2, 3)}));
}

// ---------------------------------------------------------------------
// PerfModel: ambient demand only affects memory-bound work.

TEST(PerfModelForwarding, AmbientSlowsMemoryBoundWorkOnly)
{
    const auto soc = platform::contentionRig();
    const platform::PerfModel model(soc);
    const auto works = worksOf(memHeavy());

    // m1 on littleA is memory bound: ambient traffic stretches it.
    EXPECT_GT(model.interferenceHeavyTime(works[0], 0, 10.0),
              model.interferenceHeavyTime(works[0], 0));
    // c1 on big is compute bound: its (scaled) memory leg stays hidden
    // under max(comp, mem), so the time is bit-identical.
    EXPECT_DOUBLE_EQ(model.interferenceHeavyTime(works[2], 2, 10.0),
                     model.interferenceHeavyTime(works[2], 2));
}

// ---------------------------------------------------------------------
// ScheduleEvaluator: bucketed predictions.

TEST_F(ContentionRig, EvaluatorBucketZeroIgnoresTheProfile)
{
    ScheduleEvaluator plain(soc, result.interference, *model);
    ScheduleEvaluator bucketed(soc, result.interference, *model,
                               &result.contention);

    const std::vector<std::vector<int>> assigns{
        {0, 0, 0}, {0, 0, 2}, {0, 2, 2}, {3, 3, 3}, {1, 1, 3}};
    for (const auto& a : assigns) {
        const auto chunks = Schedule::fromAssignment(a).chunks();
        const Prediction lhs = plain.evaluate(chunks);
        const Prediction rhs = bucketed.evaluate(chunks);
        EXPECT_DOUBLE_EQ(lhs.latency, rhs.latency);
        EXPECT_DOUBLE_EQ(lhs.gapness, rhs.gapness);
        EXPECT_DOUBLE_EQ(lhs.energyJ, rhs.energyJ);
        EXPECT_EQ(lhs.numChunks, rhs.numChunks);
        // The contention-aware instance also accounts demand.
        EXPECT_EQ(rhs.demandMilli,
                  result.contention.aggregateDemandMilli(a));
        EXPECT_DOUBLE_EQ(rhs.demandGbps,
                         static_cast<double>(rhs.demandMilli) / 1000.0);
    }
}

TEST_F(ContentionRig, EvaluatorBucketsMatchAManuallyStretchedTable)
{
    const int bucket = 4;
    // Stretch the interference table by hand, cell by cell.
    ProfilingTable stretched(result.interference.stages(),
                             result.interference.pus());
    for (int s = 0; s < result.interference.numStages(); ++s) {
        for (int p = 0; p < result.interference.numPus(); ++p) {
            stretched.set(s, p,
                          result.interference.at(s, p)
                              * result.contention.stretch(s, p, bucket));
            stretched.setStddev(s, p,
                                result.interference.stddevAt(s, p));
        }
    }
    ScheduleEvaluator manual(soc, stretched, *model);
    ScheduleEvaluator bucketed(soc, result.interference, *model,
                               &result.contention);

    const std::vector<std::vector<int>> assigns{
        {0, 0, 0}, {0, 0, 2}, {0, 2, 2}, {3, 3, 3}, {2, 2, 3}};
    for (const auto& a : assigns) {
        const auto chunks = Schedule::fromAssignment(a).chunks();
        const Prediction lhs = manual.evaluate(chunks);
        const Prediction rhs = bucketed.evaluate(chunks, bucket);
        EXPECT_DOUBLE_EQ(lhs.latency, rhs.latency);
        EXPECT_DOUBLE_EQ(lhs.gapness, rhs.gapness);
        EXPECT_DOUBLE_EQ(lhs.energyJ, rhs.energyJ);
        // Demand is a property of the assignment, not the bucket.
        EXPECT_EQ(rhs.demandMilli,
                  result.contention.aggregateDemandMilli(a));
        EXPECT_EQ(rhs.demandMilli, bucketed.evaluate(chunks).demandMilli);
    }
}

// ---------------------------------------------------------------------
// Optimizer: the C6 aggregate-bandwidth constraint family.

TEST_F(ContentionRig, C6CandidatesRespectTheBudget)
{
    PlannerSpec cfg;
    cfg.contention.budgetGbps = 5.0;
    cfg.contentionProfile = &result.contention;
    Optimizer opt(soc, result.interference, cfg);
    const auto cands = opt.optimize();
    ASSERT_FALSE(cands.empty());
    EXPECT_DOUBLE_EQ(opt.stats().demandBudgetGbps, 5.0);
    EXPECT_FALSE(opt.stats().c6Relaxed);
    for (const auto& c : cands) {
        EXPECT_LE(c.predictedDemandGbps, 5.0 + 1e-9)
            << c.schedule.compactString();
        // The reported demand is the profile's exact accounting.
        EXPECT_DOUBLE_EQ(c.predictedDemandGbps,
                         demandOf(soc, *app, c.schedule));
    }
}

TEST_F(ContentionRig, WithoutC6ThePlannerOversubscribes)
{
    // The whole point of the rig: unconstrained latency optimization
    // puts memory-block stages on the fat links.
    PlannerSpec cfg;
    cfg.contentionProfile = &result.contention;
    Optimizer opt(soc, result.interference, cfg);
    const auto cands = opt.optimize();
    ASSERT_FALSE(cands.empty());
    EXPECT_DOUBLE_EQ(opt.stats().demandBudgetGbps, 0.0);
    EXPECT_GT(cands.front().predictedDemandGbps, 5.0);
}

TEST_F(ContentionRig, InfeasibleBudgetRelaxesC6InsteadOfFailing)
{
    // Even the frugalest single-chunk schedule draws 4.8 GB/s; a
    // budget below that cannot be honored.
    PlannerSpec cfg;
    cfg.contention.budgetGbps = 0.5;
    cfg.contentionProfile = &result.contention;
    Optimizer relaxed(soc, result.interference, cfg);
    const auto cands = relaxed.optimize();
    ASSERT_FALSE(cands.empty());
    EXPECT_TRUE(relaxed.stats().c6Relaxed);
    EXPECT_DOUBLE_EQ(relaxed.stats().demandBudgetGbps, 0.0);

    // Relaxation means: plan exactly as if C6 were off.
    PlannerSpec off_cfg;
    off_cfg.contentionProfile = &result.contention;
    Optimizer off(soc, result.interference, off_cfg);
    const auto base = off.optimize();
    ASSERT_EQ(cands.size(), base.size());
    for (std::size_t i = 0; i < cands.size(); ++i)
        EXPECT_EQ(cands[i].schedule, base[i].schedule);
}

TEST_F(ContentionRig, DefaultContentionConfigIsByteIdentical)
{
    // A contention profile with all-default knobs must not perturb a
    // single bit of the contention-unaware planner's output.
    PlannerSpec aware;
    aware.contentionProfile = &result.contention;
    Optimizer with(soc, result.interference, aware);
    Optimizer without(soc, result.interference, {});
    const auto a = with.optimize();
    const auto b = without.optimize();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].schedule, b[i].schedule) << "rank " << i;
        EXPECT_DOUBLE_EQ(a[i].predictedLatency, b[i].predictedLatency);
        EXPECT_DOUBLE_EQ(a[i].predictedGapness, b[i].predictedGapness);
        EXPECT_DOUBLE_EQ(a[i].predictedEnergyJ, b[i].predictedEnergyJ);
    }
}

TEST_F(ContentionRig, RealTimeTenantPlansAtBucketZero)
{
    PlannerSpec ambient;
    ambient.contention.budgetGbps = 5.0;
    ambient.contention.ambientGbps = 5.0;
    ambient.contentionProfile = &result.contention;
    PlannerSpec rt = ambient;
    rt.contention.realTime = true;
    PlannerSpec quiet;
    quiet.contention.budgetGbps = 5.0;
    quiet.contentionProfile = &result.contention;

    Optimizer rtOpt(soc, result.interference, rt);
    Optimizer quietOpt(soc, result.interference, quiet);
    Optimizer ambientOpt(soc, result.interference, ambient);
    const auto rtCands = rtOpt.optimize();
    const auto quietCands = quietOpt.optimize();
    const auto ambientCands = ambientOpt.optimize();

    // Real-time: ambient is ignored, so the plan equals the quiet one.
    ASSERT_EQ(rtCands.size(), quietCands.size());
    for (std::size_t i = 0; i < rtCands.size(); ++i) {
        EXPECT_EQ(rtCands[i].schedule, quietCands[i].schedule);
        EXPECT_DOUBLE_EQ(rtCands[i].predictedLatency,
                         quietCands[i].predictedLatency);
    }
    // A best-effort tenant under the same ambient predicts slower
    // (memory-bound fixture: the stretch is real).
    EXPECT_GT(ambientCands.front().predictedLatency,
              quietCands.front().predictedLatency);
}

// ---------------------------------------------------------------------
// Service: contention-aware two-tenant planning.

service::ServiceConfig
rigConfig(bool contention_aware)
{
    service::ServiceConfig cfg;
    cfg.workers = 2;
    cfg.run.numTasks = 6;
    cfg.profiler.repetitions = 3;
    cfg.contentionAware = contention_aware;
    return cfg;
}

TEST(ServiceContention, TwoTenantPlansStayUnderTheRoofline)
{
    const auto soc = platform::contentionRig();
    const double roofline = soc.mem.dramBwGbps;

    service::Service aware(soc, rigConfig(true));
    aware.registerApp(memHeavy());
    aware.registerApp(memLight());
    const auto planA = aware.freshPlan("MemHeavy", 0, 0, 2);
    const auto planB = aware.freshPlan("MemLight", 0, 1, 2);

    // Each tenant stays within its equal share; together they fit
    // under the roofline, so nobody gets throttled.
    EXPECT_LE(planA.predictedDemandGbps, roofline / 2 + 1e-9);
    EXPECT_LE(planB.predictedDemandGbps, roofline / 2 + 1e-9);
    EXPECT_GT(planA.predictedDemandGbps, 0.0);
    EXPECT_LE(planA.predictedDemandGbps + planB.predictedDemandGbps,
              roofline + 1e-9);

    // The PR6-style planner (blind disjoint leases) oversubscribes:
    // both tenants grab their fattest link.
    service::Service blind(soc, rigConfig(false));
    blind.registerApp(memHeavy());
    blind.registerApp(memLight());
    const auto blindA = blind.freshPlan("MemHeavy", 0, 0, 2);
    const auto blindB = blind.freshPlan("MemLight", 0, 1, 2);
    const double blindDemand
        = demandOf(soc, memHeavy(), blindA.schedule)
        + demandOf(soc, memLight(), blindB.schedule);
    EXPECT_GT(blindDemand, roofline);
}

TEST(ServiceContention, WorstTenantCoRunLatencyImproves)
{
    const auto soc = platform::contentionRig();
    const platform::PerfModel model(soc);

    service::Service aware(soc, rigConfig(true));
    aware.registerApp(memHeavy());
    aware.registerApp(memLight());
    service::Service blind(soc, rigConfig(false));
    blind.registerApp(memHeavy());
    blind.registerApp(memLight());

    // Score a tenant's plan under the co-runner demand its partner's
    // plan actually draws - the honest co-run latency: replay the
    // plan on the virtual backend with the partner's aggregate
    // bandwidth as ambient traffic.
    const auto coRunLatency = [&](const Application& app,
                                  const Schedule& plan,
                                  double partner_demand) {
        runtime::RunConfig cfg;
        cfg.numTasks = 24;
        cfg.ambientBandwidthGbps = partner_demand;
        return SimExecutor(model, cfg)
            .execute(app, plan)
            .taskIntervalSeconds;
    };
    const auto worstOf = [&](service::Service& svc) {
        const auto heavy = svc.freshPlan("MemHeavy", 0, 0, 2);
        const auto light = svc.freshPlan("MemLight", 0, 1, 2);
        const double dHeavy
            = demandOf(soc, memHeavy(), heavy.schedule);
        const double dLight
            = demandOf(soc, memLight(), light.schedule);
        return std::max(
            coRunLatency(memHeavy(), heavy.schedule, dLight),
            coRunLatency(memLight(), light.schedule, dHeavy));
    };

    const double awareWorst = worstOf(aware);
    const double blindWorst = worstOf(blind);
    EXPECT_LT(awareWorst, blindWorst);
}

TEST(ServiceContention, SingleTenantPlansAreByteIdenticalEitherWay)
{
    const auto soc = platform::contentionRig();
    service::Service aware(soc, rigConfig(true));
    aware.registerApp(memHeavy());
    service::Service blind(soc, rigConfig(false));
    blind.registerApp(memHeavy());

    // One lease group = whole SoC, no co-runners: the contention
    // machinery must be inert.
    EXPECT_EQ(aware.keyFor("MemHeavy", 0, 0, 1).bandwidthBucket, 0);
    const auto a = aware.freshPlan("MemHeavy", 0, 0, 1);
    const auto b = blind.freshPlan("MemHeavy", 0, 0, 1);
    EXPECT_EQ(a.schedule, b.schedule);
    EXPECT_DOUBLE_EQ(a.predictedLatencySeconds,
                     b.predictedLatencySeconds);
}

TEST(ServiceContention, RealTimeTenantIsThrottleProtected)
{
    const auto soc = platform::contentionRig();
    service::Service svc(soc, rigConfig(true));
    svc.registerApp(memHeavy(), service::TenantOptions{.realTime = true});
    svc.registerApp(memLight());

    // The RT tenant's cache key pins bucket 0 (it plans and runs
    // unthrottled); the best-effort co-tenant absorbs the ambient.
    EXPECT_EQ(svc.keyFor("MemHeavy", 0, 0, 2).bandwidthBucket, 0);
    EXPECT_GT(svc.keyFor("MemLight", 0, 1, 2).bandwidthBucket, 0);

    // Its plan still honors the C6 budget share.
    const auto rtPlan = svc.freshPlan("MemHeavy", 0, 0, 2);
    EXPECT_LE(rtPlan.predictedDemandGbps,
              soc.mem.dramBwGbps / 2 + 1e-9);
}

TEST(ServiceContention, TwoTenantsServeEndToEnd)
{
    const auto soc = platform::contentionRig();
    auto cfg = rigConfig(true);
    cfg.queueCapacity = 64;
    service::Service svc(soc, cfg);
    svc.registerApp(memHeavy());
    svc.registerApp(memLight());
    svc.start();
    int admitted = 0;
    for (int i = 0; i < 24; ++i)
        if (svc.submit({i % 2, i % 2 == 0 ? "MemHeavy" : "MemLight",
                        nullptr}))
            ++admitted;
    svc.drain();
    const auto report = svc.report();
    svc.stop();
    EXPECT_EQ(report.completed, admitted);
    EXPECT_EQ(report.failed, 0);
}

// ---------------------------------------------------------------------
// Backends: the same contention model replays at run time.

TEST_F(ContentionRig, VirtualBackendTracksThePredictedStretch)
{
    // The ambient's *relative* effect on the virtual-time makespan must
    // agree with the stretched-table prediction (the absolute level
    // differs by design: the DES models instantaneous co-run sets, the
    // table the interference-heavy worst case).
    ScheduleEvaluator eval(soc, result.interference, *model,
                           &result.contention);
    const double ambient = 5.0;
    const int bucket = model->contention().bucketOf(ambient);

    for (const auto& assign : std::vector<std::vector<int>>{
             {3, 3, 3}, {0, 0, 2}}) {
        const auto schedule = Schedule::fromAssignment(assign);
        const double predictedRatio
            = eval.evaluate(schedule.chunks(), bucket).latency
            / eval.evaluate(schedule.chunks()).latency;

        runtime::RunConfig quiet;
        quiet.numTasks = 24;
        runtime::RunConfig loud = quiet;
        loud.ambientBandwidthGbps = ambient;
        const double quietInterval
            = SimExecutor(*model, quiet)
                  .execute(*app, schedule)
                  .taskIntervalSeconds;
        const double loudInterval
            = SimExecutor(*model, loud)
                  .execute(*app, schedule)
                  .taskIntervalSeconds;
        const double measuredRatio = loudInterval / quietInterval;

        EXPECT_GE(measuredRatio, 1.0);
        EXPECT_NEAR(measuredRatio, predictedRatio,
                    0.35 * predictedRatio)
            << schedule.compactString();
    }
}

} // namespace
} // namespace bt::core
