/**
 * @file
 * Tests for the multi-tenant serving front end: the sharded schedule
 * cache (hit/miss/eviction correctness, LRU order, byte-identity of
 * cached and fresh plans, concurrent hammer), PU leasing (disjoint
 * covering partitions, load quantization), and the Service itself
 * (every admitted request completes, cache hits dominate steady state,
 * per-session accounting, merged session-tagged traces, a manycore
 * tenant whose plan and dropout replan are annealed).
 *
 * The hammer and end-to-end tests are also the TSan workload for the
 * service layer: they exercise concurrent lookups, racing insertions,
 * and the merged timeline under the sanitizer CI job.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/alexnet.hpp"
#include "apps/features.hpp"
#include "apps/octree_app.hpp"
#include "bt.hpp"
#include "common/json.hpp"
#include "platform/devices.hpp"
#include "service/lease.hpp"
#include "service/schedule_cache.hpp"
#include "service/service.hpp"

namespace bt::service {
namespace {

ScheduleKey
key(const std::string& app, int bucket = 0, int lease = 0,
    int groups = 1)
{
    ScheduleKey k;
    k.app = app;
    k.platform = "test-soc";
    k.loadBucket = bucket;
    k.lease = lease;
    k.leaseGroups = groups;
    k.plannerFingerprint = 0xabcdef;
    return k;
}

CachedPlan
plan(int pu)
{
    CachedPlan p;
    p.schedule = core::Schedule::homogeneous(3, pu);
    p.predictedLatencySeconds = 0.001 * (pu + 1);
    return p;
}

// ---------------------------------------------------------------------
// Schedule cache: hit/miss/eviction correctness.

TEST(ScheduleCache, MissThenHitThenCounters)
{
    ScheduleCache cache;
    EXPECT_FALSE(cache.lookup(key("a")).has_value());
    EXPECT_TRUE(cache.insert(key("a"), plan(1)));

    const auto hit = cache.lookup(key("a"));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->schedule, plan(1).schedule);
    EXPECT_DOUBLE_EQ(hit->predictedLatencySeconds, 0.002);

    // A different load bucket is a different key.
    EXPECT_FALSE(cache.lookup(key("a", 1)).has_value());
    // So is a different lease partition or planner fingerprint.
    EXPECT_FALSE(cache.lookup(key("a", 0, 1, 2)).has_value());
    auto fp = key("a");
    fp.plannerFingerprint = 0x1234;
    EXPECT_FALSE(cache.lookup(fp).has_value());

    const auto st = cache.stats();
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.misses, 4u); // pre-insert probe + the three variants
    EXPECT_EQ(st.insertions, 1u);
    EXPECT_EQ(st.evictions, 0u);
    EXPECT_EQ(st.size, 1u);
    EXPECT_DOUBLE_EQ(st.hitRate(), 0.2);
}

TEST(ScheduleCache, DuplicateInsertIsFirstWriterWins)
{
    ScheduleCache cache;
    EXPECT_TRUE(cache.insert(key("a"), plan(0)));
    EXPECT_FALSE(cache.insert(key("a"), plan(2)));
    // The incumbent survives; the raced insertion is counted.
    EXPECT_EQ(cache.lookup(key("a"))->schedule, plan(0).schedule);
    EXPECT_EQ(cache.stats().racedInsertions, 1u);
    EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(ScheduleCache, EvictsLeastRecentlyUsedWithinShard)
{
    // One shard makes LRU order exact and observable.
    ScheduleCacheConfig cfg;
    cfg.capacity = 3;
    cfg.shards = 1;
    ScheduleCache cache(cfg);
    EXPECT_EQ(cache.capacity(), 3u);

    cache.insert(key("a"), plan(0));
    cache.insert(key("b"), plan(1));
    cache.insert(key("c"), plan(2));
    // Touch a and c; b becomes the LRU entry.
    EXPECT_TRUE(cache.lookup(key("a")).has_value());
    EXPECT_TRUE(cache.lookup(key("c")).has_value());

    cache.insert(key("d"), plan(3));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_FALSE(cache.lookup(key("b")).has_value());
    EXPECT_TRUE(cache.lookup(key("a")).has_value());
    EXPECT_TRUE(cache.lookup(key("c")).has_value());
    EXPECT_TRUE(cache.lookup(key("d")).has_value());
}

TEST(ScheduleCache, SnapshotListsAllResidentEntries)
{
    ScheduleCache cache;
    cache.insert(key("a"), plan(0));
    cache.insert(key("b", 2), plan(1));
    const auto entries = cache.snapshot();
    ASSERT_EQ(entries.size(), 2u);
    std::set<std::string> apps;
    for (const auto& [k, p] : entries)
        apps.insert(k.app);
    EXPECT_EQ(apps, (std::set<std::string>{"a", "b"}));
}

// Concurrent hammer: many threads racing lookups and insertions over a
// small hot key set plus per-thread cold keys forcing evictions. Run
// under TSan in CI; the assertions here are the invariants that must
// hold regardless of interleaving.

TEST(ScheduleCache, ConcurrentHammerKeepsInvariants)
{
    ScheduleCacheConfig cfg;
    cfg.capacity = 16;
    cfg.shards = 4;
    ScheduleCache cache(cfg);

    constexpr int kThreads = 8;
    constexpr int kOpsPerThread = 2000;
    std::atomic<std::uint64_t> observedHits{0};

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cache, &observedHits, t] {
            for (int i = 0; i < kOpsPerThread; ++i) {
                // Hot set of 4 keys shared by every thread, plus a
                // rotating cold tail unique to this thread.
                const bool hot = (i % 4) != 0;
                const ScheduleKey k = hot
                    ? key("hot", i % 4)
                    : key("cold-" + std::to_string(t), i % 97);
                if (auto found = cache.lookup(k)) {
                    // Value integrity: the plan is the one any thread
                    // inserted for this bucket (pu == bucket % 3).
                    EXPECT_EQ(found->schedule,
                              core::Schedule::homogeneous(
                                  3, k.loadBucket % 3));
                    observedHits.fetch_add(1,
                                           std::memory_order_relaxed);
                } else {
                    cache.insert(k, plan(k.loadBucket % 3));
                }
            }
        });
    }
    for (auto& thread : threads)
        thread.join();

    const auto st = cache.stats();
    EXPECT_EQ(st.hits, observedHits.load());
    EXPECT_EQ(st.hits + st.misses,
              static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
    // Bounded: never more resident entries than capacity.
    EXPECT_LE(cache.size(), cache.capacity());
    // The hot set is small and hammered: most operations must hit.
    EXPECT_GT(st.hitRate(), 0.5);
    // Conservation: everything inserted was either evicted, raced out
    // before insertion, or is still resident.
    EXPECT_EQ(st.insertions, st.evictions + st.size);
}

// ---------------------------------------------------------------------
// PU leasing.

TEST(Lease, QuantizeLoadIsMonotoneAndBounded)
{
    EXPECT_EQ(quantizeLoad(0, 4, 4), 0);
    EXPECT_EQ(quantizeLoad(1, 4, 4), 0);
    EXPECT_EQ(quantizeLoad(8, 4, 4), 3);
    EXPECT_EQ(quantizeLoad(100, 4, 4), 3); // clamped to the top bucket
    int prev = 0;
    for (int inflight = 0; inflight <= 20; ++inflight) {
        const int b = quantizeLoad(inflight, 4, 4);
        EXPECT_GE(b, prev);
        EXPECT_LT(b, 4);
        prev = b;
    }
}

TEST(Lease, PartitionsAreDisjointAndCovering)
{
    const auto soc = platform::pixel7a();
    const PuLeaseManager leases(soc, 3);
    EXPECT_EQ(leases.maxGroups(), 3);

    // Single group: empty lease = whole SoC (no optimizer restriction).
    EXPECT_TRUE(leases.lease(0, 1).empty());

    for (int groups = 2; groups <= leases.maxGroups(); ++groups) {
        std::set<int> seen;
        for (int g = 0; g < groups; ++g) {
            const auto pus = leases.lease(g, groups);
            EXPECT_FALSE(pus.empty());
            for (int pu : pus) {
                EXPECT_TRUE(seen.insert(pu).second)
                    << "PU " << pu << " leased twice";
                EXPECT_GE(pu, 0);
                EXPECT_LT(pu, soc.numPus());
            }
        }
        EXPECT_EQ(static_cast<int>(seen.size()), soc.numPus());
    }

    // Group count grows with the load bucket, capped at maxGroups.
    EXPECT_EQ(leases.groupsAt(0), 1);
    EXPECT_EQ(leases.groupsAt(1), 2);
    EXPECT_EQ(leases.groupsAt(10), 3);
}

// ---------------------------------------------------------------------
// Service end to end.

ServiceConfig
quickConfig(int workers = 2)
{
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.run.numTasks = 6;
    cfg.profiler.repetitions = 3; // keep the cold path quick in tests
    return cfg;
}

TEST(Service, EveryAdmittedRequestCompletes)
{
    Service service(platform::pixel7a(), quickConfig());
    service.registerApp(apps::octreeApp());
    service.registerApp(apps::featuresApp());
    service.start();

    std::atomic<int> done{0};
    std::atomic<int> okCount{0};
    constexpr int kRequests = 40;
    int admitted = 0;
    for (int i = 0; i < kRequests; ++i) {
        Request req;
        req.session = i % 3;
        req.app = (i % 2 == 0) ? "Octree" : "FeatureExtract";
        req.onDone = [&](const RequestResult& r) {
            done.fetch_add(1);
            if (r.ok)
                okCount.fetch_add(1);
            EXPECT_GE(r.latencySeconds, r.serviceSeconds);
        };
        if (service.submit(std::move(req)))
            ++admitted;
    }
    service.drain();
    const auto report = service.report();
    service.stop();

    EXPECT_EQ(admitted + report.dropped, kRequests);
    EXPECT_EQ(done.load(), admitted);
    EXPECT_EQ(okCount.load(), admitted);
    EXPECT_EQ(report.submitted, admitted);
    EXPECT_EQ(report.completed, admitted);
    EXPECT_EQ(report.failed, 0);
    // Steady state is served from the cache: far fewer plans than
    // requests, and a nonzero hit rate.
    EXPECT_LT(report.plans, report.completed);
    EXPECT_GT(report.cache.hitRate(), 0.0);
    // Per-session accounting adds up.
    std::int64_t sessions = 0;
    for (const auto& [session, count] : report.perSession)
        sessions += count;
    EXPECT_EQ(sessions, report.completed);
    EXPECT_GT(report.p50Ms, 0.0);
    EXPECT_GE(report.p99Ms, report.p50Ms);
}

TEST(Service, ManycoreTenantSurvivesADropoutReplan)
{
    // Both the tenant's plan (3.16M schedules) and the degradation
    // replan after PU 0 drops (653,023 schedules on the survivors)
    // are annealed; neither may take the service down.
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.run.numTasks = 8;
    cfg.run.faults.dropouts = {{0, 0.0005}};
    Service service(platform::manycoreRig(), cfg);
    ASSERT_TRUE(service.registerApp(apps::alexnetSparse()));
    service.start();

    Request req;
    req.app = apps::alexnetSparse().name();
    ASSERT_TRUE(service.submit(std::move(req)));
    service.drain();
    const auto report = service.report();
    service.stop();

    EXPECT_EQ(report.completed, 1);
    EXPECT_EQ(report.failed, 0);
    EXPECT_GE(report.annealedFallbacks, 1);
}

TEST(Service, FreshPlanIsPure)
{
    // freshPlan is a query: every call plans the key the same way and
    // counts nothing. Only serve's miss path counts plans and annealed
    // fallbacks (ManycoreTenantSurvivesADropoutReplan covers that).
    ServiceConfig cfg;
    cfg.workers = 1;
    Service service(platform::manycoreRig(), cfg);
    const auto app = apps::alexnetSparse();
    ASSERT_TRUE(service.registerApp(app));

    const auto first = service.freshPlan(app.name(), 0, 0, 1);
    for (int i = 0; i < 2; ++i) {
        const auto again = service.freshPlan(app.name(), 0, 0, 1);
        EXPECT_EQ(again.schedule.toAssignment(),
                  first.schedule.toAssignment());
        EXPECT_EQ(again.predictedLatencySeconds,
                  first.predictedLatencySeconds);
    }
    const auto report = service.report();
    EXPECT_EQ(report.annealedFallbacks, 0);
    EXPECT_EQ(report.plans, 0);
}

TEST(Service, AnnealKnobsOutOfRangeAreRefusedAtAdmission)
{
    // The manycore tenant's plan is annealed, so an out-of-range
    // annealing knob that slipped past admission would abort the whole
    // process on the first request. Admission lint reads
    // PlannerSpec::problems and refuses the tenant instead.
    ServiceConfig cfg;
    cfg.optimizer.anneal.moveBudget = 0;
    cfg.workers = 1;
    cfg.run.numTasks = 8;
    Service service(platform::manycoreRig(), cfg);
    EXPECT_FALSE(service.registerApp(apps::alexnetSparse()));
    service.start();

    Request req;
    req.app = apps::alexnetSparse().name();
    EXPECT_FALSE(service.submit(std::move(req)));
    service.drain();
    const auto report = service.report();
    service.stop();

    EXPECT_EQ(report.tenantsRejected, 1);
    EXPECT_EQ(report.rejected, 1);
    EXPECT_EQ(report.completed, 0);
}

TEST(Service, CachedPlanIsByteIdenticalToFreshPlan)
{
    Service service(platform::pixel7a(), quickConfig(1));
    service.registerApp(apps::octreeApp());
    service.start();

    std::mutex mu;
    std::vector<RequestResult> results;
    for (int i = 0; i < 6; ++i) {
        Request req;
        req.session = 0;
        req.app = "Octree";
        req.onDone = [&](const RequestResult& r) {
            std::lock_guard<std::mutex> lock(mu);
            results.push_back(r);
        };
        ASSERT_TRUE(service.submit(std::move(req)));
        service.drain(); // serialize so every request sees idle load
    }
    service.stop();

    ASSERT_EQ(results.size(), 6u);
    EXPECT_TRUE(results.front().planned);
    EXPECT_FALSE(results.front().cacheHit);

    // Every cached entry equals a from-scratch planner run for its key,
    // and every hit served exactly the schedule the first plan built.
    for (const auto& [k, cached] : service.cache().snapshot()) {
        const auto fresh = service.freshPlan(k.app, k.loadBucket,
                                             k.lease, k.leaseGroups);
        EXPECT_EQ(cached.schedule, fresh.schedule);
        EXPECT_DOUBLE_EQ(cached.predictedLatencySeconds,
                         fresh.predictedLatencySeconds);
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
        EXPECT_TRUE(results[i].cacheHit);
        EXPECT_EQ(results[i].schedule, results.front().schedule);
        // Identical plan + deterministic backend = identical run.
        EXPECT_DOUBLE_EQ(results[i].run.makespanSeconds,
                         results.front().run.makespanSeconds);
    }
}

TEST(Service, DisablingTheCachePlansPerRequest)
{
    auto cfg = quickConfig(1);
    cfg.cacheEnabled = false;
    Service service(platform::pixel7a(), cfg);
    service.registerApp(apps::octreeApp());
    service.start();
    for (int i = 0; i < 4; ++i)
        service.submit({0, "Octree", nullptr});
    service.stop();
    const auto report = service.report();
    EXPECT_EQ(report.completed, 4);
    EXPECT_EQ(report.plans, 4);
    EXPECT_EQ(report.cache.hits + report.cache.misses, 0u);
}

TEST(Service, OverflowDropsAreCountedNotLost)
{
    auto cfg = quickConfig(1);
    cfg.queueCapacity = 2;
    Service service(platform::pixel7a(), cfg);
    service.registerApp(apps::octreeApp());
    // Not started: the queue never drains, so overflow is guaranteed
    // deterministic... but submit() on a stopped service refuses.
    EXPECT_FALSE(service.submit({0, "Octree", nullptr}));
    service.start();
    int admitted = 0;
    for (int i = 0; i < 50; ++i)
        if (service.submit({0, "Octree", nullptr}))
            ++admitted;
    service.stop();
    const auto report = service.report();
    EXPECT_EQ(report.completed, admitted);
    EXPECT_EQ(report.submitted + report.dropped, 51);
    EXPECT_GT(report.dropped, 0);
}

TEST(Service, UnknownAppIsRejectedNotFatal)
{
    Service service(platform::pixel7a(), quickConfig(1));
    service.registerApp(apps::octreeApp());
    service.start();

    // A request naming no registered app is refused at admission: it
    // never reaches a worker, and its callback never runs.
    bool rejectedRan = false;
    EXPECT_FALSE(service.submit(
        {0, "NoSuchApp", [&](const RequestResult&) { rejectedRan = true; }}));
    // The service keeps serving.
    EXPECT_TRUE(service.submit({0, "Octree", nullptr}));
    constexpr int kSubmits = 2;
    service.stop();

    const auto report = service.report();
    EXPECT_FALSE(rejectedRan);
    EXPECT_EQ(report.rejected, 1);
    EXPECT_EQ(report.submitted, 1);
    EXPECT_EQ(report.completed, 1);
    EXPECT_EQ(report.completed + report.dropped + report.rejected,
              kSubmits);

    std::ostringstream os;
    report.writeJson(os);
    const auto json = bt::json::parse(os.str());
    ASSERT_TRUE(json.has_value()) << os.str();
    EXPECT_EQ(json->at("rejected").exactUnsigned(), 1u);
}

TEST(Service, MergedTraceTagsSessions)
{
    auto cfg = quickConfig();
    cfg.collectTraces = true;
    cfg.maxTracedRequests = 8;
    Service service(platform::pixel7a(), cfg);
    service.registerApp(apps::octreeApp());
    service.start();
    for (int i = 0; i < 8; ++i)
        service.submit({i % 2, "Octree", nullptr});
    service.stop();

    const auto report = service.report();
    ASSERT_FALSE(report.trace.empty());
    const std::string json = report.trace.chromeJson();
    // Both tenants' sessions appear, tagged, in the merged export.
    EXPECT_NE(json.find("\"session\":0"), std::string::npos);
    EXPECT_NE(json.find("\"session\":1"), std::string::npos);
    EXPECT_NE(json.find("\"s0:"), std::string::npos);
    EXPECT_NE(json.find("\"s1:"), std::string::npos);
}

TEST(Service, ReportJsonIsWellFormed)
{
    Service service(platform::pixel7a(), quickConfig(1));
    service.registerApp(apps::octreeApp());
    service.start();
    for (int i = 0; i < 3; ++i)
        service.submit({i, "Octree", nullptr});
    service.stop();

    std::ostringstream os;
    service.report().writeJson(os);
    // CI parses this report.
    const auto json = bt::json::parse(os.str());
    ASSERT_TRUE(json.has_value()) << os.str();
    EXPECT_EQ(json->at("dropped").exactUnsigned(), 0u);
    EXPECT_EQ(json->at("completed").exactUnsigned(), 3u);
    EXPECT_EQ(json->at("cache").at("hit_rate").kind,
              bt::json::Value::Kind::Number);
    EXPECT_EQ(json->at("sessions").members.size(), 3u);
}

// Concurrent submitters against a running pool: the TSan end-to-end
// workload. Checks nothing is lost or double-counted under contention.

TEST(Service, ConcurrentSubmittersAreAccountedExactly)
{
    auto cfg = quickConfig(4);
    cfg.queueCapacity = 1024;
    cfg.run.numTasks = 3;
    Service service(platform::pixel7a(), cfg);
    service.registerApp(apps::octreeApp());
    service.registerApp(apps::featuresApp());
    service.start();

    constexpr int kSubmitters = 4;
    constexpr int kPerThread = 25;
    std::atomic<int> admitted{0};
    std::atomic<int> done{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < kSubmitters; ++t) {
        submitters.emplace_back([&service, &admitted, &done, t] {
            for (int i = 0; i < kPerThread; ++i) {
                Request req;
                req.session = t;
                req.app = (i % 2 == 0) ? "Octree" : "FeatureExtract";
                req.onDone
                    = [&done](const RequestResult&) { done.fetch_add(1); };
                if (service.submit(std::move(req)))
                    admitted.fetch_add(1);
            }
        });
    }
    for (auto& thread : submitters)
        thread.join();
    service.drain();
    const auto report = service.report();
    service.stop();

    EXPECT_EQ(report.completed, admitted.load());
    EXPECT_EQ(done.load(), admitted.load());
    EXPECT_EQ(report.dropped,
              kSubmitters * kPerThread - admitted.load());
    EXPECT_EQ(report.failed, 0);
    EXPECT_GT(report.cache.hitRate(), 0.0);
}

} // namespace
} // namespace bt::service
