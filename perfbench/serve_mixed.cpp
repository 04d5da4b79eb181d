/**
 * @file
 * serve_mixed: one bt::Service on pixel7a with one worker. Tenants are
 * Octree and FeatureExtract, mixed by seed. Set-up warms every (bucket,
 * lease) key of the schedule cache, so the planner stays in set-up; the
 * measured rounds stress admission, the cache's hit path and the
 * per-request DES:
 *
 *  1. an open loop of seeded Poisson arrivals at one frozen rate, each
 *     request timed from its due time (so generator stalls count);
 *  2. a closed loop of two sessions, each issuing its next request from
 *     the previous one's onDone.
 *
 * The worker starts once per run and serves every round. The end-to-end
 * latency comes from the closed loop: the open loop's swings with how
 * promptly the host wakes the idle worker, so it is a per-layer metric.
 *
 * Why one worker: with nproc - 1 workers contending for the admission
 * queue, the closed loop's p50 and rate spread by a quarter to a third
 * between runs of the same code on a 4-vCPU virtual machine, which
 * measured how the host scheduled the workers rather than the request
 * path. With one worker the closed loop runs on that worker alone: each
 * onDone resubmits from it, and it picks the next request without
 * sleeping.
 */

#include <algorithm>
#include <atomic>
#include <memory>

#include "apps/features.hpp"
#include "apps/octree_app.hpp"
#include "bt.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/sim_executor.hpp"
#include "workloads.hpp"

namespace bt::perfbench {

namespace {

constexpr int kWorkers = 1;

/**
 * Offered rate of the open loop, frozen: about a fifth of the closed-loop
 * capacity (~20k/s) of a 4-core AVX2 x86 virtual machine with one worker.
 * At half of capacity a host stall of a few tens of milliseconds there
 * could tip the service into a backlog that lasted the whole round.
 */
constexpr double kOpenLoopRps = 4000.0;

/** Closed-loop capacity of that host; sizes a closed-loop round so it
 *  lasts about as long as an open-loop round. */
constexpr double kClosedLoopNominalRps = 20000.0;

/** Closed-loop completions per window (~25 ms on that host). */
constexpr std::size_t kWindow = 500;

/** Pipeline tasks per request (the serving benchmarks' request size). */
constexpr int kTasksPerRequest = 12;

const char* const kTenants[] = {"Octree", "FeatureExtract"};

service::ServiceConfig
servingConfig(std::uint64_t seed)
{
    service::ServiceConfig cfg;
    cfg.workers = kWorkers;
    cfg.queueCapacity = 1 << 16; // the open loop stays below capacity
    cfg.run.numTasks = kTasksPerRequest;
    cfg.run.noiseSalt = seed;
    return cfg;
}

/** Largest of @p xs (0 for none). */
double
maxOf(const std::vector<double>& xs)
{
    return xs.empty() ? 0.0 : *std::max_element(xs.begin(), xs.end());
}

/** The seeded tenant of the next request. */
const char*
nextTenant(Rng& rng)
{
    return kTenants[rng.nextBounded(2)];
}

/** A started service whose cache holds a plan for every key. */
struct Serving
{
    service::ServiceConfig cfg;
    std::unique_ptr<service::Service> svc;
    std::size_t keys = 0; ///< (tenant, bucket, lease) keys to warm
    service::ServiceReport afterWarm;
};

std::unique_ptr<Serving>
startWarm(std::uint64_t seed, Outcome& out)
{
    auto s = std::make_unique<Serving>();
    s->cfg = servingConfig(seed);
    const platform::SocDescription soc = platform::pixel7a();
    s->svc = std::make_unique<service::Service>(soc, s->cfg);
    out.check(s->svc->registerApp(apps::octreeApp()),
              "Octree tenant refused");
    out.check(s->svc->registerApp(apps::featuresApp()),
              "FeatureExtract tenant refused");

    // Every key the request path can derive: the lease manager the
    // service builds from the same config, over every load bucket that
    // some in-flight count quantizes to (with one worker, not all do).
    // In-flight counts past 2 x workers + 1 all map to the top bucket.
    const service::PuLeaseManager leases(
        soc, std::min(s->cfg.workers, soc.numPus()));
    std::vector<char> reachable(static_cast<std::size_t>(s->cfg.loadBuckets),
                                0);
    for (int inflight = 0; inflight <= 2 * s->cfg.workers + 1; ++inflight)
        reachable[static_cast<std::size_t>(service::quantizeLoad(
            inflight, s->cfg.workers, s->cfg.loadBuckets))] = 1;
    for (int b = 0; b < s->cfg.loadBuckets; ++b)
        if (reachable[static_cast<std::size_t>(b)])
            s->keys += std::size(kTenants)
                * static_cast<std::size_t>(leases.groupsAt(b));

    s->svc->start();
    // The bucket a request plans under depends on how many requests are
    // in flight when a worker picks it up, and the lease on which worker
    // does: bursts of every size reach every (bucket, worker) pair. A
    // fixed minimum of bursts keeps the set-up's work the same from run
    // to run; more follow only until every key is resident.
    const int sizes = 2 * s->cfg.workers + 2;
    const int minBursts = 8 * sizes;
    for (int burst = 0; burst < minBursts
         || s->svc->cache().stats().size < s->keys;
         ++burst) {
        if (burst >= 50000) {
            out.check(false, "warm-up did not plan every cache key");
            break;
        }
        const char* app = kTenants[(burst / sizes) % 2];
        for (int i = 0; i <= burst % sizes; ++i)
            s->svc->submit({0, app, {}});
        s->svc->drain();
    }
    s->afterWarm = s->svc->report();
    return s;
}

/** Per-request records of the open loop. */
struct OpenLoop
{
    std::vector<double> latencyMs; ///< completion - due time
    std::vector<double> lateUs;    ///< submit - due time
    std::vector<double> queueUs;
    std::vector<double> serviceUs;
    std::int64_t offered = 0;
    std::int64_t dropped = 0;
    std::int64_t failed = 0;
};

OpenLoop
openLoop(service::Service& svc, std::uint64_t seed, double seconds)
{
    const std::vector<double> due
        = poissonSchedule(seed, kOpenLoopRps, seconds);
    const std::size_t n = due.size();
    std::vector<double> latency(n, -1.0), queue(n, 0.0), serve(n, 0.0);
    std::vector<char> ok(n, 0);
    OpenLoop r;
    r.lateUs.resize(n);
    Rng mix(hashCombine(seed, 0x0be7));

    const auto t0 = Clock::now() + std::chrono::milliseconds(2);
    for (std::size_t i = 0; i < n; ++i) {
        const auto dueAt = t0
            + std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(due[i]));
        auto now = Clock::now();
        while (now < dueAt)
            now = Clock::now();
        r.lateUs[i] = secondsBetween(dueAt, now) * 1e6;
        service::Request req;
        req.session = static_cast<int>(i % 8);
        req.app = nextTenant(mix);
        req.onDone = [&latency, &queue, &serve, &ok, i,
                      dueAt](const service::RequestResult& res) {
            latency[i] = secondsBetween(dueAt, Clock::now()) * 1e3;
            queue[i] = res.queueSeconds * 1e6;
            serve[i] = res.serviceSeconds * 1e6;
            ok[i] = res.ok ? 1 : 0;
        };
        ++r.offered;
        if (!svc.submit(std::move(req)))
            ++r.dropped;
    }
    svc.drain(); // orders every onDone write before the reads below

    for (std::size_t i = 0; i < n; ++i) {
        if (latency[i] < 0.0)
            continue;
        r.failed += ok[i] ? 0 : 1;
        r.latencyMs.push_back(latency[i]);
        r.queueUs.push_back(queue[i]);
        r.serviceUs.push_back(serve[i]);
    }
    return r;
}

/** kWindow consecutive closed-loop completions, all on one core. */
struct Window
{
    double rps = 0.0;   ///< completions per second
    double p50Ms = 0.0; ///< median admission-to-completion latency
};

/**
 * Closed loop: each session issues its next request from the previous
 * one's onDone until the round's request count is used up. A count, not
 * a deadline, bounds the round, so the service's per-request state (and
 * with it the run's peak memory) is the same on every run of a seed.
 *
 * Every onDone runs on the one worker, so the completion records have
 * one writer. After each kWindow completions the onDone moves the worker
 * to the next core, so each window measures one core.
 */
class ClosedLoop
{
  public:
    ClosedLoop(service::Service& svc, std::uint64_t seed, int sessions,
               std::int64_t requests, CoreRotation& cores)
        : svc_(svc), cores_(cores), tickets_(requests)
    {
        for (int s = 0; s < sessions; ++s)
            mix_.emplace_back(hashCombine(seed, 0xc105edull + s));
        doneAt_.reserve(static_cast<std::size_t>(requests));
        latencyMs_.reserve(static_cast<std::size_t>(requests));
    }

    ClosedLoop(const ClosedLoop&) = delete;
    ClosedLoop& operator=(const ClosedLoop&) = delete;

    /** Serve every request; returns the round's whole windows. */
    std::vector<Window>
    run()
    {
        const auto start = Clock::now();
        for (int s = 0; s < static_cast<int>(mix_.size()); ++s)
            issue(s);
        svc_.drain(); // a chain resubmits before the worker goes idle
        std::vector<Window> windows;
        auto from = start;
        for (std::size_t end = kWindow; end <= doneAt_.size();
             end += kWindow) {
            const std::span<const double> lat(
                latencyMs_.data() + (end - kWindow), kWindow);
            windows.push_back(
                {static_cast<double>(kWindow)
                     / secondsBetween(from, doneAt_[end - 1]),
                 median(lat)});
            from = doneAt_[end - 1];
        }
        return windows;
    }

    std::int64_t offered() const { return offered_.load(); }
    std::int64_t dropped() const { return dropped_.load(); }
    std::int64_t failed() const { return failed_.load(); }

  private:
    void
    issue(int session)
    {
        if (tickets_.fetch_sub(1) <= 0)
            return;
        // One session's chain is sequential, so its Rng has one user at
        // a time.
        service::Request req;
        req.session = session;
        req.app = nextTenant(mix_[static_cast<std::size_t>(session)]);
        req.onDone = [this, session](const service::RequestResult& r) {
            doneAt_.push_back(Clock::now());
            latencyMs_.push_back(r.latencySeconds * 1e3);
            if (doneAt_.size() % kWindow == 0)
                cores_.next();
            if (!r.ok)
                failed_.fetch_add(1);
            issue(session);
        };
        offered_.fetch_add(1);
        if (!svc_.submit(std::move(req)))
            dropped_.fetch_add(1);
    }

    service::Service& svc_;
    CoreRotation& cores_;
    std::vector<Rng> mix_;
    std::vector<Clock::time_point> doneAt_; ///< per completion, in order
    std::vector<double> latencyMs_;         ///< per completion, in order
    std::atomic<std::int64_t> tickets_;
    std::atomic<std::int64_t> offered_{0};
    std::atomic<std::int64_t> dropped_{0};
    std::atomic<std::int64_t> failed_{0};
};

/** Everything the measured traffic of one run produced. */
struct Traffic
{
    std::vector<double> roundOpenP50Ms; ///< open-loop p50 per round
    std::vector<double> windowRps;      ///< closed-loop rate per window
    std::vector<double> windowP50Ms;    ///< closed-loop p50 per window
    OpenLoop open;                      ///< every round's open-loop records
    std::int64_t offered = 0;
    std::int64_t dropped = 0;
    std::int64_t failed = 0;
};

/**
 * Alternate the two phases over twenty rounds within @p seconds, so one
 * slow stretch of the host moves some rounds, not the run. An untimed
 * warm open-loop phase goes first: right after set-up the idle worker
 * sometimes falls behind the first burst of arrivals.
 */
Traffic
drive(Serving& s, std::uint64_t seed, double seconds)
{
    constexpr int kRounds = 20;
    const double phase = seconds / (2 * kRounds);
    const auto closedRequests
        = static_cast<std::int64_t>(phase * kClosedLoopNominalRps);
    CoreRotation cores;
    Traffic t;
    auto count = [&t](std::int64_t offered, std::int64_t dropped,
                      std::int64_t failed) {
        t.offered += offered;
        t.dropped += dropped;
        t.failed += failed;
    };
    const OpenLoop warm = openLoop(*s.svc, hashCombine(seed, 0x3a53), 0.2);
    count(warm.offered, warm.dropped, warm.failed);
    for (int round = 0; round < kRounds; ++round) {
        const std::uint64_t roundSeed = hashCombine(seed, round);
        const OpenLoop open = openLoop(*s.svc, roundSeed, phase);
        ClosedLoop closed(*s.svc, roundSeed, 2 * s.cfg.workers,
                          closedRequests, cores);
        for (const Window& w : closed.run()) {
            t.windowRps.push_back(w.rps);
            t.windowP50Ms.push_back(w.p50Ms);
        }
        t.roundOpenP50Ms.push_back(median(open.latencyMs));
        for (auto v : {&OpenLoop::latencyMs, &OpenLoop::lateUs,
                        &OpenLoop::queueUs, &OpenLoop::serviceUs})
            (t.open.*v).insert((t.open.*v).end(), (open.*v).begin(),
                               (open.*v).end());
        count(open.offered + closed.offered(),
              open.dropped + closed.dropped(),
              open.failed + closed.failed());
    }
    return t;
}

/**
 * Accounting and plan identity: every admitted request completed, and
 * every resident cache entry is byte-identical to a fresh plan of its
 * key. Returns the request-path plans made after warm-up.
 */
std::int64_t
checkService(const Serving& s, std::int64_t offered, std::int64_t dropped,
             Outcome& out)
{
    const service::ServiceReport rep = s.svc->report();
    const service::ServiceReport& warm = s.afterWarm;
    out.check(rep.completed == rep.submitted,
              "service completed " + std::to_string(rep.completed)
                  + " of " + std::to_string(rep.submitted)
                  + " admitted requests");
    out.check((rep.completed - warm.completed) + (rep.dropped - warm.dropped)
                  == offered,
              "completed + dropped != submitted in the measured phases");
    out.check(rep.dropped - warm.dropped == dropped,
              "service and generator disagree on drops");

    const auto entries = s.svc->cache().snapshot();
    out.check(entries.size() == s.keys,
              "cache holds " + std::to_string(entries.size()) + " of "
                  + std::to_string(s.keys) + " keys");
    for (const auto& [key, plan] : entries) {
        const service::CachedPlan fresh = s.svc->freshPlan(
            key.app, key.loadBucket, key.lease, key.leaseGroups);
        out.check(fresh.schedule.toAssignment()
                          == plan.schedule.toAssignment()
                      && fresh.predictedLatencySeconds
                          == plan.predictedLatencySeconds
                      && fresh.predictedDemandGbps
                          == plan.predictedDemandGbps,
                  "cached plan of " + key.app + " bucket "
                      + std::to_string(key.loadBucket) + " lease "
                      + std::to_string(key.lease)
                      + " differs from a fresh plan");
    }
    const std::int64_t plans = rep.plans - warm.plans;
    if (plans > 0)
        Outcome::note("FLAG serve_mixed: " + std::to_string(plans)
                      + " request-path plans after warm-up");
    return plans;
}

} // namespace

void
serveMixed(const RunSpec& spec, Outcome& out)
{
    std::unique_ptr<Serving> s;
    const double setup = medianSetup(31, [&] {
        s.reset(); // stop the previous round's worker first
        s = startWarm(spec.seed, out);
    });

    const Traffic t = drive(*s, spec.seed, spec.seconds);
    checkService(*s, t.offered, t.dropped, out);
    out.attempted += t.offered;
    out.failed += t.dropped + t.failed;

    // The fast decile of the windows, as plan_flow reports its sweeps:
    // the 90th percentile of the rates and the 10th of the p50s.
    const double rps = fastRate(t.windowRps);
    const double p50Ms = percentile(t.windowP50Ms, 10.0);
    const Tail tail = tailOf(t.open.latencyMs);
    const Tail late = tailOf(t.open.lateUs);
    Outcome::note(
        "serve_mixed: closed loop " + std::to_string(t.windowRps.size())
        + " windows of " + std::to_string(kWindow) + " requests, rate "
        + std::to_string(rps) + " rps (median window "
        + std::to_string(median(t.windowRps)) + "), p50 "
        + std::to_string(p50Ms) + " ms (median window "
        + std::to_string(median(t.windowP50Ms)) + "); open loop "
        + std::to_string(t.open.latencyMs.size()) + " requests at "
        + std::to_string(kOpenLoopRps) + " rps, p50 "
        + std::to_string(median(t.roundOpenP50Ms)) + " ms, p"
        + std::to_string(tail.percentile) + " "
        + std::to_string(tail.value) + " ms, generator late p"
        + std::to_string(late.percentile) + " "
        + std::to_string(late.value) + " us, max stall "
        + std::to_string(maxOf(t.open.lateUs) / 1e3)
        + " ms");

    out.metrics.add("setup_s", setup, "s");
    out.metrics.add("latency_ms", p50Ms, "ms");
    out.metrics.add("throughput_per_s", rps, "1/s");
    out.metrics.add("peak_rss_mb", peakRssMb(), "MiB");
}

void
serveMixedLayers(const RunSpec& spec, double seconds, Outcome& out)
{
    const auto s = startWarm(spec.seed, out);
    const service::ServiceReport warm = s->afterWarm;

    const Traffic traffic = drive(*s, spec.seed, seconds * 0.6);
    const OpenLoop& open = traffic.open;
    const service::ServiceReport after = s->svc->report();
    const std::int64_t plans
        = checkService(*s, traffic.offered, traffic.dropped, out);
    out.attempted += traffic.offered;
    out.failed += traffic.dropped + traffic.failed;

    // Cache hit path, called directly: a private cache holding the
    // service's entries, looked up in key order.
    const auto entries = s->svc->cache().snapshot();
    service::ScheduleCache cache(s->cfg.cache);
    for (const auto& [key, plan] : entries)
        cache.insert(key, plan);
    std::vector<double> lookupNs;
    std::size_t hits = 0;
    const auto tCache = Clock::now();
    constexpr int kBatch = 2000;
    while (secondsSince(tCache) < seconds * 0.1) {
        const auto t = Clock::now();
        for (int i = 0; i < kBatch; ++i)
            hits += cache.lookup(entries[static_cast<std::size_t>(i)
                                         % entries.size()]
                                     .first)
                        .has_value();
        lookupNs.push_back(secondsSince(t) * 1e9 / kBatch);
    }
    out.check(hits == lookupNs.size() * kBatch,
              "direct cache lookups missed");

    // The per-request DES, called directly on the whole-SoC plans, with
    // trace recording off (as the service runs it) and on.
    const platform::SocDescription soc = platform::pixel7a();
    const platform::PerfModel model(soc); // keeps a reference to soc
    runtime::RunConfig untraced = s->cfg.run;
    untraced.recordTrace = false;
    runtime::RunConfig traced = s->cfg.run;
    traced.recordTrace = true;
    const core::SimExecutor plain(model, untraced);
    const core::SimExecutor tracing(model, traced);
    std::vector<const service::CachedPlan*> plansB0;
    std::vector<const core::Application*> appsB0;
    const core::Application octree = apps::octreeApp();
    const core::Application features = apps::featuresApp();
    for (const auto& [key, plan] : entries) {
        if (key.loadBucket != 0)
            continue;
        plansB0.push_back(&plan);
        appsB0.push_back(key.app == "Octree" ? &octree : &features);
    }
    std::vector<double> desUs, desTracedUs;
    const auto tDes = Clock::now();
    while (secondsSince(tDes) < seconds * 0.3) {
        for (std::size_t i = 0; i < plansB0.size(); ++i) {
            auto t = Clock::now();
            const runtime::RunResult a
                = plain.execute(*appsB0[i], plansB0[i]->schedule);
            desUs.push_back(secondsSince(t) * 1e6);
            t = Clock::now();
            const runtime::RunResult b
                = tracing.execute(*appsB0[i], plansB0[i]->schedule);
            desTracedUs.push_back(secondsSince(t) * 1e6);
            out.check(a.makespanSeconds == b.makespanSeconds,
                      "trace recording changed a DES makespan");
        }
    }

    const double hitTotal
        = static_cast<double>((after.cache.hits - warm.cache.hits)
                              + (after.cache.misses - warm.cache.misses));
    const Tail queueTail = tailOf(open.queueUs);
    const Tail latTail = tailOf(open.latencyMs);
    auto& m = out.metrics;
    m.add("service.queue_wait_p50_us", median(open.queueUs), "us");
    m.add("service.queue_wait_tail_us", queueTail.value, "us");
    m.add("service.service_p50_us", median(open.serviceUs), "us");
    m.add("service.open_p50_ms", median(traffic.roundOpenP50Ms), "ms");
    m.add("service.tail_ms", latTail.value, "ms");
    m.add("service.tail_pct", latTail.percentile, "pct");
    m.add("service.plans_in_run", static_cast<double>(plans), "count");
    m.add("service.plan_ms",
          warm.plans > 0 ? warm.planSeconds / warm.plans * 1e3 : 0.0, "ms");
    m.add("cache.lookup_ns", median(lookupNs), "ns");
    m.add("cache.hit_rate",
          hitTotal > 0 ? (after.cache.hits - warm.cache.hits) / hitTotal
                       : 0.0,
          "ratio");
    m.add("gen.late_tail_us", tailOf(open.lateUs).value, "us");
    m.add("gen.max_stall_ms", maxOf(open.lateUs) / 1e3, "ms");
    m.add("des.run_us", median(desUs), "us");
    m.add("des.run_traced_us", median(desTracedUs), "us");
    m.add("des.trace_overhead",
          median(desTracedUs) / median(desUs) - 1.0, "ratio");
}

} // namespace bt::perfbench
