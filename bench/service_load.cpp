/**
 * @file
 * Serving load-generator suite (BENCH_service.json): what the schedule
 * cache buys a multi-tenant server, measured like a serving system -
 * achieved throughput and latency percentiles against offered load.
 *
 * Flavours per workload mix:
 *   *_ColdPlan  — closed loop, cache disabled: every request pays the
 *                 full profile -> optimize planner on the hot path
 *                 (the bt::Framework-per-request baseline);
 *   *_Cached    — the same offered load with the keyed schedule cache:
 *                 plan once per (app, load-bucket, lease) key, serve
 *                 every other request from a reader-locked shard.
 * The headline comparison is achieved_rps between the two flavours at
 * equal offered load (the cached path must hold a >= 10x advantage;
 * CI enforces it), with p50_ms/p99_ms, hit_rate and plans_per_request
 * (planner calls per completed request: 1 cold, near 0 cached)
 * alongside. achieved_rps is the median over rounds of the requests a
 * round admits per second of its submit-to-drain span; the service is
 * started once before the rounds and stopped after them, so spawning
 * and joining its workers is not timed.
 *
 * BM_Serve_OpenLoop offers requests at a fixed rate (the Arg, QPS)
 * instead of back-to-back, showing achieved vs offered throughput and
 * the admission drops once the offered rate exceeds capacity.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "apps/features.hpp"
#include "apps/octree_app.hpp"
#include "bt.hpp"
#include "common/stats.hpp"
#include "platform/devices.hpp"

namespace {

using namespace bt;

constexpr int kRequestsPerRound = 64;
constexpr int kSessions = 4;

service::ServiceConfig
servingConfig(bool cached)
{
    service::ServiceConfig cfg;
    cfg.workers = 4;
    cfg.queueCapacity = 4096; // closed loop: never drop
    cfg.cacheEnabled = cached;
    cfg.run.numTasks = 12;
    return cfg;
}

using Clock = std::chrono::steady_clock;

/** Submit request @p i of the mix; true if admitted. */
bool
submitOne(Service& svc, int i)
{
    service::Request req;
    req.session = i % kSessions;
    req.app = (i % 3 == 0) ? "FeatureExtract" : "Octree";
    return svc.submit(std::move(req));
}

/** Requests admitted per second between @p t0 and now. */
double
admittedRps(int admitted, Clock::time_point t0)
{
    const std::chrono::duration<double> span = Clock::now() - t0;
    return span.count() > 0.0 ? admitted / span.count() : 0.0;
}

void
reportCounters(benchmark::State& state, const ServiceReport& report,
               const std::vector<double>& round_rps)
{
    state.counters["achieved_rps"]
        = round_rps.empty() ? 0.0 : percentile(round_rps, 50.0);
    state.counters["plans_per_request"] = report.completed > 0
        ? static_cast<double>(report.plans)
            / static_cast<double>(report.completed)
        : 0.0;
    state.counters["p50_ms"] = report.p50Ms;
    state.counters["p99_ms"] = report.p99Ms;
    state.counters["hit_rate"] = report.cache.hitRate();
    state.counters["plans"] = static_cast<double>(report.plans);
    state.counters["completed"] = static_cast<double>(report.completed);
    state.counters["dropped"] = static_cast<double>(report.dropped);
    state.counters["failed"] = static_cast<double>(report.failed);
}

void
BM_Serve(benchmark::State& state, bool cached)
{
    Service svc(platform::pixel7a(), servingConfig(cached));
    BT_ASSERT(svc.registerApp(apps::octreeApp()));
    BT_ASSERT(svc.registerApp(apps::featuresApp()));

    std::vector<double> round_rps;
    svc.start();
    for (auto _ : state) {
        // One closed-loop round: submit the mix back-to-back, then drain.
        const auto t0 = Clock::now();
        int admitted = 0;
        for (int i = 0; i < kRequestsPerRound; ++i)
            admitted += submitOne(svc, i) ? 1 : 0;
        svc.drain();
        round_rps.push_back(admittedRps(admitted, t0));
    }
    svc.stop();
    reportCounters(state, svc.report(), round_rps);
    state.SetItemsProcessed(state.iterations() * kRequestsPerRound);
}
void
BM_Serve_ColdPlan(benchmark::State& state)
{
    BM_Serve(state, false);
}
void
BM_Serve_Cached(benchmark::State& state)
{
    BM_Serve(state, true);
}
BENCHMARK(BM_Serve_ColdPlan)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Serve_Cached)->Unit(benchmark::kMillisecond);

/**
 * Open loop at a fixed offered rate (Arg = QPS): requests are released
 * on a schedule regardless of completions, so queueing delay and drops
 * appear once the offered rate exceeds the service capacity.
 */
void
BM_Serve_OpenLoop(benchmark::State& state)
{
    const int qps = static_cast<int>(state.range(0));
    auto cfg = servingConfig(true);
    cfg.queueCapacity = 256; // bounded: overload shows up as drops
    Service svc(platform::pixel7a(), cfg);
    BT_ASSERT(svc.registerApp(apps::octreeApp()));
    BT_ASSERT(svc.registerApp(apps::featuresApp()));

    constexpr int kOpenRequests = 200;
    const auto interval
        = std::chrono::nanoseconds(1'000'000'000ll / qps);

    std::vector<double> round_rps;
    svc.start();
    for (auto _ : state) {
        const auto t0 = Clock::now();
        auto release = t0;
        int admitted = 0;
        for (int i = 0; i < kOpenRequests; ++i) {
            std::this_thread::sleep_until(release);
            release += interval;
            admitted += submitOne(svc, i) ? 1 : 0;
        }
        svc.drain();
        round_rps.push_back(admittedRps(admitted, t0));
    }
    svc.stop();
    reportCounters(state, svc.report(), round_rps);
    state.counters["offered_qps"] = static_cast<double>(qps);
    state.SetItemsProcessed(state.iterations() * kOpenRequests);
}
BENCHMARK(BM_Serve_OpenLoop)
    ->Unit(benchmark::kMillisecond)
    ->Arg(500)
    ->Arg(2000)
    ->Arg(8000);

} // namespace
