/**
 * @file
 * Counted pin on the heap allocations of one virtual-time (DES) run.
 * This executable replaces the global operator new with one that counts
 * calls, so the pin is a deterministic count, not a wall-clock ratio.
 * A run's allocations must not depend on how many tasks it runs: the
 * event loop allocates nothing per event, so 30 and 300 tasks allocate
 * the same number of times, on static and greedy dispatch alike.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "apps/octree_app.hpp"
#include "core/optimizer.hpp"
#include "core/profiler.hpp"
#include "platform/devices.hpp"
#include "runtime/virtual_backend.hpp"

namespace {

std::atomic<long> g_allocations{0};

void*
counted(std::size_t n)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

} // namespace

void* operator new(std::size_t n) { return counted(n); }
void* operator new[](std::size_t n) { return counted(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace bt::runtime {
namespace {

/** Allocations @p run makes. */
template <typename F>
long
allocationsOf(F&& run)
{
    const long before = g_allocations.load(std::memory_order_relaxed);
    run();
    return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(DesAllocations, IndependentOfTaskCountAndBounded)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::octreeApp();
    const auto profile = core::Profiler(model).profile(app);
    core::Optimizer optimizer(soc, profile.interference);
    const core::Schedule best = optimizer.optimize().front().schedule;
    const VirtualTimeBackend backend(model);
    const GreedyDispatch greedy{&profile.interference};

    const auto static_run = [&](int tasks, bool trace) {
        RunConfig cfg;
        cfg.numTasks = tasks;
        cfg.recordTrace = trace;
        return allocationsOf([&] { (void)backend.run(app, best, cfg); });
    };
    const auto greedy_run = [&](int tasks) {
        RunConfig cfg;
        cfg.numTasks = tasks;
        cfg.recordTrace = false;
        return allocationsOf([&] { (void)backend.run(app, greedy, cfg); });
    };
    // The backend keeps, per policy, the noise factors, rates and power
    // its runs of the app drew and folded, noise for the longest run
    // so far; run both policies at 300 tasks first so the counts below
    // are per-run allocations only.
    (void)static_run(300, false);
    (void)greedy_run(300);

    const long static_30 = static_run(30, false);
    EXPECT_EQ(static_30, static_run(300, false));
    EXPECT_EQ(static_run(30, true), static_run(300, true));
    EXPECT_EQ(greedy_run(30), greedy_run(300));
    // The static run of this predicted-best 4-chunk schedule allocates
    // 17 times: the session (4), the recovery controller (2), the run's
    // flat arrays (5), the engine's buffers (4) and the result (2). A
    // run that allocates per slot queue or per armed timer again reads
    // far above the bound (81 with a std::deque per slot and
    // type-erased timers; 24 when each run presized a memo of its
    // own).
    EXPECT_LE(static_30, 20);
    EXPECT_GT(static_30, 0); // the counting operator new is linked in
}

} // namespace
} // namespace bt::runtime
