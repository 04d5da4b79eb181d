/**
 * @file
 * Unit tests for the discrete-event processor-sharing engine: exact
 * integration under constant and changing rates, timer ordering, and
 * dynamic task injection from callbacks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "sim/engine.hpp"

namespace bt::sim {
namespace {

/** Rate function giving every task the same constant rate. */
RateFn
constantRate(double r)
{
    return [r](std::span<const ActiveTask> active,
               std::span<double> rates) {
        for (std::size_t i = 0; i < active.size(); ++i)
            rates[i] = r;
    };
}

TEST(Engine, SingleTaskDuration)
{
    Engine e(constantRate(2.0)); // 2 work units per second
    double done_at = -1.0;
    e.onComplete([&](TaskId, std::uint64_t) { done_at = e.now(); });
    e.startTask(0, 3.0); // 3 units at rate 2 => 1.5 s
    e.run();
    EXPECT_NEAR(done_at, 1.5, 1e-12);
}

TEST(Engine, TwoIndependentTasksFinishInOrder)
{
    Engine e(constantRate(1.0));
    std::vector<std::uint64_t> order;
    e.onComplete([&](TaskId, std::uint64_t tag) {
        order.push_back(tag);
    });
    e.startTask(1, 2.0);
    e.startTask(2, 1.0);
    e.run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 2u);
    EXPECT_EQ(order[1], 1u);
    EXPECT_NEAR(e.now(), 2.0, 1e-12);
}

TEST(Engine, ProcessorSharingSlowsTasks)
{
    // Rate = 1 / number of active tasks: two tasks of one unit each
    // should take 2 s total (1 s shared, then... both finish at 2 s).
    Engine e([](std::span<const ActiveTask> active,
                std::span<double> rates) {
        for (std::size_t i = 0; i < active.size(); ++i)
            rates[i] = 1.0 / static_cast<double>(active.size());
    });
    std::map<std::uint64_t, double> done;
    e.onComplete([&](TaskId, std::uint64_t tag) {
        done[tag] = e.now();
    });
    e.startTask(1, 1.0);
    e.startTask(2, 1.0);
    e.run();
    EXPECT_NEAR(done[1], 2.0, 1e-12);
    EXPECT_NEAR(done[2], 2.0, 1e-12);
}

TEST(Engine, RateChangeIntegratesPiecewise)
{
    // Task A (1 unit) and task B started at t=0; when B finishes, A
    // speeds up. B: 0.5 units at rate 1 with sharing rate 0.5 each.
    Engine e([](std::span<const ActiveTask> active,
                std::span<double> rates) {
        const double r = active.size() == 2 ? 0.5 : 1.0;
        for (std::size_t i = 0; i < active.size(); ++i)
            rates[i] = r;
    });
    std::map<std::uint64_t, double> done;
    e.onComplete([&](TaskId, std::uint64_t tag) {
        done[tag] = e.now();
    });
    e.startTask(1, 1.0);
    e.startTask(2, 0.5);
    e.run();
    // B finishes at t=1 (0.5 units at 0.5). A has 0.5 units left, now
    // at rate 1 => finishes at t=1.5.
    EXPECT_NEAR(done[2], 1.0, 1e-12);
    EXPECT_NEAR(done[1], 1.5, 1e-12);
}

TEST(Engine, TimersFireInOrderWithFifoTieBreak)
{
    Engine e(constantRate(1.0));
    std::vector<int> order;
    e.scheduleAt(2.0, [&] { order.push_back(2); });
    e.scheduleAt(1.0, [&] { order.push_back(1); });
    e.scheduleAt(2.0, [&] { order.push_back(3); }); // same time as #2
    e.run();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
    EXPECT_EQ(order[2], 3);
    EXPECT_NEAR(e.now(), 2.0, 1e-12);
}

TEST(Engine, TimerCanStartTask)
{
    Engine e(constantRate(1.0));
    double done_at = -1.0;
    e.onComplete([&](TaskId, std::uint64_t) { done_at = e.now(); });
    e.scheduleAt(1.0, [&] { e.startTask(7, 2.0); });
    e.run();
    EXPECT_NEAR(done_at, 3.0, 1e-12);
}

TEST(Engine, CompletionCallbackChainsTasks)
{
    Engine e(constantRate(1.0));
    int completions = 0;
    e.onComplete([&](TaskId, std::uint64_t tag) {
        ++completions;
        if (tag < 4)
            e.startTask(tag + 1, 1.0);
    });
    e.startTask(0, 1.0);
    e.run();
    EXPECT_EQ(completions, 5);
    EXPECT_NEAR(e.now(), 5.0, 1e-12);
}

TEST(Engine, StartTimeTracked)
{
    Engine e(constantRate(1.0));
    e.scheduleAt(2.5, [&] {
        const TaskId id = e.startTask(1, 1.0);
        EXPECT_NEAR(e.startTime(id), 2.5, 1e-12);
    });
    e.run();
}

TEST(Engine, ManyTasksDeterministic)
{
    auto run_once = [] {
        Engine e([](std::span<const ActiveTask> active,
                    std::span<double> rates) {
            for (std::size_t i = 0; i < active.size(); ++i)
                rates[i] = 1.0
                    / (1.0 + 0.1 * static_cast<double>(active.size()));
        });
        std::vector<double> times;
        e.onComplete([&](TaskId, std::uint64_t) {
            times.push_back(e.now());
        });
        for (int i = 0; i < 50; ++i)
            e.startTask(static_cast<std::uint64_t>(i),
                        1.0 + 0.01 * i);
        e.run();
        return times;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, SimultaneousCompletionsAllFire)
{
    Engine e(constantRate(1.0));
    int completions = 0;
    e.onComplete([&](TaskId, std::uint64_t) { ++completions; });
    e.startTask(0, 1.0);
    e.startTask(1, 1.0);
    e.startTask(2, 1.0);
    e.run();
    EXPECT_EQ(completions, 3);
    EXPECT_NEAR(e.now(), 1.0, 1e-12);
}

TEST(Engine, CancellationStressDrainsCleanly)
{
    // Many scheduleAt/cancelTask interleavings over a shared-rate
    // engine: timers cancel pseudo-randomly chosen live tasks while
    // completions and fresh starts churn the active set. Every started
    // task must end exactly once (completion or cancellation), no
    // cancelled task may complete, and the engine must drain.
    Engine e([](std::span<const ActiveTask> active,
                std::span<double> rates) {
        for (std::size_t i = 0; i < active.size(); ++i)
            rates[i] = 1.0
                / (1.0 + 0.25 * static_cast<double>(active.size()));
    });

    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    auto next_rand = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };

    std::vector<TaskId> live;
    std::set<TaskId> cancelled;
    std::set<TaskId> completed;
    int started = 0;

    auto start_one = [&] {
        const double work
            = 0.5 + static_cast<double>(next_rand() % 100) / 50.0;
        live.push_back(
            e.startTask(static_cast<std::uint64_t>(started), work));
        ++started;
    };

    e.onComplete([&](TaskId id, std::uint64_t) {
        EXPECT_EQ(cancelled.count(id), 0u);
        EXPECT_TRUE(completed.insert(id).second);
        EXPECT_LE(e.startTime(id), e.now()); // valid during callback
        live.erase(std::remove(live.begin(), live.end(), id),
                   live.end());
    });

    std::function<void()> chaos = [&] {
        // Cancel one live task...
        for (int k = 0; k < 1 && !live.empty(); ++k) {
            const std::size_t pick
                = static_cast<std::size_t>(next_rand())
                % live.size();
            const TaskId victim = live[pick];
            EXPECT_TRUE(e.cancelTask(victim));
            EXPECT_FALSE(e.cancelTask(victim)); // gone already
            cancelled.insert(victim);
            live.erase(live.begin()
                       + static_cast<std::ptrdiff_t>(pick));
        }
        // ...start two replacements and keep the storm going a while.
        if (started < 300) {
            start_one();
            start_one();
            e.scheduleAt(e.now()
                             + 0.05
                                 * (1.0
                                    + static_cast<double>(
                                        next_rand() % 10)),
                         chaos);
        }
    };

    for (int i = 0; i < 8; ++i)
        start_one();
    e.scheduleAt(0.1, chaos);
    e.run();

    EXPECT_EQ(static_cast<int>(completed.size() + cancelled.size()),
              started);
    EXPECT_EQ(e.activeCount(), 0u);
    for (const TaskId id : cancelled)
        EXPECT_EQ(completed.count(id), 0u);
    EXPECT_GT(cancelled.size(), 10u);
    EXPECT_GT(completed.size(), 10u);
}

TEST(Engine, TimerSlotsRecycleWithFifoOrder)
{
    // Chained same-timestamp timers exercise slab-slot reuse; FIFO
    // (schedule order) must survive recycling.
    Engine e(constantRate(1.0));
    std::vector<int> order;
    for (int round = 0; round < 3; ++round) {
        const double at = 1.0 + round;
        for (int i = 0; i < 5; ++i)
            e.scheduleAt(at, [&order, round, i] {
                order.push_back(round * 5 + i);
            });
    }
    e.run();
    ASSERT_EQ(order.size(), 15u);
    for (int i = 0; i < 15; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, InvalidateRatesAppliesExternalSpeedChange)
{
    // A timer callback that alters external rate state (the thermal
    // slowdown pattern) must be able to force a rate re-read without
    // touching the active set.
    double scale = 1.0;
    Engine e([&scale](std::span<const ActiveTask> active,
                      std::span<double> rates) {
        for (std::size_t i = 0; i < active.size(); ++i)
            rates[i] = scale;
    });
    double done_at = -1.0;
    e.onComplete([&](TaskId, std::uint64_t) { done_at = e.now(); });
    e.startTask(0, 2.0); // 2 units at rate 1
    e.scheduleAt(1.0, [&] {
        scale = 0.5; // half speed for the remaining unit
        e.invalidateRates();
    });
    e.run();
    // 1 unit done by t=1, remaining 1 unit at rate 0.5 => t=3.
    EXPECT_NEAR(done_at, 3.0, 1e-12);
}

} // namespace
} // namespace bt::sim
