#include "sim/engine.hpp"

#include <algorithm>
#include <limits>

#include "common/logging.hpp"

namespace bt::sim {

namespace {
/// Work below this threshold counts as complete (guards float drift).
constexpr double kWorkEpsilon = 1e-12;

/// Typical pipeline sizes: a handful of chunks, each with at most a few
/// in-flight tasks and pending timers.
constexpr std::size_t kReserveActive = 16;
constexpr std::size_t kReserveTimers = 32;
} // namespace

Engine::Engine(RateFn rate_fn) : rateFn(std::move(rate_fn))
{
    BT_ASSERT(rateFn, "engine needs a rate function");
    active.reserve(kReserveActive);
    rateScratch.reserve(kReserveActive);
    finishedScratch.reserve(kReserveActive);
    timerSlots.reserve(kReserveTimers);
    timerHeap.reserve(kReserveTimers);
}

TaskId
Engine::startTask(std::uint64_t tag, double work)
{
    BT_ASSERT(work > 0.0, "task work must be positive, got ", work);
    ActiveTask t;
    t.id = nextId++;
    t.tag = tag;
    t.remaining = work;
    t.rate = 0.0;
    t.started = clock;
    active.push_back(t); // ids are monotonic: vector stays sorted
    ratesStale = true;
    return t.id;
}

bool
Engine::cancelTask(TaskId id)
{
    // The active vector is sorted by id (monotonic starts, order-
    // preserving erases), so the lookup is a binary search.
    const auto it = std::lower_bound(
        active.begin(), active.end(), id,
        [](const ActiveTask& t, TaskId v) { return t.id < v; });
    if (it == active.end() || it->id != id)
        return false;
    active.erase(it);
    ratesStale = true;
    return true;
}

double
Engine::startTime(TaskId id) const
{
    const auto it = std::lower_bound(
        active.begin(), active.end(), id,
        [](const ActiveTask& t, TaskId v) { return t.id < v; });
    if (it != active.end() && it->id == id)
        return it->started;
    // Completion callbacks may ask about the task that just finished;
    // those are staged here until their callbacks return.
    for (const auto& t : finishedScratch)
        if (t.id == id)
            return t.started;
    BT_PANIC("sim.unknown_task", "unknown task id ", id);
}

bool
Engine::timerBefore(std::uint32_t a, std::uint32_t b) const
{
    const TimerSlot& sa = timerSlots[a];
    const TimerSlot& sb = timerSlots[b];
    return sa.at < sb.at || (sa.at == sb.at && sa.seq < sb.seq);
}

void
Engine::heapPush(std::uint32_t slot)
{
    timerHeap.push_back(slot);
    std::size_t i = timerHeap.size() - 1;
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!timerBefore(timerHeap[i], timerHeap[parent]))
            break;
        std::swap(timerHeap[i], timerHeap[parent]);
        i = parent;
    }
}

std::uint32_t
Engine::heapPop()
{
    const std::uint32_t top = timerHeap.front();
    timerHeap.front() = timerHeap.back();
    timerHeap.pop_back();
    std::size_t i = 0;
    const std::size_t n = timerHeap.size();
    while (true) {
        const std::size_t l = 2 * i + 1;
        const std::size_t r = l + 1;
        std::size_t best = i;
        if (l < n && timerBefore(timerHeap[l], timerHeap[best]))
            best = l;
        if (r < n && timerBefore(timerHeap[r], timerHeap[best]))
            best = r;
        if (best == i)
            break;
        std::swap(timerHeap[i], timerHeap[best]);
        i = best;
    }
    return top;
}

void
Engine::scheduleAt(double t, TimerFn fn)
{
    BT_ASSERT(t >= clock - 1e-15, "timer in the past: ", t, " < ", clock);

    // Acquire a slab slot (recycled from the free list when possible)
    // and move the callback straight into it - no per-timer heap block.
    std::uint32_t slot;
    if (freeSlot >= 0) {
        slot = static_cast<std::uint32_t>(freeSlot);
        freeSlot = timerSlots[slot].nextFree;
    } else {
        slot = static_cast<std::uint32_t>(timerSlots.size());
        timerSlots.emplace_back();
    }
    TimerSlot& s = timerSlots[slot];
    s.at = std::max(t, clock);
    s.seq = timerSeq++;
    s.fn = std::move(fn);
    s.nextFree = -1;
    heapPush(slot);
}

void
Engine::refreshRates()
{
    if (!ratesStale || active.empty()) {
        ratesStale = false;
        return;
    }
    rateScratch.assign(active.size(), 0.0);
    rateFn(active, rateScratch);
    for (std::size_t i = 0; i < active.size(); ++i) {
        BT_ASSERT(rateScratch[i] > 0.0,
                  "rate must be positive for task ", active[i].id);
        active[i].rate = rateScratch[i];
    }
    ratesStale = false;
}

void
Engine::advanceTo(double t)
{
    BT_ASSERT(t >= clock - 1e-15);
    const double dt = t - clock;
    if (dt > 0.0) {
        if (advance)
            advance(clock, t);
        for (auto& task : active)
            task.remaining
                = std::max(0.0, task.remaining - task.rate * dt);
    }
    clock = t;
}

bool
Engine::step()
{
    if (active.empty() && timerHeap.empty())
        return false;

    refreshRates();

    // Earliest completion at current rates; remember which task it is
    // so float rounding cannot leave the event without a finisher.
    double completionAt = std::numeric_limits<double>::infinity();
    std::size_t earliest = 0;
    for (std::size_t i = 0; i < active.size(); ++i) {
        const double at = clock + active[i].remaining / active[i].rate;
        if (at < completionAt) {
            completionAt = at;
            earliest = i;
        }
    }

    const double timerAt = timerHeap.empty()
        ? std::numeric_limits<double>::infinity()
        : timerSlots[timerHeap.front()].at;

    if (timerAt <= completionAt) {
        advanceTo(timerAt);
        // Pop exactly one timer; its callback may add tasks/timers (the
        // slot is released first so the callback can reuse it). Rates
        // stay valid unless the callback changes the active set or
        // calls invalidateRates() - a timer alone alters nothing the
        // rate function reads.
        const std::uint32_t slot = heapPop();
        TimerFn fn = std::move(timerSlots[slot].fn);
        timerSlots[slot].nextFree = freeSlot;
        freeSlot = static_cast<std::int32_t>(slot);
        fn();
        return true;
    }

    // Guarantee the argmin task registers as finished despite rounding.
    active[earliest].remaining = 0.0;
    advanceTo(completionAt);

    // Collect every task that finished at this instant, remove them from
    // the active set first (order-preserving: the vector stays sorted by
    // id), then fire callbacks (which may start tasks).
    finishedScratch.clear();
    std::size_t keep = 0;
    for (std::size_t i = 0; i < active.size(); ++i) {
        if (active[i].remaining <= kWorkEpsilon) {
            finishedScratch.push_back(active[i]);
        } else {
            if (keep != i)
                active[keep] = active[i];
            ++keep;
        }
    }
    active.resize(keep);
    BT_ASSERT(!finishedScratch.empty(),
              "completion event with no finished task");
    ratesStale = true;
    for (const auto& task : finishedScratch) {
        if (completion)
            completion(task.id, task.tag);
    }
    finishedScratch.clear();
    return true;
}

double
Engine::run()
{
    while (step()) {
    }
    return clock;
}

} // namespace bt::sim
