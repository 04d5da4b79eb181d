/**
 * @file
 * Discrete-event engine with processor-sharing task progress.
 *
 * This is the virtual-time substrate for the simulated SoCs (DESIGN.md
 * substitution table): every "execution" of a pipeline stage is a Task
 * whose progress rate is recomputed each time the set of concurrently
 * active tasks changes. The rate function is supplied by the platform
 * performance model, which is where interference (shared DRAM bandwidth,
 * DVFS boost, etc.) lives. The engine itself only integrates work over
 * time and fires completion callbacks.
 *
 * Rates are piecewise constant between events, so integration is exact:
 * the next event is either a scheduled timer or the earliest task
 * completion at current rates.
 *
 * Hot-path design (this engine runs once per autotuning candidate, so
 * the planning loop executes millions of events):
 *  - timer callbacks are stored in a slab of reusable slots behind a
 *    small-buffer move-only TimerFn, so scheduleAt performs no heap
 *    allocation for typical captures;
 *  - the event queue is an indexed binary heap of slot ids over that
 *    slab (no callback moves during sift);
 *  - the active vector stays sorted by TaskId (ids are monotonic and
 *    erases preserve order), making cancelTask a binary search;
 *  - rates are re-read only when the active set changes or a callback
 *    declares outside rate state dirty via invalidateRates().
 */

#ifndef BT_SIM_ENGINE_HPP
#define BT_SIM_ENGINE_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace bt::sim {

/** Opaque handle to a running task. */
using TaskId = std::int64_t;

/** Snapshot of one active task, visible to the rate function. */
struct ActiveTask
{
    TaskId id = -1;
    std::uint64_t tag = 0;   ///< caller-defined meaning (e.g. stage|pu key)
    double remaining = 0.0;  ///< work units left
    double rate = 0.0;       ///< current work units per second
    double started = 0.0;    ///< virtual time the task began
};

/**
 * Computes the progress rate (work units per virtual second) of each
 * active task given the whole active set. Invoked whenever the active set
 * changes. Must write a strictly positive rate for every task.
 */
using RateFn = std::function<void(std::span<const ActiveTask> active,
                                  std::span<double> rates_out)>;

/** Fired when a task's work reaches zero. */
using CompletionFn = std::function<void(TaskId, std::uint64_t tag)>;

/**
 * Observes every virtual-time interval [t0, t1) over which the active
 * set was constant; used for time-integrated metrics such as energy.
 */
using AdvanceFn = std::function<void(double t0, double t1)>;

/**
 * Move-only callable for timer callbacks with small-buffer storage:
 * typical captures (a handful of pointers and scalars) live inline in
 * the timer slab instead of a std::function heap block per scheduleAt.
 * Larger callables fall back to one owned heap allocation.
 */
class TimerFn
{
  public:
    TimerFn() = default;

    template <typename F,
              std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, TimerFn>
                      && std::is_invocable_v<std::decay_t<F>&>,
                  int> = 0>
    TimerFn(F&& f) // NOLINT(bugprone-forwarding-reference-overload)
    {
        using D = std::decay_t<F>;
        if constexpr (sizeof(D) <= kInlineSize
                      && alignof(D) <= alignof(std::max_align_t)
                      && std::is_nothrow_move_constructible_v<D>) {
            ::new (storage()) D(std::forward<F>(f));
            ops = &inlineOps<D>;
        } else {
            *static_cast<D**>(storage()) = new D(std::forward<F>(f));
            ops = &heapOps<D>;
        }
    }

    TimerFn(TimerFn&& o) noexcept : ops(o.ops)
    {
        if (ops)
            ops->relocate(o.storage(), storage());
        o.ops = nullptr;
    }

    TimerFn&
    operator=(TimerFn&& o) noexcept
    {
        if (this != &o) {
            reset();
            ops = o.ops;
            if (ops)
                ops->relocate(o.storage(), storage());
            o.ops = nullptr;
        }
        return *this;
    }

    TimerFn(const TimerFn&) = delete;
    TimerFn& operator=(const TimerFn&) = delete;

    ~TimerFn() { reset(); }

    explicit operator bool() const { return ops != nullptr; }

    void
    operator()()
    {
        ops->call(storage());
    }

  private:
    /** Fits the dispatcher's timer lambdas (captures of a reference
     *  frame pointer plus a few ints/doubles) with room to spare. */
    static constexpr std::size_t kInlineSize = 48;

    struct Ops
    {
        void (*call)(void* s);
        /** Move-construct from @p from into @p to and destroy @p from
         *  (trivial pointer copy for the heap representation). */
        void (*relocate)(void* from, void* to);
        void (*destroy)(void* s);
    };

    template <typename D> static constexpr Ops inlineOps{
        [](void* s) { (*static_cast<D*>(s))(); },
        [](void* from, void* to) {
            ::new (to) D(std::move(*static_cast<D*>(from)));
            static_cast<D*>(from)->~D();
        },
        [](void* s) { static_cast<D*>(s)->~D(); },
    };

    template <typename D> static constexpr Ops heapOps{
        [](void* s) { (**static_cast<D**>(s))(); },
        [](void* from, void* to) {
            *static_cast<D**>(to) = *static_cast<D**>(from);
        },
        [](void* s) { delete *static_cast<D**>(s); },
    };

    void
    reset()
    {
        if (ops) {
            ops->destroy(storage());
            ops = nullptr;
        }
    }

    void* storage() { return buf; }

    const Ops* ops = nullptr;
    alignas(std::max_align_t) unsigned char buf[kInlineSize];
};

/**
 * Virtual-time engine. Single-threaded: callbacks run inline during
 * run() and may start further tasks or schedule timers.
 */
class Engine
{
  public:
    explicit Engine(RateFn rate_fn);

    /** Current virtual time in seconds. */
    double now() const { return clock; }

    /** Register the completion callback (may be empty). */
    void onComplete(CompletionFn fn) { completion = std::move(fn); }

    /** Register the interval observer (called before state changes). */
    void onAdvance(AdvanceFn fn) { advance = std::move(fn); }

    /**
     * Begin a task with @p work units of work at the current time.
     * @return its id, unique within this engine.
     */
    TaskId startTask(std::uint64_t tag, double work);

    /** Number of currently active tasks. */
    std::size_t activeCount() const { return active.size(); }

    /**
     * Abort @p id: remove it from the active set without firing the
     * completion callback (the fault layer's timeout path). O(log n)
     * lookup: the active vector is sorted by id.
     * @return whether the task was still active.
     */
    bool cancelTask(TaskId id);

    /** Virtual time at which @p id started. */
    double startTime(TaskId id) const;

    /** Schedule @p fn to run at absolute virtual time @p t (>= now). */
    void scheduleAt(double t, TimerFn fn);

    /**
     * Force rates to be re-read before the next event even though the
     * active set did not change - for timer callbacks that mutate
     * outside state the rate function reads (e.g. a thermal-slowdown
     * window scaling a PU's clock).
     */
    void invalidateRates() { ratesStale = true; }

    /**
     * Run until no tasks are active and no timers pending.
     * @return final virtual time.
     */
    double run();

    /**
     * Advance until the next event is processed (one completion or one
     * timer). @return false when nothing is pending.
     */
    bool step();

  private:
    /** One slab entry: heap key + callback + free-list link. */
    struct TimerSlot
    {
        double at = 0.0;
        std::uint64_t seq = 0; ///< FIFO tie-break among equal times
        TimerFn fn;
        std::int32_t nextFree = -1;
    };

    void refreshRates();
    void advanceTo(double t);

    bool timerBefore(std::uint32_t a, std::uint32_t b) const;
    void heapPush(std::uint32_t slot);
    std::uint32_t heapPop();

    RateFn rateFn;
    CompletionFn completion;
    AdvanceFn advance;
    double clock = 0.0;
    TaskId nextId = 0;

    std::vector<ActiveTask> active; ///< sorted by id (monotonic starts)

    std::vector<TimerSlot> timerSlots; ///< slab; slots recycled in place
    std::int32_t freeSlot = -1;        ///< head of the free-slot list
    std::vector<std::uint32_t> timerHeap; ///< indexed min-heap of slots
    std::uint64_t timerSeq = 0;
    bool ratesStale = true;

    std::vector<double> rateScratch;     ///< refreshRates output buffer
    std::vector<ActiveTask> finishedScratch; ///< completions in flight
};

} // namespace bt::sim

#endif // BT_SIM_ENGINE_HPP
