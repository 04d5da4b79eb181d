/**
 * @file
 * Discrete-event engine with processor-sharing task progress.
 *
 * This is the virtual-time substrate for the simulated SoCs (DESIGN.md
 * substitution table): every "execution" of a pipeline stage is a Task
 * whose progress rate is recomputed each time the set of concurrently
 * active tasks changes. The rates come from the platform performance
 * model, which is where interference (shared DRAM bandwidth, DVFS
 * boost, etc.) lives. The engine itself only integrates work over time
 * and tells its client what happened.
 *
 * Rates are piecewise constant between events, so integration is exact:
 * the next event is either a scheduled timer or the earliest task
 * completion at current rates.
 *
 * Client contract. Engine<Client> is specialised to its one client at
 * compile time and calls these members of it directly:
 *  - rates(active, rates_out): write a strictly positive progress rate
 *    (work units per virtual second) for every active task, given the
 *    whole active set; called only when the active set changed or the
 *    client called invalidateRates();
 *  - advanced(t0, t1): the active set was constant over [t0, t1), for
 *    time-integrated metrics such as energy; called before any state
 *    changes at t1;
 *  - completed(id, tag): a task's work reached zero;
 *  - fired(timer): a timer armed with scheduleAt came due.
 * Every callback runs inline during run()/step() and may start or
 * cancel tasks and arm timers.
 *
 * Timers are typed records, not stored callables: a Timer carries the
 * client's event kind, the subject it concerns and a sequence number
 * the client may use to retire stale timers; the client decides in
 * fired() what each kind means. Arming one pushes 32 bytes onto a
 * binary heap ordered by (time, arming order).
 *
 * Per-run state lives in the client (the virtual backend's DesRun keeps
 * flat arrays sized once per run, replays noise, rates and power from
 * a memo the backend keeps across runs, and records a traced run's
 * timeline without a lock); the engine holds only the active set, its rates and
 * the timer heap.
 *
 * Hot-path design (this engine runs once per autotuning candidate and
 * once per served request): the active vector stays sorted by TaskId
 * (ids are monotonic and erases preserve order), making cancelTask a
 * binary search; rates are re-read only when the active set changes;
 * every buffer is reserved at construction, so a run of a few
 * concurrent tasks and timers allocates nothing per event.
 */

#ifndef BT_SIM_ENGINE_HPP
#define BT_SIM_ENGINE_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/logging.hpp"

namespace bt::sim {

/** Opaque handle to a running task. */
using TaskId = std::int64_t;

/** Snapshot of one active task, visible to the client's rates(). */
struct ActiveTask
{
    TaskId id = -1;
    std::uint64_t tag = 0;   ///< caller-defined meaning (e.g. slot index)
    double remaining = 0.0;  ///< work units left
    double started = 0.0;    ///< virtual time the task began
};

/** A pending timer, interpreted by the client when it fires. */
struct Timer
{
    int kind = 0;          ///< client-defined event kind
    int subject = 0;       ///< what it concerns (a slot, a fault, ...)
    std::uint64_t seq = 0; ///< client-defined staleness guard
};

/**
 * Virtual-time engine driving @p Client (see the file comment for the
 * members it calls). Single-threaded.
 */
template <typename Client>
class Engine
{
  public:
    explicit Engine(Client& client) : client_(client)
    {
        active_.reserve(kReserveActive);
        rates_.reserve(kReserveActive);
        finished_.reserve(kReserveActive);
        timers_.reserve(kReserveTimers);
    }

    /** Current virtual time in seconds. */
    double now() const { return clock_; }

    /**
     * Begin a task with @p work units of work at the current time.
     * @return its id, unique within this engine.
     */
    TaskId
    startTask(std::uint64_t tag, double work)
    {
        BT_ASSERT(work > 0.0, "task work must be positive, got ", work);
        // Ids are monotonic: the vector stays sorted.
        active_.push_back(ActiveTask{nextId_, tag, work, clock_});
        ratesStale_ = true;
        return nextId_++;
    }

    /** Number of currently active tasks. */
    std::size_t activeCount() const { return active_.size(); }

    /**
     * Abort @p id: remove it from the active set without calling
     * completed() (the fault layer's timeout path).
     * @return whether the task was still active.
     */
    bool
    cancelTask(TaskId id)
    {
        const auto it = find(id);
        if (it == active_.end() || it->id != id)
            return false;
        active_.erase(it);
        ratesStale_ = true;
        return true;
    }

    /** Virtual time at which @p id started (active, or completing). */
    double
    startTime(TaskId id) const
    {
        const auto it = find(id);
        if (it != active_.end() && it->id == id)
            return it->started;
        // completed() may ask about the task that just finished; those
        // are staged here until their callbacks return.
        for (const auto& t : finished_)
            if (t.id == id)
                return t.started;
        BT_PANIC("sim.unknown_task", "unknown task id ", id);
    }

    /** Fire @p timer at absolute virtual time @p t (>= now). */
    void
    scheduleAt(double t, Timer timer)
    {
        BT_ASSERT(t >= clock_ - 1e-15, "timer in the past: ", t, " < ",
                  clock_);
        timers_.push_back(Pending{std::max(t, clock_), order_++, timer});
        std::push_heap(timers_.begin(), timers_.end(), later);
    }

    /**
     * Force rates to be re-read before the next event even though the
     * active set did not change - for timers that mutate outside state
     * rates() reads (e.g. a thermal-slowdown window scaling a clock).
     */
    void invalidateRates() { ratesStale_ = true; }

    /**
     * Run until no tasks are active and no timers pending.
     * @return final virtual time.
     */
    double
    run()
    {
        while (step()) {
        }
        return clock_;
    }

    /**
     * Advance until the next event is processed (one completion instant
     * or one timer). @return false when nothing is pending.
     */
    bool
    step()
    {
        if (active_.empty() && timers_.empty())
            return false;

        refreshRates();

        // Earliest completion at current rates; remember which task it
        // is so float rounding cannot leave the event without a
        // finisher.
        double completion_at = std::numeric_limits<double>::infinity();
        std::size_t earliest = 0;
        for (std::size_t i = 0; i < active_.size(); ++i) {
            const double at
                = clock_ + active_[i].remaining / rates_[i];
            if (at < completion_at) {
                completion_at = at;
                earliest = i;
            }
        }

        if (!timers_.empty() && timers_.front().at <= completion_at) {
            // Pop exactly one timer; fired() may add tasks or timers.
            // Rates stay valid unless it changes the active set or
            // calls invalidateRates().
            advanceTo(timers_.front().at);
            std::pop_heap(timers_.begin(), timers_.end(), later);
            const Timer timer = timers_.back().timer;
            timers_.pop_back();
            client_.fired(timer);
            return true;
        }

        // Guarantee the argmin task registers as finished despite
        // rounding.
        active_[earliest].remaining = 0.0;
        const double dt = completion_at - clock_;
        if (dt > 0.0)
            client_.advanced(clock_, completion_at);
        clock_ = completion_at;

        // Advance every task, taking those that finished at this
        // instant out of the active set first (order-preserving: the
        // vector stays sorted by id), then report them (completed()
        // may start tasks).
        finished_.clear();
        std::size_t keep = 0;
        for (std::size_t i = 0; i < active_.size(); ++i) {
            ActiveTask task = active_[i];
            if (dt > 0.0)
                task.remaining
                    = std::max(0.0, task.remaining - rates_[i] * dt);
            if (task.remaining <= kWorkEpsilon)
                finished_.push_back(task);
            else
                active_[keep++] = task;
        }
        active_.resize(keep);
        BT_ASSERT(!finished_.empty(),
                  "completion event with no finished task");
        ratesStale_ = true;
        for (const auto& task : finished_)
            client_.completed(task.id, task.tag);
        finished_.clear();
        return true;
    }

  private:
    /** One armed timer: heap key (time, arming order) and payload. */
    struct Pending
    {
        double at;
        std::uint64_t order; ///< FIFO tie-break among equal times
        Timer timer;
    };

    /// Work below this threshold counts as complete (guards float
    /// drift).
    static constexpr double kWorkEpsilon = 1e-12;

    /// Typical pipeline sizes: a handful of chunks, each with at most a
    /// few in-flight tasks and pending timers.
    static constexpr std::size_t kReserveActive = 16;
    static constexpr std::size_t kReserveTimers = 32;

    /** Heap order: std::push_heap keeps the "largest" on top, so the
     *  earliest (time, order) must compare largest. */
    static bool
    later(const Pending& a, const Pending& b)
    {
        return a.at > b.at || (a.at == b.at && a.order > b.order);
    }

    typename std::vector<ActiveTask>::const_iterator
    find(TaskId id) const
    {
        return std::lower_bound(
            active_.begin(), active_.end(), id,
            [](const ActiveTask& t, TaskId v) { return t.id < v; });
    }

    void
    refreshRates()
    {
        if (ratesStale_ && !active_.empty()) {
            rates_.resize(active_.size());
            client_.rates(std::span<const ActiveTask>(active_),
                          std::span<double>(rates_));
            for (const double r : rates_)
                BT_ASSERT(r > 0.0, "rates() wrote a rate <= 0: ", r);
        }
        ratesStale_ = false;
    }

    void
    advanceTo(double t)
    {
        BT_ASSERT(t >= clock_ - 1e-15);
        const double dt = t - clock_;
        if (dt > 0.0) {
            client_.advanced(clock_, t);
            for (std::size_t i = 0; i < active_.size(); ++i)
                active_[i].remaining = std::max(
                    0.0, active_[i].remaining - rates_[i] * dt);
        }
        clock_ = t;
    }

    Client& client_;
    double clock_ = 0.0;
    TaskId nextId_ = 0;
    std::uint64_t order_ = 0;
    bool ratesStale_ = true;

    std::vector<ActiveTask> active_; ///< sorted by id (monotonic starts)
    /** rates() output, parallel to active_ until the set changes. */
    std::vector<double> rates_;
    std::vector<ActiveTask> finished_; ///< completions being reported
    std::vector<Pending> timers_;      ///< binary heap under later()
};

} // namespace bt::sim

#endif // BT_SIM_ENGINE_HPP
