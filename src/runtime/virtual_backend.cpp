#include "runtime/virtual_backend.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "runtime/pipeline_session.hpp"
#include "runtime/recovery.hpp"
#include "sim/engine.hpp"

namespace bt::runtime {

/**
 * The rates of every co-runner configuration a memo's runs have met. A
 * configuration is the active set's (stage, PU) cells in the engine's
 * active order - the order PerfModel::timesOf sums DRAM demand in, so
 * an unordered key could replay rates whose bits differ from a fresh
 * fold. While the clock scales hold, each is folded once and replayed
 * after: an open-addressing table over flat arrays, up to kMaxEntries
 * configurations (past that, new ones are folded every time).
 */
class RateMemo
{
  public:
    /** Copy the rates memoized for @p config into @p rates; false
     *  when the memo has not met @p config since the last clear. */
    bool
    find(std::span<const int> config, std::span<double> rates) const
    {
        for (std::size_t i = hashOf(config) & mask();; i = (i + 1) & mask()) {
            const int e = slots_[i];
            if (e < 0)
                return false;
            const auto& [at, size] = entries_[static_cast<std::size_t>(e)];
            const auto from = static_cast<std::ptrdiff_t>(at);
            if (size == config.size()
                && std::equal(config.begin(), config.end(),
                              cells_.begin() + from)) {
                std::copy_n(rates_.begin() + from, size, rates.begin());
                return true;
            }
        }
    }

    void
    insert(std::span<const int> config, std::span<const double> rates)
    {
        if (entries_.size() == kMaxEntries)
            return;
        if (2 * (entries_.size() + 1) > slots_.size())
            grow();
        place(hashOf(config), static_cast<int>(entries_.size()));
        entries_.emplace_back(cells_.size(), config.size());
        cells_.insert(cells_.end(), config.begin(), config.end());
        rates_.insert(rates_.end(), rates.begin(), rates.end());
    }

    void
    clear()
    {
        std::fill(slots_.begin(), slots_.end(), -1);
        entries_.clear();
        cells_.clear();
        rates_.clear();
    }

  private:
    /** Greedy dispatch of Pixel octree meets about 120 configurations
     *  in a 300-task run, a static schedule 27. */
    static constexpr std::size_t kMaxEntries = 4096;

    static std::size_t
    hashOf(std::span<const int> config)
    {
        std::uint64_t h = config.size();
        for (const int cell : config)
            h = (h ^ static_cast<std::uint64_t>(cell))
                * 0x9e3779b97f4a7c15ULL;
        return static_cast<std::size_t>(h ^ (h >> 32));
    }

    std::size_t mask() const { return slots_.size() - 1; }

    void
    place(std::size_t h, int entry)
    {
        std::size_t i = h & mask();
        while (slots_[i] >= 0)
            i = (i + 1) & mask();
        slots_[i] = entry;
    }

    void
    grow()
    {
        slots_.assign(2 * slots_.size(), -1);
        for (std::size_t e = 0; e < entries_.size(); ++e) {
            const auto& [at, size] = entries_[e];
            place(hashOf({cells_.data() + at, size}), static_cast<int>(e));
        }
    }

    /** Open addressing, a power of two long: entry index or -1. */
    std::vector<int> slots_ = std::vector<int>(64, -1);
    /** (offset, length) of each configuration in cells_ and rates_. */
    std::vector<std::pair<std::size_t, std::size_t>> entries_;
    std::vector<int> cells_;    ///< stage * numPus + PU, per task
    std::vector<double> rates_; ///< 1 / timesOf, per task
};

/**
 * What runs leave for later runs with the same inputs: besides the
 * model, a run reads only the stages' work profiles (the key, by
 * value), the ambient load, the salt, the policy and the fault plan
 * (whose clock scales make its rates its own).
 */
struct RunMemo
{
    struct Key
    {
        double ambientGbps;
        std::uint64_t salt;
        bool greedy;
        bool faulty;
        bool operator==(const Key&) const = default;
    };
    Key key;
    std::vector<platform::WorkProfile> works;
    std::vector<double> noise; ///< noiseFactor by [task * stages + stage]
    /** PerfModel::cellOf of works[stage] on each PU, by stage * numPus
     *  + PU (empty until folded), and a fold's loads. */
    std::vector<platform::LoadCell> cells, loads;
    RateMemo rates;
    std::vector<std::pair<std::uint64_t, double>> power; ///< by mask
};

namespace {

/** A token waiting for a slot to run its @p stage. */
struct WorkItem
{
    int token;
    int stage;
    double since; ///< when it became ready (queue-wait attribution)
};

/** Event-driven dispatcher state for one slot. */
struct SlotRuntime
{
    bool busy = false;        ///< holds a work item
    bool dispatching = false; ///< greedy: paying the dispatch overhead
    int curStage = -1;        ///< stage currently "executing"
    int curToken = -1;        ///< buffer id being processed
    std::int64_t curTask = -1;
    double stageStart = 0.0;
    double since = 0.0;       ///< when the current item became ready
    double busyAccum = 0.0;
    int countedPu = -1;       ///< PU class counted as running, or -1
    int cell = -1;            ///< stage * numPus + PU of the engine task
    double launched = 0.0;    ///< when the engine task started
    std::uint64_t coRunners = 0; ///< traced runs: others running then

    /** Running a stage (not waiting out a dispatch overhead). */
    bool running() const { return busy && !dispatching; }

    // --- fault-layer state (untouched on fault-free runs) ---
    Attempt attempt;          ///< ladder position of the current stage
    bool willFail = false;    ///< this attempt was drawn as a transient
    std::uint64_t seq = 0;    ///< invalidates stale timers
    sim::TaskId simId = -1;   ///< engine task of the in-flight attempt
};

/** The greedy policy's noise stream tag (the static policy's is 0). */
constexpr std::uint64_t kGreedyDomain = 0xd12a;

/**
 * Deterministic measurement-noise factor for one stage execution: the
 * device seed, the run's noiseSalt, and a per-policy @p domain tag
 * select a seeded log-normal stream keyed by (task, stage).
 */
double
noiseFactor(const platform::SocDescription& soc, std::uint64_t salt,
            std::uint64_t domain, std::int64_t task, int stage)
{
    const std::uint64_t key = hashCombine(
        hashCombine(soc.seed ^ salt ^ domain,
                    static_cast<std::uint64_t>(task)),
        static_cast<std::uint64_t>(stage));
    Rng rng(key);
    return soc.noiseSigma > 0.0
        ? rng.nextLogNormalFactor(soc.noiseSigma)
        : 1.0;
}

/** What a timer does when it fires (sim::Timer::kind). Slot timers
 *  carry the slot's seq when armed and retire if it moved on. */
enum TimerKind : int
{
    kDispatched, ///< greedy: the slot paid its dispatch overhead
    kStranded,   ///< move on from a stage lost with every PU gone
    kWatchdog,   ///< abort an attempt that exceeded its budget
    kBackoff,    ///< retry a failed attempt after its backoff
    kSlowdown,   ///< a throttle window opens or closes
    kDropout,    ///< dropout number `subject` takes its PU away
};

/**
 * One run, and the engine's client. A null @p greedy runs the session's
 * chunks as a static pipeline (each chunk pops tokens from its own
 * queue and hands them on); otherwise every slot drains a FIFO that
 * earliest-finish ranking fills from a ready set. Per-run state lives
 * in flat arrays sized at construction.
 */
class DesRun
{
  public:
    DesRun(const platform::PerfModel& model, const core::Application& app,
           PipelineSession& session, const GreedyDispatch* greedy,
           RunMemo& memo)
        : model_(model), app_(app), session_(session),
          cfg_(session.config()), greedy_(greedy), memo_(memo),
          numPus_(model.soc().numPus()), numSlots_(session.numChunks()),
          recovery_(model, app, session),
          faulty_(recovery_.enabled()),
          slots_(static_cast<std::size_t>(numSlots_)),
          // queue q feeds slot q; the extra one is greedy's ready set
          ring_(static_cast<std::size_t>((numSlots_ + 1)
                                         * session.numBuffers())),
          fifos_(static_cast<std::size_t>(numSlots_ + 1)),
          config_(static_cast<std::size_t>(numSlots_)),
          runningOn_(static_cast<std::size_t>(numPus_), 0),
          engine_(*this)
    {
        for (int b = 0; b < session.numBuffers(); ++b) {
            if (greedy_)
                freeTokens_.push_back(b);
            else
                push(0, WorkItem{b, 0, 0.0});
        }
        if (greedy_)
            available_.assign(static_cast<std::size_t>(numSlots_), 0.0);
        powerW_ = powerOf(0);
    }

    DesRun(const DesRun&) = delete;
    DesRun& operator=(const DesRun&) = delete;

    /** Prime the pipeline, run it to completion and assemble the
     *  result. */
    RunResult
    execute()
    {
        if (faulty_) {
            // The controller decides every recovery step; this run
            // only arms the timers. Fault-free runs arm none and leave
            // clockScale_ empty (the performance model short-circuits
            // an empty span).
            clockScale_.resize(static_cast<std::size_t>(numPus_));
            for (int p = 0; p < numPus_; ++p)
                clockScale_[static_cast<std::size_t>(p)]
                    = recovery_.injector().slowdownFactor(p, 0.0);
            armSlowdown();
            const auto& dropouts = recovery_.injector().dropouts();
            for (std::size_t d = 0; d < dropouts.size(); ++d)
                engine_.scheduleAt(dropouts[d].atSeconds,
                                   {kDropout, static_cast<int>(d), 0});
        }

        if (greedy_)
            dispatchReady();
        else
            tryStart(0);
        // Fault plans may leave timers scheduled past the last
        // completion (a dropout that never came, the tail of a
        // throttle window), so the faulty path steps until the stream
        // drains instead of draining the timer queue.
        if (faulty_) {
            while (!done_ && engine_.step()) {
            }
        } else {
            engine_.run();
        }

        std::vector<double> busy;
        busy.reserve(slots_.size());
        for (const SlotRuntime& rt : slots_)
            busy.push_back(rt.busyAccum);
        RunResult result = session_.finish(engine_.now(), busy,
                                           /*affinity_applied=*/true);
        result.energyJoules = joules_;
        result.recovery = recovery_.stats();
        return result;
    }

    // --- sim::Engine client -------------------------------------------

    /** Rates are memoized per configuration; a fold reads each
     *  (stage, PU)'s co-runner-independent cell, built on the memo's
     *  first use of it. The tag is the slot index; a slot runs at most
     *  one stage at a time. */
    void
    rates(std::span<const sim::ActiveTask> active,
          std::span<double> rates_out)
    {
        BT_ASSERT(active.size() <= config_.size(),
                  "more engine tasks than slots");
        const std::span<int> config(config_.data(), active.size());
        for (std::size_t i = 0; i < active.size(); ++i) {
            const int c = static_cast<int>(active[i].tag);
            const SlotRuntime& rt = slot(c);
            BT_ASSERT(rt.running() && rt.curStage >= 0,
                      "active task on idle slot");
            config[i] = rt.cell;
        }
        if (memo_.rates.find(config, rates_out))
            return;
        auto& loads = memo_.loads;
        loads.clear();
        for (const int cell_index : config) {
            auto& cell = memo_.cells[static_cast<std::size_t>(cell_index)];
            if (cell.load.work == nullptr)
                cell = model_.cellOf(memo_.works[static_cast<std::size_t>(
                                         cell_index / numPus_)],
                                     cell_index % numPus_);
            loads.push_back(cell);
        }
        model_.timesOf(loads, clockScale_, cfg_.ambientBandwidthGbps,
                       rates_out);
        for (double& r : rates_out)
            r = 1.0 / r;
        memo_.rates.insert(config, rates_out);
    }

    /** Between events the set of running PU classes is constant, so
     *  power is piecewise constant and integration is exact. */
    void
    advanced(double t0, double t1)
    {
        if (runningMask_ != poweredMask_) {
            powerW_ = powerOf(runningMask_);
            poweredMask_ = runningMask_;
        }
        joules_ += (t1 - t0) * powerW_;
    }

    void
    completed(sim::TaskId, std::uint64_t tag)
    {
        const int c = static_cast<int>(tag);
        SlotRuntime& rt = slot(c);
        ++rt.seq; // retire the attempt's watchdog
        rt.busyAccum += engine_.now() - rt.stageStart;
        if (faulty_ && rt.willFail) {
            rt.willFail = false;
            handleFailure(c, TraceEventKind::Transient);
            return;
        }
        if (cfg_.recordTrace)
            session_.timeline().record(TraceEvent{rt.curTask,
                                            rt.curStage,
                                            c,
                                            recovery_.puOf(c),
                                            rt.launched - rt.since,
                                            rt.launched,
                                            engine_.now(),
                                            rt.coRunners,
                                            TraceEventKind::Stage,
                                            {}});
        // Kernels run at stage completion, not dispatch: a failed or
        // aborted attempt must commit no side effects, or a retry
        // would re-apply an in-place stage mutation.
        session_.runStage(c, rt.curStage, rt.curToken, nullptr,
                          recovery_.puOf(c));
        advance(c);
    }

    void
    fired(const sim::Timer& timer)
    {
        const int c = timer.subject;
        switch (timer.kind) {
          case kSlowdown:
            slowdownBoundary();
            return;
          case kDropout:
            dropout(recovery_.injector().dropouts()[static_cast<
                        std::size_t>(c)].pu);
            return;
          default:
            break;
        }
        SlotRuntime& rt = slot(c);
        if (rt.seq != timer.seq)
            return; // superseded (finished, or re-dispatched)
        switch (timer.kind) {
          case kDispatched:
            launch(c);
            return;
          case kStranded:
            advance(c);
            return;
          case kWatchdog:
            if (!rt.busy)
                return;
            if (engine_.cancelTask(rt.simId))
                rt.busyAccum += engine_.now() - rt.stageStart;
            handleFailure(c, TraceEventKind::Timeout);
            return;
          case kBackoff:
            recovery_.retry(c, rt.curTask, rt.curStage, rt.attempt,
                            engine_.now());
            startAttempt(c, rt.curStage, engine_.now());
            return;
          default:
            BT_PANIC("sim.timer_kind", "unknown timer kind ", timer.kind);
        }
    }

  private:
    /** Queue @p q's window into ring_: numBuffers long. */
    struct Fifo
    {
        int head = 0;
        int size = 0;
    };

    SlotRuntime& slot(int c) { return slots_[static_cast<std::size_t>(c)]; }

    bool empty(int q) const
    {
        return fifos_[static_cast<std::size_t>(q)].size == 0;
    }

    void
    push(int q, WorkItem item)
    {
        Fifo& f = fifos_[static_cast<std::size_t>(q)];
        const int cap = session_.numBuffers();
        BT_ASSERT(f.size < cap, "queue holds more items than tokens");
        const int at = f.head + f.size++;
        ring_[static_cast<std::size_t>(q * cap + (at < cap ? at : at - cap))]
            = item;
    }

    WorkItem
    pop(int q)
    {
        Fifo& f = fifos_[static_cast<std::size_t>(q)];
        const int cap = session_.numBuffers();
        const WorkItem item = ring_[static_cast<std::size_t>(q * cap
                                                             + f.head)];
        f.head = f.head + 1 < cap ? f.head + 1 : 0;
        --f.size;
        return item;
    }

    /** Bring slot @p c's entry in the running-PU counts up to date
     *  after its busy/dispatching state or its binding changed. */
    void
    syncRunning(int c)
    {
        SlotRuntime& rt = slot(c);
        const int pu = rt.running() ? recovery_.puOf(c) : -1;
        if (pu == rt.countedPu)
            return;
        if (rt.countedPu >= 0
            && --runningOn_[static_cast<std::size_t>(rt.countedPu)] == 0)
            runningMask_ &= ~(std::uint64_t{1} << rt.countedPu);
        if (pu >= 0 && runningOn_[static_cast<std::size_t>(pu)]++ == 0)
            runningMask_ |= std::uint64_t{1} << pu;
        rt.countedPu = pu;
    }

    /** PU classes of the running slots other than @p c. */
    std::uint64_t
    othersRunning(int c) const
    {
        const int pu = slots_[static_cast<std::size_t>(c)].countedPu;
        if (pu >= 0 && runningOn_[static_cast<std::size_t>(pu)] == 1)
            return runningMask_ & ~(std::uint64_t{1} << pu);
        return runningMask_;
    }

    /** Power is a pure function of the running set: computed once per
     *  set the memo's runs meet. */
    double
    powerOf(std::uint64_t mask)
    {
        for (const auto& [m, watts] : memo_.power)
            if (m == mask)
                return watts;
        return memo_.power.emplace_back(mask, model_.systemPowerW(mask))
            .second;
    }

    /** Arm a slot timer of @p kind at @p at, retiring the slot's
     *  earlier ones. */
    void
    arm(TimerKind kind, int c, double at)
    {
        engine_.scheduleAt(at, {kind, c, ++slot(c).seq});
    }

    /** Start the attempt's engine task: one task whose work is the
     *  seeded noise factor (times a straggler factor under faults);
     *  every attempt of a (task, stage) reads the same factor. */
    void
    launch(int c)
    {
        SlotRuntime& rt = slot(c);
        rt.dispatching = false;
        syncRunning(c);
        const double now = engine_.now();
        if (faulty_ && recovery_.stranded(c, rt.curTask, rt.curStage, now)) {
            // Every PU is gone and the stage is lost. Move on from a
            // timer, so a stream of lost stages unwinds through the
            // engine instead of recursing once per stage.
            arm(kStranded, c, now);
            return;
        }
        rt.launched = now;
        if (cfg_.recordTrace)
            rt.coRunners = othersRunning(c);
        double work = memo_.noise[static_cast<std::size_t>(
            rt.curTask * app_.numStages() + rt.curStage)];
        if (faulty_) {
            rt.willFail = recovery_.transient(c, rt.curTask, rt.curStage,
                                              rt.attempt);
            work *= recovery_.straggle(c, rt.curTask, rt.curStage,
                                       rt.attempt, now);
            if (cfg_.recovery.timeoutFactor > 0.0) {
                // Arm the watchdog: abort the attempt when it exceeds
                // its share-agnostic budget. The seq guard retires it
                // if the attempt finishes (or is re-dispatched) first.
                arm(kWatchdog, c,
                    now
                        + cfg_.recovery.timeoutFactor
                              * model_.isolatedTime(
                                  app_.stage(rt.curStage).work(),
                                  recovery_.puOf(c)));
            }
        }
        // A slot is rebound only between engine tasks (failover after
        // one ends, dropout after cancelling it), so the cell holds.
        rt.cell = rt.curStage * numPus_ + recovery_.puOf(c);
        rt.simId = engine_.startTask(static_cast<std::uint64_t>(c), work);
    }

    /** Begin one attempt of (slot c, stage), waiting since @p since.
     *  Greedy dispatch pays its overhead first. */
    void
    startAttempt(int c, int stage, double since)
    {
        SlotRuntime& rt = slot(c);
        rt.curStage = stage;
        rt.stageStart = engine_.now();
        rt.since = since;
        if (!greedy_) {
            launch(c);
            return;
        }
        rt.dispatching = true;
        syncRunning(c);
        arm(kDispatched, c,
            engine_.now() + greedy_->dispatchOverheadUs * 1e-6);
    }

    /** Greedy: admit tasks while the pool has tokens, then give every
     *  ready item to the slot with the earliest predicted finish -
     *  which may mean queueing behind a busy fast PU rather than
     *  running at once on a slow idle one. */
    void
    dispatchReady()
    {
        const int ready = numSlots_;
        while (!freeTokens_.empty() && !session_.exhausted()) {
            const int token = freeTokens_.back();
            freeTokens_.pop_back();
            session_.inject(token, engine_.now());
            push(ready, WorkItem{token, 0, engine_.now()});
        }
        while (!empty(ready)) {
            const WorkItem item = pop(ready);
            int best = 0;
            double best_finish = std::numeric_limits<double>::infinity();
            for (int c = 0; c < numSlots_; ++c) {
                const double finish
                    = std::max(available_[static_cast<std::size_t>(c)],
                               engine_.now())
                    + greedy_->costs->at(item.stage, recovery_.puOf(c))
                    + greedy_->dispatchOverheadUs * 1e-6;
                if (finish < best_finish) {
                    best_finish = finish;
                    best = c;
                }
            }
            push(best, item);
            available_[static_cast<std::size_t>(best)] = best_finish;
            tryStart(best);
        }
    }

    /** Stage done (or abandoned): run the chunk's next stage, or pass
     *  the token on - downstream or back to the head (static), to the
     *  ready set or the free pool (greedy). */
    void
    advance(int c)
    {
        SlotRuntime& rt = slot(c);
        if (!greedy_ && rt.curStage < session_.chunk(c).lastStage) {
            rt.attempt = {};
            startAttempt(c, rt.curStage + 1, engine_.now());
            return;
        }
        const int token = rt.curToken;
        const int next_stage = rt.curStage + 1;
        rt.busy = false;
        rt.curStage = -1;
        rt.curToken = -1;
        rt.curTask = -1;
        rt.attempt = {};
        syncRunning(c);

        const bool last = next_stage == app_.numStages();
        if (last) {
            session_.complete(token, engine_.now());
            if (++completedTasks_ == cfg_.numTasks)
                done_ = true;
        }
        if (greedy_) {
            if (last)
                freeTokens_.push_back(token);
            else
                push(numSlots_,
                     WorkItem{token, next_stage, engine_.now()});
            // Estimates drift from reality; re-anchor this slot's clock.
            available_[static_cast<std::size_t>(c)] = engine_.now();
            dispatchReady();
        } else {
            const int next = last ? 0 : c + 1;
            push(next, WorkItem{token, session_.chunk(next).firstStage,
                                engine_.now()});
            tryStart(next);
        }
        tryStart(c); // pull the next item into this slot
    }

    /** One attempt failed (transient or timeout): turn the
     *  controller's next step into timers. */
    void
    handleFailure(int c, TraceEventKind kind)
    {
        SlotRuntime& rt = slot(c);
        const NextStep next
            = recovery_.fail(c, rt.curTask, rt.curStage, kind,
                             rt.stageStart, engine_.now(), rt.attempt);
        syncRunning(c); // a failover rebinds the slot
        switch (next) {
          case NextStep::Retry:
            arm(kBackoff, c,
                engine_.now() + recovery_.backoffSeconds(rt.attempt));
            return;
          case NextStep::Failover:
            startAttempt(c, rt.curStage, engine_.now());
            return;
          case NextStep::Abandon:
            // Surface the loss and keep the stream moving.
            advance(c);
            return;
        }
    }

    void
    tryStart(int c)
    {
        SlotRuntime& rt = slot(c);
        if (rt.busy || empty(c))
            return;
        const bool head = !greedy_ && c == 0;
        if (head && session_.exhausted())
            return; // input stream exhausted
        const WorkItem item = pop(c);
        if (head)
            session_.inject(item.token, engine_.now());
        rt.busy = true;
        rt.curToken = item.token;
        rt.curTask = session_.taskOf(item.token);
        rt.attempt = {};
        syncRunning(c);
        startAttempt(c, item.stage, item.since);
    }

    // --- scheduled fault sources (throttle windows, dropouts) ----------

    void
    armSlowdown()
    {
        const double next
            = recovery_.injector().nextSlowdownBoundary(engine_.now());
        if (std::isfinite(next))
            engine_.scheduleAt(next, {kSlowdown, 0, 0});
    }

    void
    slowdownBoundary()
    {
        for (int p = 0; p < numPus_; ++p)
            clockScale_[static_cast<std::size_t>(p)]
                = recovery_.injector().slowdownFactor(p, engine_.now());
        // The active set is untouched but the rate inputs changed:
        // every memoized rate is stale, and the next event must re-read
        // the current one.
        memo_.rates.clear();
        engine_.invalidateRates();
        armSlowdown();
    }

    /** Re-dispatch attempts that were in flight on the dead PU (also
     *  cancels pending retries via the seq bump). */
    void
    dropout(int pu)
    {
        const std::vector<int> affected
            = recovery_.dropout(pu, engine_.now());
        for (const int c : affected)
            syncRunning(c);
        for (const int c : affected) {
            SlotRuntime& rt = slot(c);
            if (!rt.busy)
                continue;
            if (engine_.cancelTask(rt.simId))
                rt.busyAccum += engine_.now() - rt.stageStart;
            ++rt.seq;
            rt.willFail = false;
            rt.attempt = {};
            startAttempt(c, rt.curStage, engine_.now());
        }
    }

    const platform::PerfModel& model_;
    const core::Application& app_;
    PipelineSession& session_;
    const RunConfig& cfg_;
    const GreedyDispatch* greedy_;
    RunMemo& memo_;
    const int numPus_;
    const int numSlots_;

    RecoveryController recovery_;
    const bool faulty_;
    std::vector<double> clockScale_; ///< empty = no throttling anywhere

    std::vector<SlotRuntime> slots_;
    /** Queue q feeds slot q. Static: the previous chunk's output, the
     *  last chunk recycling into queue 0. Greedy: the slot's FIFO of
     *  earliest-finish assignments, fed from the ready set (queue
     *  numSlots_). Each holds at most the pool's numBuffers tokens. */
    std::vector<WorkItem> ring_;
    std::vector<Fifo> fifos_;
    std::vector<double> available_; ///< greedy: each slot's drain time
    std::vector<int> freeTokens_;   ///< greedy: unused pool tokens
    int completedTasks_ = 0;
    bool done_ = false;
    std::vector<int> config_; ///< a refresh's memo key

    std::vector<int> runningOn_;   ///< running slots per PU class
    std::uint64_t runningMask_ = 0; ///< PU classes with a running slot
    std::uint64_t poweredMask_ = 0;
    double powerW_ = 0.0;
    double joules_ = 0.0;

    sim::Engine<DesRun> engine_;
};

} // namespace

VirtualTimeBackend::VirtualTimeBackend(const platform::PerfModel& model)
    : model_(model)
{
}

VirtualTimeBackend::VirtualTimeBackend(const VirtualTimeBackend& other)
    : model_(other.model_)
{
}

VirtualTimeBackend::~VirtualTimeBackend() = default;

RunResult
VirtualTimeBackend::simulate(const core::Application& app,
                             PipelineSession& session,
                             const GreedyDispatch* greedy) const
{
    const RunConfig& cfg = session.config();
    const bool faulty = !cfg.faults.empty();
    const RunMemo::Key key{cfg.ambientBandwidthGbps, cfg.noiseSalt,
                           greedy != nullptr, faulty};
    const auto serves = [&](const std::unique_ptr<RunMemo>& m) {
        return m->key == key
            && std::equal(m->works.begin(), m->works.end(),
                          app.stages().begin(), app.stages().end(),
                          [](const platform::WorkProfile& w,
                             const core::Stage& s) { return w == s.work(); });
    };
    // The run holds its memo alone: it takes the kept one out of the
    // backend (concurrent runs get one each) and puts it back after.
    std::unique_ptr<RunMemo> memo;
    {
        const std::lock_guard lock(memoMutex_);
        const auto kept = std::find_if(memos_.begin(), memos_.end(), serves);
        if (kept != memos_.end()) {
            memo = std::move(*kept);
            memos_.erase(kept);
        }
    }
    if (!memo) {
        memo = std::make_unique<RunMemo>();
        memo->key = key;
        for (const core::Stage& stage : app.stages())
            memo->works.push_back(stage.work());
        memo->cells.resize(memo->works.size()
                           * static_cast<std::size_t>(model_.soc().numPus()));
    }
    // Draw the noise of the tasks no earlier run reached.
    const int stages = app.numStages();
    for (auto t = static_cast<std::int64_t>(memo->noise.size()) / stages;
         t < cfg.numTasks; ++t)
        for (int s = 0; s < stages; ++s)
            memo->noise.push_back(noiseFactor(model_.soc(), cfg.noiseSalt,
                                              greedy ? kGreedyDomain : 0, t,
                                              s));
    if (faulty)
        memo->rates.clear(); // folded under another run's clock scales
    RunResult result = DesRun(model_, app, session, greedy, *memo).execute();
    const std::lock_guard lock(memoMutex_);
    if (memos_.size() == kKeptMemos)
        memos_.erase(memos_.begin()); // the least recently used
    memos_.push_back(std::move(memo));
    return result;
}

RunResult
VirtualTimeBackend::run(const core::Application& app,
                        const core::Schedule& schedule,
                        const RunConfig& cfg) const
{
    cfg.requireInRange(app.numStages(), model_.soc().numPus());
    PipelineSession session(app, schedule, model_.soc(), cfg, "virtual",
                            cfg.runKernels);
    return simulate(app, session, nullptr);
}

RunResult
VirtualTimeBackend::run(const core::Application& app,
                        const GreedyDispatch& greedy,
                        const RunConfig& cfg) const
{
    const auto& soc = model_.soc();
    cfg.requireInRange(app.numStages(), soc.numPus());
    BT_ASSERT(greedy.dispatchOverheadUs >= 0.0);
    BT_ASSERT(greedy.costs != nullptr
                  && greedy.costs->numStages() == app.numStages()
                  && greedy.costs->numPus() == soc.numPus(),
              "cost table does not match application/device");
    // Slot p starts on PU class p and may run any stage; recovery
    // rebinds it like a chunk.
    std::vector<ChunkSpec> slots;
    for (int p = 0; p < soc.numPus(); ++p)
        slots.push_back(ChunkSpec{p, 0, app.numStages() - 1, p});
    PipelineSession session(app, std::move(slots), soc, cfg, "greedy",
                            cfg.runKernels);
    return simulate(app, session, &greedy);
}

} // namespace bt::runtime
