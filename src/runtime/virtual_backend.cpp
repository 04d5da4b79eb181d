#include "runtime/virtual_backend.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <deque>
#include <functional>
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
 * noiseFactor for every (task, stage) of one stream. The stream is
 * soc.seed ^ noiseSalt ^ policy domain; with the device's noiseSigma
 * it determines every factor, so a table serves any run that matches
 * both and fits inside it.
 */
struct NoiseTable
{
    std::uint64_t stream = 0;
    double sigma = 0.0;
    std::int64_t tasks = 0;
    int stages = 0;
    std::vector<double> factors; ///< [task * stages + stage]

    double
    at(std::int64_t task, int stage) const
    {
        return factors[static_cast<std::size_t>(task * stages + stage)];
    }
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
    double busyAccum = 0.0;
    TraceEvent pending;     ///< stage execution being recorded (traced runs)

    /** Running a stage (not waiting out a dispatch overhead). */
    bool running() const { return busy && !dispatching; }

    // --- fault-layer state (untouched on fault-free runs) ---
    Attempt attempt;          ///< ladder position of the current stage
    bool willFail = false;    ///< this attempt was drawn as a transient
    std::uint64_t seq = 0;    ///< invalidates stale timers
    sim::TaskId simId = -1;   ///< engine task of the in-flight attempt
};

/**
 * The rates of every co-runner configuration a run has met. A
 * configuration is the active set's (stage, PU) cells in the engine's
 * active order - the order PerfModel::timesOf sums DRAM demand in, so
 * an unordered key could replay rates whose bits differ from a fresh
 * fold. While the clock scales hold (the ambient load is fixed for a
 * run), rates are a pure function of the configuration, and a run
 * meets only a few of them: each is folded once and replayed after.
 * Lives for one run; a slowdown boundary clears it. An open-addressing
 * table over flat arrays: a lookup allocates nothing and costs the
 * same however many configurations greedy dispatch meets.
 */
class RateMemo
{
  public:
    /** Copy the rates memoized for @p config into @p rates; false
     *  when the run has not met @p config since the last clear. */
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

/**
 * The one run body. @p greedy selects the dispatch policy: null runs
 * the session's chunks as a static pipeline (each chunk pops tokens
 * from its own queue and hands them downstream); otherwise every slot
 * drains a FIFO that earliest-finish ranking fills from a ready set.
 */
RunResult
simulate(const platform::PerfModel& model, const core::Application& app,
         PipelineSession& session, const GreedyDispatch* greedy,
         const NoiseTable& noise)
{
    const auto& soc = model.soc();
    const RunConfig& cfg = session.config();
    const int num_pus = soc.numPus();
    const int num_slots = session.numChunks();

    std::vector<SlotRuntime> slots(static_cast<std::size_t>(num_slots));

    // --- fault layer ---------------------------------------------------
    // The controller decides every recovery step; this backend only arms
    // the timers. Everything is inert on fault-free runs: the bindings
    // stay the deployed ones, clockScale stays empty (the performance
    // model short-circuits an empty span), and no timer is ever armed -
    // the event sequence is bit-identical to a build without this layer.
    RecoveryController recovery(model, app, session);
    const FaultInjector& injector = recovery.injector();
    const bool faulty = recovery.enabled();
    std::vector<double> clock_scale; // empty = no throttling anywhere
    if (faulty)
        clock_scale.assign(static_cast<std::size_t>(num_pus), 1.0);
    int completed_tasks = 0;
    bool done = false;

    // queues[c] feeds slot c. Static: the previous chunk's output, the
    // last chunk recycling into queue 0. Greedy: the slot's FIFO of
    // earliest-finish assignments, fed from the ready set; `available`
    // is each slot's estimated drain time and `free_tokens` the unused
    // part of the in-flight pool.
    std::vector<std::deque<WorkItem>> queues(
        static_cast<std::size_t>(num_slots));
    std::deque<WorkItem> ready;
    std::vector<double> available;
    std::vector<int> free_tokens;
    for (int b = 0; b < session.numBuffers(); ++b) {
        if (greedy)
            free_tokens.push_back(b);
        else
            queues[0].push_back(WorkItem{b, 0, 0.0});
    }
    if (greedy)
        available.assign(static_cast<std::size_t>(num_slots), 0.0);

    // --- virtual-time engine ------------------------------------------
    // Tag = slot index; each slot executes at most one stage at a time,
    // so the slot's runtime state identifies the running stage. Rates
    // read each (stage, PU)'s co-runner-independent cell, built on its
    // first use, and are memoized per configuration (RateMemo).
    std::vector<platform::LoadCell> cells(
        static_cast<std::size_t>(app.numStages() * num_pus));
    std::vector<platform::LoadCell> loads; // reused across rate refreshes
    std::vector<int> config;               // the refresh's memo key
    RateMemo memo;
    sim::Engine engine([&](std::span<const sim::ActiveTask> active,
                           std::span<double> rates) {
        config.resize(active.size());
        for (std::size_t i = 0; i < active.size(); ++i) {
            const int c = static_cast<int>(active[i].tag);
            const auto& rt = slots[static_cast<std::size_t>(c)];
            BT_ASSERT(rt.running() && rt.curStage >= 0,
                      "active task on idle slot");
            config[i] = rt.curStage * num_pus + recovery.puOf(c);
        }
        if (memo.find(config, rates))
            return;
        loads.resize(active.size());
        for (std::size_t i = 0; i < active.size(); ++i) {
            const int cell_index = config[i];
            auto& cell = cells[static_cast<std::size_t>(cell_index)];
            if (cell.load.work == nullptr)
                cell = model.cellOf(
                    app.stage(cell_index / num_pus).work(),
                    cell_index % num_pus);
            loads[i] = cell;
        }
        model.timesOf(loads, clock_scale, cfg.ambientBandwidthGbps,
                      rates);
        for (double& r : rates)
            r = 1.0 / r;
        memo.insert(config, rates);
    });

    /** PU classes of the running slots other than @p except. */
    auto runningPus = [&](int except) {
        std::uint64_t pus = 0;
        for (int c = 0; c < num_slots; ++c)
            if (c != except && slots[static_cast<std::size_t>(c)].running())
                pus |= std::uint64_t{1} << recovery.puOf(c);
        return pus;
    };

    // Between engine events the set of running PU classes is constant,
    // so power is piecewise constant and integration is exact. Power is
    // a pure function of that set: compute it once per set a run meets.
    double joules = 0.0;
    std::vector<std::pair<std::uint64_t, double>> power_of; // by mask
    auto powerOf = [&](std::uint64_t mask) {
        for (const auto& [m, watts] : power_of)
            if (m == mask)
                return watts;
        std::vector<bool> on(static_cast<std::size_t>(num_pus));
        for (int p = 0; p < num_pus; ++p)
            on[static_cast<std::size_t>(p)] = (mask >> p) & 1U;
        return power_of.emplace_back(mask, model.systemPowerW(on)).second;
    };
    std::uint64_t powered_mask = 0;
    double power_w = powerOf(0);
    engine.onAdvance([&](double t0, double t1) {
        if (const std::uint64_t mask = runningPus(-1);
            mask != powered_mask) {
            power_w = powerOf(mask);
            powered_mask = mask;
        }
        joules += (t1 - t0) * power_w;
    });

    // Mutual recursion across the dispatch/recovery state machine.
    std::function<void(int)> tryStart;
    std::function<void(int, int, double)> startAttempt;
    std::function<void(int, TraceEventKind)> handleFailure;
    std::function<void(int)> advance;

    /** Start the attempt's engine task: one task whose work is the
     *  seeded noise factor (times a straggler factor under faults);
     *  every attempt of a (task, stage) reads the same factor. */
    auto launch = [&](int c, double since) {
        auto& rt = slots[static_cast<std::size_t>(c)];
        rt.dispatching = false;
        if (faulty
            && recovery.stranded(c, rt.curTask, rt.curStage,
                                 engine.now())) {
            // Every PU is gone and the stage is lost. Move on from a
            // timer, so a stream of lost stages unwinds through the
            // engine instead of recursing once per stage.
            const std::uint64_t seq = ++rt.seq;
            engine.scheduleAt(engine.now(), [&, c, seq] {
                if (slots[static_cast<std::size_t>(c)].seq == seq)
                    advance(c);
            });
            return;
        }
        if (cfg.recordTrace) {
            rt.pending = TraceEvent{rt.curTask,
                                    rt.curStage,
                                    c,
                                    recovery.puOf(c),
                                    engine.now() - since,
                                    engine.now(),
                                    0.0,
                                    runningPus(c),
                                    TraceEventKind::Stage,
                                    {}};
        }
        double work = noise.at(rt.curTask, rt.curStage);
        if (faulty) {
            rt.willFail = recovery.transient(c, rt.curTask, rt.curStage,
                                             rt.attempt);
            work *= recovery.straggle(c, rt.curTask, rt.curStage,
                                      rt.attempt, engine.now());
        }
        if (faulty && cfg.recovery.timeoutFactor > 0.0) {
            // Arm the watchdog: abort the attempt when it exceeds its
            // share-agnostic budget. The seq guard retires the timer if
            // the attempt finishes (or is re-dispatched) first.
            const std::uint64_t seq = ++rt.seq;
            const double budget = cfg.recovery.timeoutFactor
                * model.isolatedTime(app.stage(rt.curStage).work(),
                                     recovery.puOf(c));
            engine.scheduleAt(engine.now() + budget, [&, c, seq] {
                auto& w = slots[static_cast<std::size_t>(c)];
                if (w.seq != seq || !w.busy)
                    return;
                if (engine.cancelTask(w.simId))
                    w.busyAccum += engine.now() - w.stageStart;
                handleFailure(c, TraceEventKind::Timeout);
            });
        }
        rt.simId = engine.startTask(static_cast<std::uint64_t>(c), work);
    };

    /** Begin one attempt of (slot c, stage), waiting since @p since.
     *  Greedy dispatch pays its overhead first. */
    startAttempt = [&](int c, int stage, double since) {
        auto& rt = slots[static_cast<std::size_t>(c)];
        rt.curStage = stage;
        rt.stageStart = engine.now();
        if (!greedy) {
            launch(c, since);
            return;
        }
        rt.dispatching = true;
        const std::uint64_t seq = ++rt.seq;
        engine.scheduleAt(
            engine.now() + greedy->dispatchOverheadUs * 1e-6,
            [&, c, seq, since] {
                if (slots[static_cast<std::size_t>(c)].seq == seq)
                    launch(c, since);
            });
    };

    /** Greedy: admit tasks while the pool has tokens, then give every
     *  ready item to the slot with the earliest predicted finish -
     *  which may mean queueing behind a busy fast PU rather than
     *  running at once on a slow idle one. */
    auto dispatchReady = [&] {
        while (!free_tokens.empty() && !session.exhausted()) {
            const int token = free_tokens.back();
            free_tokens.pop_back();
            session.inject(token, engine.now());
            ready.push_back(WorkItem{token, 0, engine.now()});
        }
        while (!ready.empty()) {
            const WorkItem item = ready.front();
            ready.pop_front();
            int best = 0;
            double best_finish = std::numeric_limits<double>::infinity();
            for (int c = 0; c < num_slots; ++c) {
                const double finish
                    = std::max(available[static_cast<std::size_t>(c)],
                               engine.now())
                    + greedy->costs->at(item.stage, recovery.puOf(c))
                    + greedy->dispatchOverheadUs * 1e-6;
                if (finish < best_finish) {
                    best_finish = finish;
                    best = c;
                }
            }
            queues[static_cast<std::size_t>(best)].push_back(item);
            available[static_cast<std::size_t>(best)] = best_finish;
            tryStart(best);
        }
    };

    /** Stage done (or abandoned): run the chunk's next stage, or pass
     *  the token on - downstream or back to the head (static), to the
     *  ready set or the free pool (greedy). */
    advance = [&](int c) {
        auto& rt = slots[static_cast<std::size_t>(c)];
        if (!greedy && rt.curStage < session.chunk(c).lastStage) {
            rt.attempt = {};
            startAttempt(c, rt.curStage + 1, engine.now());
            return;
        }
        const int token = rt.curToken;
        const int next_stage = rt.curStage + 1;
        rt.busy = false;
        rt.curStage = -1;
        rt.curToken = -1;
        rt.curTask = -1;
        rt.attempt = {};

        const bool last = next_stage == app.numStages();
        if (last) {
            session.complete(token, engine.now());
            if (++completed_tasks == cfg.numTasks)
                done = true;
        }
        if (greedy) {
            if (last)
                free_tokens.push_back(token);
            else
                ready.push_back(WorkItem{token, next_stage, engine.now()});
            // Estimates drift from reality; re-anchor this slot's clock.
            available[static_cast<std::size_t>(c)] = engine.now();
            dispatchReady();
        } else {
            const int next = last ? 0 : c + 1;
            queues[static_cast<std::size_t>(next)].push_back(WorkItem{
                token, session.chunk(next).firstStage, engine.now()});
            tryStart(next);
        }
        tryStart(c); // pull the next item into this slot
    };

    /** One attempt failed (transient or timeout): turn the
     *  controller's next step into timers. */
    handleFailure = [&](int c, TraceEventKind kind) {
        auto& rt = slots[static_cast<std::size_t>(c)];
        switch (recovery.fail(c, rt.curTask, rt.curStage, kind,
                              rt.stageStart, engine.now(), rt.attempt)) {
          case NextStep::Retry: {
            const std::uint64_t seq = ++rt.seq;
            engine.scheduleAt(
                engine.now() + recovery.backoffSeconds(rt.attempt),
                [&, c, seq] {
                    auto& w = slots[static_cast<std::size_t>(c)];
                    if (w.seq != seq)
                        return; // superseded (e.g. dropout re-dispatch)
                    recovery.retry(c, w.curTask, w.curStage, w.attempt,
                                   engine.now());
                    startAttempt(c, w.curStage, engine.now());
                });
            return;
          }
          case NextStep::Failover:
            startAttempt(c, rt.curStage, engine.now());
            return;
          case NextStep::Abandon:
            // Surface the loss and keep the stream moving.
            advance(c);
            return;
        }
    };

    tryStart = [&](int c) {
        auto& rt = slots[static_cast<std::size_t>(c)];
        auto& q = queues[static_cast<std::size_t>(c)];
        if (rt.busy || q.empty())
            return;
        const bool head = !greedy && c == 0;
        if (head && session.exhausted())
            return; // input stream exhausted
        const WorkItem item = q.front();
        q.pop_front();
        if (head)
            session.inject(item.token, engine.now());
        rt.busy = true;
        rt.curToken = item.token;
        rt.curTask = session.taskOf(item.token);
        rt.attempt = {};
        startAttempt(c, item.stage, item.since);
    };

    engine.onComplete([&](sim::TaskId, std::uint64_t tag) {
        const int c = static_cast<int>(tag);
        auto& rt = slots[static_cast<std::size_t>(c)];
        ++rt.seq; // retire the attempt's watchdog
        rt.busyAccum += engine.now() - rt.stageStart;
        if (faulty && rt.willFail) {
            rt.willFail = false;
            handleFailure(c, TraceEventKind::Transient);
            return;
        }
        if (cfg.recordTrace) {
            rt.pending.endSeconds = engine.now();
            session.recordEvent(rt.pending);
        }
        // Kernels run at stage completion, not dispatch: a failed or
        // aborted attempt must commit no side effects, or a retry would
        // re-apply an in-place stage mutation.
        session.runStage(c, rt.curStage, rt.curToken, nullptr,
                         recovery.puOf(c));
        advance(c);
    });

    // --- scheduled fault sources (throttle windows, dropouts) ----------
    std::function<void()> armSlowdown = [&] {
        const double next = injector.nextSlowdownBoundary(engine.now());
        if (!std::isfinite(next))
            return;
        engine.scheduleAt(next, [&] {
            for (int p = 0; p < num_pus; ++p)
                clock_scale[static_cast<std::size_t>(p)]
                    = injector.slowdownFactor(p, engine.now());
            // The active set is untouched but the rate inputs changed:
            // every memoized rate is stale, and the next event must
            // re-read the current one.
            memo.clear();
            engine.invalidateRates();
            armSlowdown();
        });
    };
    if (faulty) {
        for (int p = 0; p < num_pus; ++p)
            clock_scale[static_cast<std::size_t>(p)]
                = injector.slowdownFactor(p, 0.0);
        armSlowdown();

        for (const auto& d : injector.dropouts()) {
            engine.scheduleAt(d.atSeconds, [&, d] {
                // Re-dispatch attempts that were in flight on the dead
                // PU (also cancels pending retries via the seq bump).
                for (const int c : recovery.dropout(d.pu, engine.now())) {
                    auto& rt = slots[static_cast<std::size_t>(c)];
                    if (!rt.busy)
                        continue;
                    if (engine.cancelTask(rt.simId))
                        rt.busyAccum += engine.now() - rt.stageStart;
                    ++rt.seq;
                    rt.willFail = false;
                    rt.attempt = {};
                    startAttempt(c, rt.curStage, engine.now());
                }
            });
        }
    }

    // Prime the pipeline and run to completion. Fault plans may leave
    // timers scheduled past the last completion (a dropout that never
    // came, the tail of a throttle window), so the faulty path steps
    // until the stream drains instead of draining the timer queue.
    if (greedy)
        dispatchReady();
    else
        tryStart(0);
    if (faulty) {
        while (!done && engine.step()) {
        }
    } else {
        engine.run();
    }

    std::vector<double> busy;
    busy.reserve(slots.size());
    for (const SlotRuntime& rt : slots)
        busy.push_back(rt.busyAccum);

    RunResult result = session.finish(engine.now(), busy,
                                      /*affinity_applied=*/true);
    result.energyJoules = joules;
    result.recovery = recovery.stats();
    return result;
}

} // namespace

VirtualTimeBackend::VirtualTimeBackend(const platform::PerfModel& model)
    : model_(model)
{
}

VirtualTimeBackend::VirtualTimeBackend(const VirtualTimeBackend& other)
    : model_(other.model_)
{
}

std::shared_ptr<const NoiseTable>
VirtualTimeBackend::noiseTable(std::uint64_t salt, bool greedy,
                               std::int64_t tasks, int stages) const
{
    const auto& soc = model_.soc();
    const std::uint64_t domain = greedy ? kGreedyDomain : 0;
    const std::uint64_t stream = soc.seed ^ salt ^ domain;
    std::shared_ptr<const NoiseTable>& slot = tables_[greedy ? 1 : 0];
    std::shared_ptr<const NoiseTable> last;
    {
        const std::lock_guard lock(noiseMutex_);
        last = slot;
    }
    if (last && last->stream == stream && last->sigma == soc.noiseSigma) {
        if (last->tasks >= tasks && last->stages >= stages)
            return last;
        // Grow over both runs, so apps of different depths that take
        // turns on one backend stop redrawing each other's factors.
        tasks = std::max(tasks, last->tasks);
        stages = std::max(stages, last->stages);
    }
    // Draw outside the lock: concurrent misses each draw the same
    // factors, and the last one published stays.
    auto table = std::make_shared<NoiseTable>();
    table->stream = stream;
    table->sigma = soc.noiseSigma;
    table->tasks = tasks;
    table->stages = stages;
    table->factors.reserve(static_cast<std::size_t>(tasks * stages));
    for (std::int64_t t = 0; t < tasks; ++t)
        for (int s = 0; s < stages; ++s)
            table->factors.push_back(noiseFactor(soc, salt, domain, t, s));
    const std::lock_guard lock(noiseMutex_);
    slot = table;
    return table;
}

RunResult
VirtualTimeBackend::run(const core::Application& app,
                        const core::Schedule& schedule,
                        const RunConfig& cfg) const
{
    cfg.requireInRange(app.numStages(), model_.soc().numPus());
    PipelineSession session(app, schedule, model_.soc(), cfg, "virtual",
                            cfg.runKernels);
    const auto noise = noiseTable(cfg.noiseSalt, /*greedy=*/false,
                                  cfg.numTasks, app.numStages());
    return simulate(model_, app, session, nullptr, *noise);
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
    const auto noise = noiseTable(cfg.noiseSalt, /*greedy=*/true,
                                  cfg.numTasks, app.numStages());
    return simulate(model_, app, session, &greedy, *noise);
}

} // namespace bt::runtime
