#include "runtime/virtual_backend.hpp"

#include <algorithm>
#include <cmath>
#include <deque>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "runtime/pipeline_session.hpp"
#include "runtime/recovery.hpp"
#include "sim/engine.hpp"

namespace bt::runtime {

namespace {

/** Event-driven dispatcher state for one chunk. */
struct ChunkRuntime
{
    bool busy = false;
    int curStage = -1;      ///< stage currently "executing"
    int curToken = -1;      ///< buffer id being processed
    std::int64_t curTask = -1;
    double stageStart = 0.0;
    double busyAccum = 0.0;
    TraceEvent pending;     ///< stage execution being recorded

    // --- fault-layer state (untouched on fault-free runs) ---
    Attempt attempt;          ///< ladder position of the current stage
    bool willFail = false;    ///< this attempt was drawn as a transient
    std::uint64_t seq = 0;    ///< invalidates stale timeout/retry timers
    sim::TaskId simId = -1;   ///< engine task of the in-flight attempt
};

} // namespace

EnergyMeter::EnergyMeter(
    const platform::PerfModel& model,
    std::function<void(std::vector<bool>&)> fill_active)
    : model_(model), fillActive_(std::move(fill_active)),
      scratch_(static_cast<std::size_t>(model.soc().numPus()), false)
{
}

void
EnergyMeter::attach(sim::Engine& engine)
{
    engine.onAdvance([this](double t0, double t1) {
        std::fill(scratch_.begin(), scratch_.end(), false);
        fillActive_(scratch_);
        joules_ += (t1 - t0) * model_.systemPowerW(scratch_);
    });
}

VirtualTimeBackend::VirtualTimeBackend(const platform::PerfModel& model)
    : model_(model)
{
}

double
VirtualTimeBackend::noiseFactor(const platform::SocDescription& soc,
                                std::uint64_t salt,
                                std::uint64_t domain, std::int64_t task,
                                int stage)
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

RunResult
VirtualTimeBackend::run(const core::Application& app,
                        const core::Schedule& schedule,
                        const RunConfig& cfg) const
{
    const auto& soc = model_.soc();
    const int num_pus = soc.numPus();
    cfg.requireInRange(app.numStages(), num_pus);
    PipelineSession session(app, schedule, soc, cfg, "virtual",
                            cfg.runKernels);

    const int num_chunks = session.numChunks();
    const int num_buffers = session.numBuffers();

    // --- dispatcher state ---------------------------------------------
    std::vector<ChunkRuntime> chunks(
        static_cast<std::size_t>(num_chunks));

    // --- fault layer ---------------------------------------------------
    // The controller decides every recovery step; this backend only arms
    // the timers. Everything is inert on fault-free runs: the bindings
    // stay the deployed ones, clockScale stays empty (the performance
    // model short-circuits an empty span), and no timer is ever armed -
    // the event sequence is bit-identical to a build without this layer.
    RecoveryController recovery(model_, app, session);
    const FaultInjector& injector = recovery.injector();
    const bool faulty = recovery.enabled();
    std::vector<double> clock_scale; // empty = no throttling anywhere
    if (faulty)
        clock_scale.assign(static_cast<std::size_t>(num_pus), 1.0);
    int completed_tasks = 0;
    bool done = false;

    // queues[c] feeds chunk c; the last queue recycles into queue 0.
    std::vector<std::deque<int>> queues(
        static_cast<std::size_t>(num_chunks));
    // enqueueTime[c][token]: when the token entered queue c (for the
    // timeline's queue-wait attribution).
    std::vector<std::vector<double>> enqueue_time(
        static_cast<std::size_t>(num_chunks),
        std::vector<double>(static_cast<std::size_t>(num_buffers),
                            0.0));
    for (int b = 0; b < num_buffers; ++b)
        queues[0].push_back(b);

    // --- virtual-time engine ------------------------------------------
    // Tag = chunk index; each chunk executes at most one stage at a time,
    // so the chunk's runtime state identifies the running stage.
    std::vector<platform::Load> loads; // reused across rate refreshes
    sim::Engine engine([&](std::span<const sim::ActiveTask> active,
                           std::span<double> rates) {
        loads.resize(active.size());
        for (std::size_t i = 0; i < active.size(); ++i) {
            const auto& rt = chunks[static_cast<std::size_t>(
                active[i].tag)];
            BT_ASSERT(rt.busy && rt.curStage >= 0,
                      "active task on idle chunk");
            loads[i] = platform::Load{
                &app.stage(rt.curStage).work(),
                recovery.puOf(static_cast<int>(active[i].tag))};
        }
        model_.timesOf(loads, clock_scale, cfg.ambientBandwidthGbps,
                       rates);
        for (double& r : rates)
            r = 1.0 / r;
    });

    EnergyMeter meter(model_, [&](std::vector<bool>& active) {
        for (int c = 0; c < num_chunks; ++c)
            if (chunks[static_cast<std::size_t>(c)].busy)
                active[static_cast<std::size_t>(recovery.puOf(c))] = true;
    });
    meter.attach(engine);

    auto coRunnersOf = [&](int self) {
        std::uint64_t pus = 0;
        for (int c = 0; c < num_chunks; ++c)
            if (c != self && chunks[static_cast<std::size_t>(c)].busy)
                pus |= std::uint64_t{1} << recovery.puOf(c);
        return pus;
    };

    // Mutual recursion across the dispatch/recovery state machine.
    std::function<void(int)> tryStart;
    std::function<void(int, int, double)> startAttempt;
    std::function<void(int, TraceEventKind)> handleFailure;
    std::function<void(int)> advanceChunk;

    /** Begin one attempt of (chunk c, stage). On fault-free runs this
     *  is exactly the old startStage: one engine task whose work is the
     *  seeded noise factor. */
    startAttempt = [&](int c, int stage, double queue_wait) {
        auto& rt = chunks[static_cast<std::size_t>(c)];
        rt.curStage = stage;
        rt.stageStart = engine.now();
        rt.pending = TraceEvent{rt.curTask,
                                stage,
                                c,
                                recovery.puOf(c),
                                queue_wait,
                                engine.now(),
                                0.0,
                                coRunnersOf(c),
                                TraceEventKind::Stage,
                                {}};
        double work = noiseFactor(soc, cfg.noiseSalt, 0, rt.curTask,
                                  stage);
        if (faulty) {
            rt.willFail
                = recovery.transient(c, rt.curTask, stage, rt.attempt);
            work *= recovery.straggle(c, rt.curTask, stage, rt.attempt,
                                      engine.now());
        }
        if (faulty && cfg.recovery.timeoutFactor > 0.0) {
            // Arm the watchdog: abort the attempt when it exceeds its
            // share-agnostic budget. The seq guard retires the timer if
            // the attempt finishes (or is re-dispatched) first.
            const std::uint64_t seq = ++rt.seq;
            const double budget = cfg.recovery.timeoutFactor
                * model_.isolatedTime(app.stage(stage).work(),
                                      recovery.puOf(c));
            engine.scheduleAt(engine.now() + budget, [&, c, seq] {
                auto& w = chunks[static_cast<std::size_t>(c)];
                if (w.seq != seq || !w.busy)
                    return;
                if (engine.cancelTask(w.simId))
                    w.busyAccum += engine.now() - w.stageStart;
                handleFailure(c, TraceEventKind::Timeout);
            });
        }
        rt.simId = engine.startTask(static_cast<std::uint64_t>(c), work);
    };

    /** Stage done (or abandoned): move to the next stage or hand the
     *  token downstream / recycle it. */
    advanceChunk = [&](int c) {
        auto& rt = chunks[static_cast<std::size_t>(c)];
        if (rt.curStage < session.chunk(c).lastStage) {
            rt.attempt = {};
            startAttempt(c, rt.curStage + 1, 0.0);
            return;
        }
        // Chunk finished: hand the token downstream (or recycle).
        const int token = rt.curToken;
        rt.busy = false;
        rt.curStage = -1;
        rt.curToken = -1;
        rt.curTask = -1;
        rt.attempt = {};

        if (c + 1 < num_chunks) {
            enqueue_time[static_cast<std::size_t>(c + 1)]
                        [static_cast<std::size_t>(token)]
                = engine.now();
            queues[static_cast<std::size_t>(c + 1)].push_back(token);
            tryStart(c + 1);
        } else {
            session.complete(token, engine.now());
            if (++completed_tasks == cfg.numTasks)
                done = true;
            enqueue_time[0][static_cast<std::size_t>(token)]
                = engine.now();
            queues[0].push_back(token);
            tryStart(0);
        }
        tryStart(c); // pull the next token into this chunk
    };

    /** One attempt failed (transient or timeout): turn the
     *  controller's next step into timers. */
    handleFailure = [&](int c, TraceEventKind kind) {
        auto& rt = chunks[static_cast<std::size_t>(c)];
        switch (recovery.fail(c, rt.curTask, rt.curStage, kind,
                              rt.stageStart, engine.now(), rt.attempt)) {
          case NextStep::Retry: {
            const std::uint64_t seq = ++rt.seq;
            engine.scheduleAt(
                engine.now() + recovery.backoffSeconds(rt.attempt),
                [&, c, seq] {
                    auto& w = chunks[static_cast<std::size_t>(c)];
                    if (w.seq != seq)
                        return; // superseded (e.g. dropout re-dispatch)
                    recovery.retry(c, w.curTask, w.curStage, w.attempt,
                                   engine.now());
                    startAttempt(c, w.curStage, 0.0);
                });
            return;
          }
          case NextStep::Failover:
            startAttempt(c, rt.curStage, 0.0);
            return;
          case NextStep::Abandon:
            // Surface the loss and keep the stream moving.
            advanceChunk(c);
            return;
        }
    };

    tryStart = [&](int c) {
        auto& rt = chunks[static_cast<std::size_t>(c)];
        if (rt.busy)
            return;
        auto& q = queues[static_cast<std::size_t>(c)];
        if (q.empty())
            return;
        if (c == 0 && session.exhausted())
            return; // input stream exhausted
        const int token = q.front();
        q.pop_front();
        rt.busy = true;
        rt.curToken = token;
        if (c == 0)
            session.inject(token, engine.now());
        rt.curTask = session.taskOf(token);
        rt.attempt = {};
        startAttempt(c, session.chunk(c).firstStage,
                     engine.now()
                         - enqueue_time[static_cast<std::size_t>(c)]
                                       [static_cast<std::size_t>(
                                           token)]);
    };

    engine.onComplete([&](sim::TaskId, std::uint64_t tag) {
        const int c = static_cast<int>(tag);
        auto& rt = chunks[static_cast<std::size_t>(c)];
        ++rt.seq; // retire the attempt's watchdog
        rt.busyAccum += engine.now() - rt.stageStart;
        if (faulty && rt.willFail) {
            rt.willFail = false;
            handleFailure(c, TraceEventKind::Transient);
            return;
        }
        rt.pending.endSeconds = engine.now();
        session.recordEvent(rt.pending);
        // Kernels run at stage completion, not dispatch: a failed or
        // aborted attempt must commit no side effects, or a retry would
        // re-apply an in-place stage mutation.
        session.runStage(c, rt.curStage, rt.curToken, nullptr,
                         recovery.puOf(c));
        advanceChunk(c);
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
            // force a re-read before the next event.
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
                    auto& rt = chunks[static_cast<std::size_t>(c)];
                    if (!rt.busy)
                        continue;
                    if (engine.cancelTask(rt.simId))
                        rt.busyAccum += engine.now() - rt.stageStart;
                    ++rt.seq;
                    rt.willFail = false;
                    rt.attempt = {};
                    startAttempt(c, rt.curStage, 0.0);
                }
            });
        }
    }

    // Prime the pipeline and run to completion. Fault plans may leave
    // timers scheduled past the last completion (a dropout that never
    // came, the tail of a throttle window), so the faulty path steps
    // until the stream drains instead of draining the timer queue.
    tryStart(0);
    if (faulty) {
        while (!done && engine.step()) {
        }
    } else {
        engine.run();
    }

    std::vector<double> busy(static_cast<std::size_t>(num_chunks));
    for (int c = 0; c < num_chunks; ++c)
        busy[static_cast<std::size_t>(c)]
            = chunks[static_cast<std::size_t>(c)].busyAccum;

    RunResult result = session.finish(engine.now(), busy,
                                      /*affinity_applied=*/true);
    result.energyJoules = meter.joules();
    result.recovery = recovery.stats();
    return result;
}

} // namespace bt::runtime
