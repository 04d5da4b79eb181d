#include "runtime/host_backend.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <thread>

#include "common/logging.hpp"
#include "platform/perf_model.hpp"
#include "runtime/pipeline_session.hpp"
#include "runtime/recovery.hpp"
#include "sched/spsc_queue.hpp"
#include "sched/thread_pool.hpp"

namespace bt::runtime {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Buffer id + enqueue timestamp travelling through the queues. */
struct Token
{
    int token = -1;
    double enqueuedAt = 0.0;
};

void
sleepSeconds(double s)
{
    if (s > 0.0)
        std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

/**
 * Recovery state the dispatcher threads share. One mutex serializes all
 * fault decisions: faults are rare events by construction, so the lock
 * is far off the fault-free hot path (which never takes it).
 *
 * Host-backend fault semantics (wall time cannot be rewound):
 *  - slowdown windows stretch a stage by sleeping elapsed*(1/f - 1);
 *  - transient failures skip the kernel and retry after a real backoff
 *    sleep;
 *  - dropouts apply when the first dispatcher observes the deadline;
 *  - per-stage timeouts are not emulated (aborting a host kernel
 *    mid-flight is not safe) - the virtual backend covers that path.
 */
struct HostFaultState
{
    std::mutex mutex;
    std::vector<bool> puAlive;
    std::vector<int> chunkPu;
    std::vector<bool> dropoutDone;
    RecoveryStats stats;
};

} // namespace

HostTimeBackend::HostTimeBackend(const platform::SocDescription& soc)
    : soc_(soc)
{
}

RunResult
HostTimeBackend::run(const core::Application& app,
                     const core::Schedule& schedule,
                     const RunConfig& cfg) const
{
    BT_ASSERT(cfg.queueCapacity > 0);
    cfg.faults.validate(soc_.numPus());

    PipelineSession session(app, schedule, soc_, cfg, "host",
                            /*functional=*/true);
    const int num_chunks = session.numChunks();
    const int num_buffers = session.numBuffers();
    const std::size_t qcap = static_cast<std::size_t>(
        std::max(cfg.queueCapacity, num_buffers));

    // queues[c] feeds chunk c; the extra last queue recycles to chunk 0.
    std::vector<std::unique_ptr<sched::SpscQueue<Token>>> queues;
    for (int c = 0; c <= num_chunks; ++c)
        queues.push_back(
            std::make_unique<sched::SpscQueue<Token>>(qcap));
    for (int b = 0; b < num_buffers; ++b)
        BT_ASSERT(queues[0]->tryPush(Token{b, 0.0}),
                  "free pool exceeds queue capacity");

    std::atomic<bool> affinity_ok{true};
    std::vector<double> busy(static_cast<std::size_t>(num_chunks),
                             0.0);
    // Which PU each chunk is executing on right now (-1 = idle), for
    // the timeline's co-runner snapshots. Relaxed is fine: snapshots
    // are advisory.
    auto running = std::make_unique<std::atomic<int>[]>(
        static_cast<std::size_t>(num_chunks));
    for (int c = 0; c < num_chunks; ++c)
        running[static_cast<std::size_t>(c)].store(
            -1, std::memory_order_relaxed);

    // --- fault layer (inert on fault-free runs) ------------------------
    const platform::PerfModel model(soc_);
    const FaultInjector injector(cfg.faults, soc_.seed ^ cfg.noiseSalt);
    const bool faulty = injector.enabled();
    // Degradation replans share one table + prediction cache per run;
    // only ever touched under fs.mutex (applyDueDropouts).
    ReplanPlanner replanner(model, app);
    HostFaultState fs;
    if (faulty) {
        fs.puAlive.assign(static_cast<std::size_t>(soc_.numPus()),
                          true);
        fs.chunkPu.resize(static_cast<std::size_t>(num_chunks));
        for (int c = 0; c < num_chunks; ++c)
            fs.chunkPu[static_cast<std::size_t>(c)]
                = session.chunk(c).pu;
        fs.dropoutDone.assign(injector.dropouts().size(), false);
    }

    const auto t0 = Clock::now();

    // Apply every dropout whose deadline has passed. Caller holds
    // fs.mutex.
    auto applyDueDropouts = [&](double now) {
        const auto& drops = injector.dropouts();
        for (std::size_t i = 0; i < drops.size(); ++i) {
            if (fs.dropoutDone[i] || now < drops[i].atSeconds)
                continue;
            fs.dropoutDone[i] = true;
            const int dead = drops[i].pu;
            if (!fs.puAlive[static_cast<std::size_t>(dead)])
                continue;
            fs.puAlive[static_cast<std::size_t>(dead)] = false;
            fs.stats.dropouts += 1;
            session.recordEvent(makeFaultEvent(TraceEventKind::Dropout,
                                               -1, -1, -1, dead, now,
                                               now));

            std::vector<int> affected;
            for (int c = 0; c < num_chunks; ++c)
                if (fs.chunkPu[static_cast<std::size_t>(c)] == dead)
                    affected.push_back(c);
            if (affected.empty())
                continue;

            if (cfg.recovery.degrade) {
                const core::Schedule plan
                    = replanner.replan(fs.puAlive);
                fs.stats.replans += 1;
                session.recordEvent(makeFaultEvent(
                    TraceEventKind::Replan, -1, -1, -1, dead, now,
                    now));
                const auto assign = plan.toAssignment();
                for (const int c : affected) {
                    const int target = assign[static_cast<std::size_t>(
                        session.chunk(c).firstStage)];
                    fs.chunkPu[static_cast<std::size_t>(c)] = target;
                    fs.stats.remaps += 1;
                    session.recordEvent(makeFaultEvent(
                        TraceEventKind::Remap, -1, -1, c, target, now,
                        now,
                        "pu " + std::to_string(dead) + " -> "
                            + std::to_string(target)));
                }
            } else {
                for (const int c : affected) {
                    const ChunkSpec& spec = session.chunk(c);
                    const int target = nextBestPu(
                        model, app, spec.firstStage, spec.lastStage,
                        fs.puAlive,
                        fs.chunkPu[static_cast<std::size_t>(c)]);
                    if (target < 0)
                        continue;
                    fs.chunkPu[static_cast<std::size_t>(c)] = target;
                    fs.stats.remaps += 1;
                    session.recordEvent(makeFaultEvent(
                        TraceEventKind::Remap, -1, -1, c, target, now,
                        now,
                        "pu " + std::to_string(dead) + " -> "
                            + std::to_string(target)));
                }
            }
        }
    };

    auto coRunnersOf = [&](int self) {
        std::uint64_t pus = 0;
        for (int c = 0; c < num_chunks; ++c) {
            if (c == self)
                continue;
            const int pu = running[static_cast<std::size_t>(c)].load(
                std::memory_order_relaxed);
            if (pu >= 0)
                pus |= std::uint64_t{1} << pu;
        }
        return pus;
    };

    auto dispatcher = [&](int c) {
        const ChunkSpec& ch = session.chunk(c);
        const platform::PuModel& pu = soc_.pu(ch.pu);

        // Every chunk owns a team of its PU's cores. SIMT PUs declare no
        // coreIds, so their teams are unbound.
        sched::ThreadPool team(pu.cores, pu.coreIds);
        if (!pu.coreIds.empty() && !team.affinityApplied())
            affinity_ok.store(false, std::memory_order_relaxed);

        auto& in = *queues[static_cast<std::size_t>(c)];
        auto& out = *queues[static_cast<std::size_t>(c + 1)];

        for (int processed = 0; processed < cfg.numTasks;) {
            auto token = in.tryPop();
            if (!token) {
                std::this_thread::yield();
                continue;
            }
            const double popped = secondsSince(t0);
            const double queue_wait = popped - token->enqueuedAt;
            if (c == 0)
                session.inject(token->token, popped);
            const std::int64_t task = session.taskOf(token->token);

            running[static_cast<std::size_t>(c)].store(
                ch.pu, std::memory_order_relaxed);
            for (int s = ch.firstStage; s <= ch.lastStage; ++s) {
                int attempt = 0;
                bool remapped = false;
                for (;;) {
                    int cur_pu = ch.pu;
                    if (faulty) {
                        std::lock_guard<std::mutex> lock(fs.mutex);
                        applyDueDropouts(secondsSince(t0));
                        cur_pu = fs.chunkPu[static_cast<std::size_t>(c)];
                        running[static_cast<std::size_t>(c)].store(
                            cur_pu, std::memory_order_relaxed);
                    }
                    const bool will_fail = faulty
                        && injector.transientFailure(task, s, cur_pu,
                                                     attempt);
                    const double start = secondsSince(t0);
                    const std::uint64_t co = coRunnersOf(c);
                    if (!will_fail)
                        session.runStage(c, s, token->token,
                                         cur_pu == ch.pu ? &team : nullptr,
                                         cur_pu);
                    double end = secondsSince(t0);

                    if (!will_fail) {
                        if (faulty) {
                            // Straggler inflation and throttle windows
                            // stretch the stage by sleeping out the
                            // extra wall time.
                            double stretch = injector.stragglerFactor(
                                task, s, attempt);
                            if (stretch > 1.0) {
                                std::lock_guard<std::mutex> lock(
                                    fs.mutex);
                                fs.stats.stragglers += 1;
                                session.recordEvent(makeFaultEvent(
                                    TraceEventKind::Straggler, task, s,
                                    c, cur_pu, start, end));
                            }
                            const double f
                                = injector.slowdownFactor(cur_pu, start);
                            stretch /= f;
                            if (stretch > 1.0) {
                                sleepSeconds((end - start)
                                             * (stretch - 1.0));
                                end = secondsSince(t0);
                            }
                        }
                        if (cfg.ambientBandwidthGbps > 0.0) {
                            // Cross-tenant co-runners: sleep out the
                            // contention model's predicted slowdown of
                            // this stage under the ambient demand, so
                            // native makespans track the planner's
                            // stretched predictions.
                            const auto& w = app.stage(s).work();
                            const double ambient_stretch
                                = model.interferenceHeavyTime(
                                      w, cur_pu,
                                      cfg.ambientBandwidthGbps)
                                / model.interferenceHeavyTime(w,
                                                              cur_pu);
                            if (ambient_stretch > 1.0) {
                                sleepSeconds((end - start)
                                             * (ambient_stretch - 1.0));
                                end = secondsSince(t0);
                            }
                        }
                        session.recordEvent(TraceEvent{
                            task, s, c, cur_pu,
                            s == ch.firstStage && attempt == 0
                                    && !remapped
                                ? queue_wait
                                : 0.0,
                            start, end, co, TraceEventKind::Stage,
                            {}});
                        break;
                    }

                    // Transient failure: the kernel never ran, so a
                    // retry is always side-effect free.
                    {
                        std::lock_guard<std::mutex> lock(fs.mutex);
                        fs.stats.transientFaults += 1;
                        session.recordEvent(makeFaultEvent(
                            TraceEventKind::Transient, task, s, c, cur_pu,
                            start, end));
                    }
                    ++attempt;
                    if (attempt <= cfg.recovery.maxRetries) {
                        const double backoff
                            = cfg.recovery.backoffBaseSeconds
                            * std::pow(cfg.recovery.backoffMultiplier,
                                       attempt - 1);
                        {
                            std::lock_guard<std::mutex> lock(fs.mutex);
                            fs.stats.retries += 1;
                            fs.stats.backoffSeconds += backoff;
                            session.recordEvent(makeFaultEvent(
                                TraceEventKind::Retry, task, s, c, cur_pu,
                                end, end,
                                "attempt " + std::to_string(attempt)));
                        }
                        sleepSeconds(backoff);
                        continue;
                    }
                    bool abandoned = true;
                    if (cfg.recovery.failover && !remapped) {
                        std::lock_guard<std::mutex> lock(fs.mutex);
                        const int target = nextBestPu(
                            model, app, ch.firstStage, ch.lastStage,
                            fs.puAlive, cur_pu);
                        if (target >= 0) {
                            fs.chunkPu[static_cast<std::size_t>(c)]
                                = target;
                            fs.stats.remaps += 1;
                            session.recordEvent(makeFaultEvent(
                                TraceEventKind::Remap, task, s, c,
                                target, end, end,
                                "cur_pu " + std::to_string(cur_pu) + " -> "
                                    + std::to_string(target)));
                            remapped = true;
                            attempt = 0;
                            abandoned = false;
                        }
                    }
                    if (abandoned) {
                        {
                            std::lock_guard<std::mutex> lock(fs.mutex);
                            fs.stats.unrecovered += 1;
                            session.recordEvent(makeFaultEvent(
                                TraceEventKind::Abandon, task, s, c,
                                cur_pu, end, end));
                        }
                        session.recordFailure(task, s);
                        break;
                    }
                }
            }
            running[static_cast<std::size_t>(c)].store(
                -1, std::memory_order_relaxed);
            const double done = secondsSince(t0);
            busy[static_cast<std::size_t>(c)] += done - popped;

            token->enqueuedAt = done;
            while (!out.tryPush(*token))
                std::this_thread::yield();
            ++processed;
        }
    };

    // Recycler: completes (validates) each finished task off the tail's
    // critical path, at the time the tail stamped into enqueuedAt, then
    // moves its token back to the front queue (keeps queues SPSC).
    std::thread recycler([&] {
        auto& from = *queues[static_cast<std::size_t>(num_chunks)];
        auto& to = *queues[0];
        for (int moved = 0; moved < cfg.numTasks;) {
            auto token = from.tryPop();
            if (!token) {
                std::this_thread::yield();
                continue;
            }
            session.complete(token->token, token->enqueuedAt);
            while (!to.tryPush(*token))
                std::this_thread::yield();
            ++moved;
        }
    });

    std::vector<std::thread> dispatchers;
    dispatchers.reserve(static_cast<std::size_t>(num_chunks));
    for (int c = 0; c < num_chunks; ++c)
        dispatchers.emplace_back(dispatcher, c);
    for (auto& t : dispatchers)
        t.join();
    recycler.join();

    RunResult result = session.finish(
        secondsSince(t0), busy,
        affinity_ok.load(std::memory_order_relaxed));
    result.recovery = fs.stats;
    return result;
}

} // namespace bt::runtime
