#include "runtime/host_backend.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
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

} // namespace

HostTimeBackend::HostTimeBackend(const platform::SocDescription& soc)
    : soc_(soc), puNames_(puNames(soc))
{
}

RunResult
HostTimeBackend::run(const core::Application& app,
                     const core::Schedule& schedule,
                     const RunConfig& cfg) const
{
    cfg.requireInRange(app.numStages(), soc_.numPus());

    PipelineSession session(app, schedule, soc_, puNames_, cfg, "host",
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
    // The controller decides every recovery step; this backend adds the
    // wall clock. One mutex serializes every controller call: faults are
    // rare by construction, and fault-free runs never take it.
    //  - slowdown windows and stragglers stretch a completed stage by
    //    sleeping elapsed * (stretch - 1);
    //  - transient failures skip the kernel and retry after a real
    //    backoff sleep;
    //  - dropouts apply when the first dispatcher observes the deadline;
    //  - per-stage timeouts are not emulated (aborting a host kernel
    //    mid-flight is not safe) - the virtual backend covers that path.
    const platform::PerfModel model(soc_);
    RecoveryController recovery(model, app, session);
    const FaultInjector& injector = recovery.injector();
    const bool faulty = recovery.enabled();
    std::mutex fault_mutex;

    const auto t0 = Clock::now();

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
                Attempt attempt;
                for (;;) {
                    int cur_pu = ch.pu;
                    bool will_fail = false;
                    double stretch = 1.0;
                    if (faulty) {
                        std::lock_guard<std::mutex> lock(fault_mutex);
                        const double now = secondsSince(t0);
                        for (const auto& d : injector.dropouts())
                            if (now >= d.atSeconds)
                                recovery.dropout(d.pu, now);
                        if (recovery.stranded(c, task, s, now))
                            break;
                        cur_pu = recovery.puOf(c);
                        will_fail = recovery.transient(c, task, s, attempt);
                        stretch = recovery.straggle(c, task, s, attempt,
                                                    now);
                        running[static_cast<std::size_t>(c)].store(
                            cur_pu, std::memory_order_relaxed);
                    }
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
                            stretch /= injector.slowdownFactor(cur_pu,
                                                               start);
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
                            s == ch.firstStage && attempt.number == 0
                                    && !attempt.remapped
                                ? queue_wait
                                : 0.0,
                            start, end, co, TraceEventKind::Stage,
                            {}});
                        break;
                    }

                    // Transient failure: the kernel never ran, so a
                    // retry is always side-effect free.
                    std::unique_lock<std::mutex> lock(fault_mutex);
                    const NextStep step = recovery.fail(
                        c, task, s, TraceEventKind::Transient, start, end,
                        attempt);
                    const double backoff = recovery.backoffSeconds(attempt);
                    lock.unlock();
                    if (step == NextStep::Abandon)
                        break;
                    if (step == NextStep::Retry) {
                        sleepSeconds(backoff);
                        lock.lock();
                        recovery.retry(c, task, s, attempt,
                                       secondsSince(t0));
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
    result.recovery = recovery.stats();
    return result;
}

} // namespace bt::runtime
