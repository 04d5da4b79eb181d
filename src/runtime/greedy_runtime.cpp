#include "runtime/greedy_runtime.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <limits>

#include "common/logging.hpp"
#include "runtime/pipeline_session.hpp"
#include "runtime/virtual_backend.hpp"
#include "sim/engine.hpp"

namespace bt::runtime {

namespace {

/** What a PU class is doing right now. */
enum class PuState { Idle, Dispatching, Running };

/** A (task, stage) pair waiting for a PU. */
struct ReadyItem
{
    std::int64_t task;
    int stage;
    double readyAt; ///< when it entered the ready set
};

} // namespace

GreedyRuntime::GreedyRuntime(const platform::PerfModel& model,
                             const core::ProfilingTable& table)
    : model_(model), table_(table)
{
}

RunResult
GreedyRuntime::run(const core::Application& app, const RunConfig& cfg,
                   const GreedyParams& params) const
{
    const auto& soc = model_.soc();
    BT_ASSERT(cfg.numTasks > 0);
    BT_ASSERT(params.dispatchOverheadUs >= 0.0);
    BT_ASSERT(table_.numStages() == app.numStages()
                  && table_.numPus() == soc.numPus(),
              "cost table does not match application/device");

    const int num_pus = soc.numPus();
    const int in_flight_cap
        = RunConfig::resolveBuffers(params.tasksInFlight, num_pus);

    RunResult result;
    result.tasks = cfg.numTasks;

    TraceTimeline trace;
    if (cfg.recordTrace) {
        trace = TraceTimeline("greedy", num_pus, puNames(soc),
                              stageNames(app));
        trace.setSessionId(cfg.sessionId);
    }

    std::vector<PuState> pu_state(static_cast<std::size_t>(num_pus),
                                  PuState::Idle);
    std::vector<ReadyItem> pu_item(static_cast<std::size_t>(num_pus));
    std::vector<double> pu_busy(static_cast<std::size_t>(num_pus),
                                0.0);
    std::vector<double> pu_started(static_cast<std::size_t>(num_pus),
                                   0.0);
    std::vector<TraceEvent> pu_pending(
        static_cast<std::size_t>(num_pus));
    std::deque<ReadyItem> ready;
    std::int64_t next_task = 0;
    int in_flight = 0;

    std::vector<double> inject_time(static_cast<std::size_t>(
        cfg.numTasks), 0.0);
    std::vector<double> complete_time(static_cast<std::size_t>(
        cfg.numTasks), 0.0);

    std::vector<platform::Load> loads; // reused across rate refreshes
    sim::Engine engine([&](std::span<const sim::ActiveTask> active,
                           std::span<double> rates) {
        loads.resize(active.size());
        for (std::size_t i = 0; i < active.size(); ++i) {
            const int pu = static_cast<int>(active[i].tag);
            BT_ASSERT(pu_state[static_cast<std::size_t>(pu)]
                      == PuState::Running);
            loads[i] = platform::Load{
                &app.stage(pu_item[static_cast<std::size_t>(pu)].stage)
                     .work(),
                pu};
        }
        model_.timesOf(loads, {}, cfg.ambientBandwidthGbps, rates);
        for (double& r : rates)
            r = 1.0 / r;
    });

    EnergyMeter meter(model_, [&](std::vector<bool>& active) {
        for (int p = 0; p < num_pus; ++p)
            if (pu_state[static_cast<std::size_t>(p)]
                == PuState::Running)
                active[static_cast<std::size_t>(p)] = true;
    });
    meter.attach(engine);

    auto coRunnersOf = [&](int self) {
        std::uint64_t pus = 0;
        for (int p = 0; p < num_pus; ++p)
            if (p != self
                && pu_state[static_cast<std::size_t>(p)]
                    == PuState::Running)
                pus |= std::uint64_t{1} << p;
        return pus;
    };

    // HEFT-style earliest-completion dispatch: every ready item is
    // assigned to the PU minimizing (estimated availability + cost),
    // which may mean queueing behind a busy fast PU rather than
    // running immediately on a slow idle one. Each PU drains its own
    // FIFO of assigned items.
    std::vector<std::deque<ReadyItem>> pu_queue(
        static_cast<std::size_t>(num_pus));
    std::vector<double> pu_available(static_cast<std::size_t>(num_pus),
                                     0.0);

    std::function<void(int)> tryStartPu = [&](int p) {
        const auto pi = static_cast<std::size_t>(p);
        if (pu_state[pi] != PuState::Idle || pu_queue[pi].empty())
            return;
        pu_state[pi] = PuState::Dispatching;
        pu_item[pi] = pu_queue[pi].front();
        pu_queue[pi].pop_front();
        pu_started[pi] = engine.now();
        engine.scheduleAt(
            engine.now() + params.dispatchOverheadUs * 1e-6, [&, p] {
                const auto pj = static_cast<std::size_t>(p);
                pu_state[pj] = PuState::Running;
                pu_pending[pj] = TraceEvent{
                    pu_item[pj].task,
                    pu_item[pj].stage,
                    p, // no chunks here: dispatch slot = PU
                    p,
                    engine.now() - pu_item[pj].readyAt,
                    engine.now(),
                    0.0,
                    coRunnersOf(p),
                    TraceEventKind::Stage,
                    {}};
                engine.startTask(
                    static_cast<std::uint64_t>(p),
                    VirtualTimeBackend::noiseFactor(
                        soc, cfg.noiseSalt, 0xd12a, pu_item[pj].task,
                        pu_item[pj].stage));
            });
    };

    std::function<void()> schedule = [&] {
        // Admit new tasks up to the in-flight cap.
        while (in_flight < in_flight_cap && next_task < cfg.numTasks) {
            inject_time[static_cast<std::size_t>(next_task)]
                = engine.now();
            ready.push_back(ReadyItem{next_task, 0, engine.now()});
            ++next_task;
            ++in_flight;
        }
        while (!ready.empty()) {
            const ReadyItem item = ready.front();
            ready.pop_front();
            int best_pu = 0;
            double best_finish
                = std::numeric_limits<double>::infinity();
            for (int p = 0; p < num_pus; ++p) {
                const auto pi = static_cast<std::size_t>(p);
                const double avail
                    = std::max(pu_available[pi], engine.now());
                const double finish
                    = avail + table_.at(item.stage, p)
                    + params.dispatchOverheadUs * 1e-6;
                if (finish < best_finish) {
                    best_finish = finish;
                    best_pu = p;
                }
            }
            const auto pi = static_cast<std::size_t>(best_pu);
            pu_queue[pi].push_back(item);
            pu_available[pi] = best_finish;
            tryStartPu(best_pu);
        }
    };

    engine.onComplete([&](sim::TaskId, std::uint64_t tag) {
        const auto pi = static_cast<std::size_t>(tag);
        const ReadyItem done = pu_item[pi];
        pu_busy[pi] += engine.now() - pu_started[pi];
        pu_state[pi] = PuState::Idle;
        if (cfg.recordTrace) {
            pu_pending[pi].endSeconds = engine.now();
            trace.record(pu_pending[pi]);
        }

        if (done.stage + 1 < app.numStages()) {
            ready.push_back(
                ReadyItem{done.task, done.stage + 1, engine.now()});
        } else {
            complete_time[static_cast<std::size_t>(done.task)]
                = engine.now();
            --in_flight;
        }
        // Estimates drift from reality; re-anchor this PU's clock.
        pu_available[pi] = engine.now();
        schedule();
        tryStartPu(static_cast<int>(pi));
    });

    schedule();
    engine.run();
    BT_ASSERT(next_task == cfg.numTasks && in_flight == 0,
              "dynamic run stalled");

    result.makespanSeconds = engine.now();
    result.energyJoules = meter.joules();
    // Dynamic dispatch may complete tasks out of order; the steady
    // state interval is taken over the sorted completion times.
    finalizeTiming(result, inject_time, complete_time, cfg.warmupTasks,
                   /*sort_completions=*/true);
    finalizeBusyFractions(result, pu_busy);
    if (cfg.recordTrace) {
        trace.sortByStart();
        result.trace = std::move(trace);
    }
    return result;
}

} // namespace bt::runtime
