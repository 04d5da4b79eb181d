/**
 * @file
 * Plan-throughput trajectory suite (BENCH_optimizer.json): how many
 * schedules per second the optimizer can score, what a full
 * profile -> optimize -> tune plan costs end to end, and how fast the
 * graceful-degradation replan path recovers after a PU dropout.
 *
 * The plan and replan benchmarks run in two flavours sharing one
 * binary, so the snapshot gives each speedup without cross-revision
 * noise:
 *   BM_PlanEndToEnd_Serial / _Parallel  — one tuning thread vs one per
 *       hardware thread, both with the default planner spec;
 *   BM_ReplanAfterDropout_SeedPath / _Throughput — a fresh optimizer
 *       per replan vs the shared ReplanPlanner evaluator.
 * The measured_best_latency_ms / candidates_tuned counters and the
 * replan-digest labels are semantic anchors: both flavours must report
 * identical values (tuning and the prediction memo are bit-exact), so
 * any divergence in the JSON is a correctness regression, not noise.
 */

#include <benchmark/benchmark.h>

#include <thread>

#include "apps/alexnet.hpp"
#include "apps/octree_app.hpp"
#include "bench/common/bench_util.hpp"
#include "core/autotuner.hpp"
#include "core/optimizer.hpp"
#include "core/profiler.hpp"
#include "core/schedule_eval.hpp"
#include "core/sim_executor.hpp"
#include "platform/devices.hpp"
#include "runtime/recovery.hpp"

namespace {

using namespace bt;

/**
 * Schedules/second through the exact engine: every enumerable schedule
 * of AlexNet-sparse on the Pixel is scored per iteration.
 */
void
BM_EnumerationThroughput(benchmark::State& state)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::alexnetSparse();
    const core::Profiler profiler(model);
    const auto profile = profiler.profile(app);

    const auto space = core::enumerateSchedules(app.numStages(),
                                                soc.numPus());

    double best_latency = 0.0;
    for (auto _ : state) {
        core::Optimizer optimizer(soc, profile.interference);
        const auto cands = optimizer.optimize();
        best_latency = cands.front().predictedLatency;
        benchmark::ClobberMemory();
    }
    state.counters["schedule_space"]
        = static_cast<double>(space.size());
    state.counters["predicted_best_latency_ms"] = best_latency * 1e3;
    state.SetItemsProcessed(
        state.iterations() * static_cast<std::int64_t>(space.size()));
}
BENCHMARK(BM_EnumerationThroughput);

/**
 * End-to-end plan latency: profile -> optimize (default spec, K = 20)
 * -> autotune all candidates on @p threads tuning threads.
 */
void
BM_PlanEndToEnd(benchmark::State& state, int threads)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::alexnetSparse();

    core::SimExecConfig exec_cfg;
    exec_cfg.noiseSalt = bench::benchNoiseSalt();
    const core::SimExecutor executor(model, exec_cfg);

    double best_measured = 0.0;
    int candidates_tuned = 0;
    for (auto _ : state) {
        const core::Profiler profiler(model);
        const auto profile = profiler.profile(app);
        core::Optimizer optimizer(soc, profile.interference);
        const auto cands = optimizer.optimize();
        const core::AutoTuner tuner(executor, 10.0, threads);
        const auto report = tuner.tune(app, cands);
        best_measured = report.best().measuredLatency;
        candidates_tuned = static_cast<int>(report.all.size());
        benchmark::ClobberMemory();
    }
    state.counters["candidates_tuned"]
        = static_cast<double>(candidates_tuned);
    state.counters["measured_best_latency_ms"] = best_measured * 1e3;
    state.SetItemsProcessed(state.iterations() * candidates_tuned);
}
void
BM_PlanEndToEnd_Serial(benchmark::State& state)
{
    BM_PlanEndToEnd(state, 1);
}
void
BM_PlanEndToEnd_Parallel(benchmark::State& state)
{
    const unsigned hw = std::thread::hardware_concurrency();
    BM_PlanEndToEnd(state, static_cast<int>(hw == 0 ? 1 : hw));
}
BENCHMARK(BM_PlanEndToEnd_Serial)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PlanEndToEnd_Parallel)->Unit(benchmark::kMillisecond);

/**
 * Replan latency after a simulated PU dropout: the fault-recovery
 * critical path. SeedPath rebuilds the model table and re-scores the
 * surviving space per replan (the old replanOnSurvivors); Throughput
 * replans through the shared ReplanPlanner cache, whose second and
 * later dropouts hit the warm prediction memo.
 */
void
BM_ReplanAfterDropout(benchmark::State& state, bool cached)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::octreeApp();

    // Two successive dropouts, as a degrading device would see them.
    std::vector<bool> first_loss(
        static_cast<std::size_t>(soc.numPus()), true);
    first_loss[0] = false;
    std::vector<bool> second_loss = first_loss;
    second_loss[1] = false;

    std::string plan_digest;
    for (auto _ : state) {
        if (cached) {
            runtime::ReplanPlanner planner(model, app);
            const auto a = planner.replan(first_loss);
            const auto b = planner.replan(second_loss);
            plan_digest = a.compactString() + "|" + b.compactString();
        } else {
            const auto a
                = runtime::replanOnSurvivors(model, app, first_loss);
            const auto b
                = runtime::replanOnSurvivors(model, app, second_loss);
            plan_digest = a.compactString() + "|" + b.compactString();
        }
        benchmark::ClobberMemory();
    }
    state.SetLabel(plan_digest);
    state.SetItemsProcessed(state.iterations() * 2);
}
void
BM_ReplanAfterDropout_SeedPath(benchmark::State& state)
{
    BM_ReplanAfterDropout(state, false);
}
void
BM_ReplanAfterDropout_Throughput(benchmark::State& state)
{
    BM_ReplanAfterDropout(state, true);
}
BENCHMARK(BM_ReplanAfterDropout_SeedPath)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReplanAfterDropout_Throughput)
    ->Unit(benchmark::kMillisecond);

/**
 * Large-instance tier: the annealed engine plans the 14-stage deep
 * pipeline on the 8-class manycore rig - ~1.7e8 schedules over 112
 * assignment variables, far past the exact engine's enumeration limit
 * (it refuses the instance outright; exact_enumerable records the
 * refusal predicate) - under an active C6 budget, inside a fixed move
 * budget. Single flavour: there is no from-scratch exact baseline at
 * this scale, which is the point of the tier.
 */
void
BM_LargeInstanceAnnealed(benchmark::State& state)
{
    const auto soc = platform::manycoreRig();
    const auto table = bench::deepPipelineTable(soc);
    const auto contention = bench::deepPipelineContention(soc, table);

    core::PlannerSpec spec;
    spec.engine = core::PlannerEngine::Annealed;
    spec.contention.budgetGbps = soc.mem.dramBwGbps;
    spec.contentionProfile = &contention;

    double best_latency = 0.0;
    bool c6_feasible = false;
    std::uint64_t space = 0;
    std::int64_t proposed = 0;
    for (auto _ : state) {
        core::Optimizer optimizer(soc, table, spec);
        const auto cands = optimizer.optimize();
        best_latency = cands.front().predictedLatency;
        c6_feasible = cands.front().predictedDemandGbps
            <= spec.contention.budgetGbps + 1e-9;
        space = optimizer.stats().spaceSize;
        proposed = optimizer.stats().annealProposed;
        benchmark::ClobberMemory();
    }
    state.counters["assignment_variables"] = static_cast<double>(
        table.numStages() * soc.numPus());
    state.counters["schedule_space"] = static_cast<double>(space);
    state.counters["exact_enumerable"]
        = space <= spec.exactSpaceLimit ? 1.0 : 0.0;
    state.counters["moves_proposed"] = static_cast<double>(proposed);
    state.counters["annealed_best_latency_ms"] = best_latency * 1e3;
    state.counters["c6_feasible"] = c6_feasible ? 1.0 : 0.0;
    state.SetItemsProcessed(state.iterations() * proposed);
}
BENCHMARK(BM_LargeInstanceAnnealed)->Unit(benchmark::kMillisecond);

} // namespace
