/**
 * @file
 * Google-benchmark coverage of the unified pipeline runtime: wall-clock
 * cost of a full virtual-time pipeline execution (the inner loop of
 * autotuning campaigns and every paper experiment), the greedy dynamic
 * baseline, and the marginal cost of trace recording.
 *
 * Each benchmark also exports the *virtual* makespan it measured as a
 * counter, so the JSON snapshot (BENCH_pipeline.json) doubles as a
 * semantic regression check: refactors of the runtime must not move
 * these makespans (same schedules, same seeds).
 */

#include <benchmark/benchmark.h>

#include "apps/alexnet.hpp"
#include "apps/octree_app.hpp"
#include "bench/common/bench_util.hpp"
#include "core/profiler.hpp"
#include "core/sim_executor.hpp"
#include "platform/devices.hpp"
#include "runtime/virtual_backend.hpp"

namespace {

using namespace bt;

struct Scenario
{
    const char* name;
    platform::SocDescription (*soc)();
    core::Application (*app)();
    std::vector<int> assignment;
};

/* Fixed representative (device, app, schedule) triples; the schedules
 * are optimizer-shaped splits, pinned here so the measured makespan is
 * comparable across revisions. */
const Scenario kScenarios[] = {
    {"pixel_dense", platform::pixel7a,
     [] { return apps::alexnetDense(); },
     {0, 0, 0, 0, 1, 1, 1, 1, 1}},
    {"pixel_octree", platform::pixel7a,
     [] { return apps::octreeApp(); },
     {0, 1, 1, 3, 3, 3, 2}},
    {"jetson_octree", platform::jetsonOrinNano,
     [] { return apps::octreeApp(); },
     {0, 0, 0, 1, 1, 1, 1}},
};

void
BM_VirtualPipeline(benchmark::State& state)
{
    const auto& sc = kScenarios[state.range(0)];
    const auto soc = sc.soc();
    const platform::PerfModel model(soc);
    const auto app = sc.app();
    const auto schedule = core::Schedule::fromAssignment(sc.assignment);

    runtime::RunConfig cfg;
    cfg.noiseSalt = bench::benchNoiseSalt();
    const core::SimExecutor executor(model, cfg);

    double makespan = 0.0;
    for (auto _ : state) {
        const auto run = executor.execute(app, schedule);
        makespan = run.makespanSeconds;
        benchmark::ClobberMemory();
    }
    state.SetLabel(sc.name);
    state.counters["virtual_makespan_ms"] = makespan * 1e3;
    state.SetItemsProcessed(state.iterations() * cfg.numTasks);
}
BENCHMARK(BM_VirtualPipeline)->DenseRange(0, 2);

void
BM_VirtualPipelineNoTrace(benchmark::State& state)
{
    const auto& sc = kScenarios[state.range(0)];
    const auto soc = sc.soc();
    const platform::PerfModel model(soc);
    const auto app = sc.app();
    const auto schedule = core::Schedule::fromAssignment(sc.assignment);

    runtime::RunConfig cfg;
    cfg.noiseSalt = bench::benchNoiseSalt();
    cfg.recordTrace = false;
    const core::SimExecutor executor(model, cfg);

    double makespan = 0.0;
    for (auto _ : state) {
        const auto run = executor.execute(app, schedule);
        makespan = run.makespanSeconds;
        benchmark::ClobberMemory();
    }
    state.SetLabel(sc.name);
    state.counters["virtual_makespan_ms"] = makespan * 1e3;
    state.SetItemsProcessed(state.iterations() * cfg.numTasks);
}
BENCHMARK(BM_VirtualPipelineNoTrace)->DenseRange(0, 2);

void
BM_GreedyDynamic(benchmark::State& state)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::octreeApp();
    const core::Profiler profiler(model);
    const auto profile = profiler.profile(app);

    runtime::RunConfig cfg;
    cfg.noiseSalt = bench::benchNoiseSalt();
    const runtime::VirtualTimeBackend backend(model);
    const runtime::GreedyDispatch greedy{&profile.interference};

    double makespan = 0.0;
    for (auto _ : state) {
        const auto run = backend.run(app, greedy, cfg);
        makespan = run.makespanSeconds;
        benchmark::ClobberMemory();
    }
    state.counters["virtual_makespan_ms"] = makespan * 1e3;
    state.SetItemsProcessed(state.iterations() * cfg.numTasks);
}
BENCHMARK(BM_GreedyDynamic);

} // namespace
