/**
 * @file
 * Google-benchmark coverage of the fault-injection and recovery layer.
 *
 * Two things are on trial: the *zero-overhead claim* of the fault-free
 * fast path (a run with an empty FaultPlan must cost the same wall
 * clock - and produce the identical virtual makespan - as the plain
 * pipeline benchmark), and the wall-clock price of each fault class
 * when it is actually armed (transients + retries, straggler-tripped
 * timeouts, a mid-stream PU dropout with graceful degradation).
 *
 * Each benchmark exports its virtual makespan and the headline recovery
 * counters, so the JSON snapshot (BENCH_faults.json) doubles as a
 * semantic regression check: the seeded fault draws pin every recovery
 * decision, so these numbers must not move across refactors.
 */

#include <benchmark/benchmark.h>

#include "apps/octree_app.hpp"
#include "bench/common/bench_util.hpp"
#include "core/sim_executor.hpp"
#include "platform/devices.hpp"

namespace {

using namespace bt;

const std::vector<int> kAssignment = {0, 1, 1, 3, 3, 3, 2};

runtime::RunConfig
baseConfig()
{
    runtime::RunConfig cfg;
    cfg.noiseSalt = bench::benchNoiseSalt();
    return cfg;
}

void
runAndReport(benchmark::State& state, const runtime::RunConfig& cfg)
{
    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = apps::octreeApp();
    const auto schedule = core::Schedule::fromAssignment(kAssignment);
    const core::SimExecutor executor(model, cfg);

    runtime::RunResult run;
    for (auto _ : state) {
        run = executor.execute(app, schedule);
        benchmark::ClobberMemory();
    }
    state.counters["virtual_makespan_ms"] = run.makespanSeconds * 1e3;
    state.counters["faults_injected"] = run.recovery.faultsInjected();
    state.counters["retries"] = run.recovery.retries;
    state.counters["remaps"] = run.recovery.remaps;
    state.counters["replans"] = run.recovery.replans;
    state.counters["unrecovered"] = run.recovery.unrecovered;
    state.SetItemsProcessed(state.iterations() * cfg.numTasks);
}

/** Baseline: no FaultPlan at all (must match BM_VirtualPipeline's
 *  pixel_octree makespan bit-for-bit). */
void
BM_FaultFree(benchmark::State& state)
{
    runAndReport(state, baseConfig());
}
BENCHMARK(BM_FaultFree);

/** Empty plan but a populated RecoveryPolicy: the fault machinery must
 *  stay cold, so wall clock and makespan match BM_FaultFree. */
void
BM_EmptyPlanArmedPolicy(benchmark::State& state)
{
    auto cfg = baseConfig();
    cfg.faults.faultSeed = 0xabcdef; // still empty(): no rules
    cfg.recovery.timeoutFactor = 8.0;
    cfg.recovery.maxRetries = 5;
    runAndReport(state, cfg);
}
BENCHMARK(BM_EmptyPlanArmedPolicy);

/** Transient failures on every stage, recovered by retry. */
void
BM_TransientRetries(benchmark::State& state)
{
    auto cfg = baseConfig();
    cfg.faults.transients.push_back({-1, -1, 0.1});
    runAndReport(state, cfg);
}
BENCHMARK(BM_TransientRetries);

/** Stragglers big enough to trip the timeout watchdog. */
void
BM_StragglerTimeouts(benchmark::State& state)
{
    auto cfg = baseConfig();
    cfg.faults.stragglers.push_back({-1, 0.05, 100.0});
    cfg.recovery.timeoutFactor = 8.0;
    runAndReport(state, cfg);
}
BENCHMARK(BM_StragglerTimeouts);

/** Thermal-throttle window on the bottleneck chunk's PU over the
 *  first two thirds of the run (throttling a non-bottleneck PU is
 *  mostly absorbed by pipeline slack). */
void
BM_SlowdownWindow(benchmark::State& state)
{
    auto cfg = baseConfig();
    cfg.faults.slowdowns.push_back({0, 0.0, 0.1, 0.5});
    runAndReport(state, cfg);
}
BENCHMARK(BM_SlowdownWindow);

/** Hard GPU dropout mid-stream; the Optimizer re-plans on survivors. */
void
BM_DropoutDegradation(benchmark::State& state)
{
    auto cfg = baseConfig();
    cfg.faults.dropouts.push_back({3, 0.02});
    runAndReport(state, cfg);
}
BENCHMARK(BM_DropoutDegradation);

} // namespace
