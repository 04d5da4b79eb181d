/**
 * @file
 * Two-tenant contention suite (BENCH_contention.json): what the shared
 * ContentionModel buys a multi-tenant server on the bandwidth-starved
 * contention rig, plus the planning cost of the C6 constraint family.
 *
 * Flavours:
 *   BM_TwoTenantPlan_Blind — PR6-style disjoint PU leases, no
 *                            bandwidth awareness: each tenant plans a
 *                            roofline-saturating schedule within its
 *                            lease, oblivious to its co-runner;
 *   BM_TwoTenantPlan_Aware — contention-aware leases: fair-share C6
 *                            budgets plus ambient-stretched
 *                            predictions.
 * The timed body is the two tenants' plan pipeline (profile ->
 * optimize), so the pair also prices C6. The semantic anchors are the
 * counters: demand_sum_gbps vs roofline_gbps (the blind flavour must
 * oversubscribe, the aware one must fit) and worst_corun_ms — each
 * tenant's plan replayed on the virtual backend under the partner's
 * actual aggregate draw as ambient traffic (the aware worst tenant
 * must be faster). CI's benchmark-smoke step fails on any of these
 * inverting.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "core/application.hpp"
#include "core/sim_executor.hpp"
#include "platform/contention.hpp"
#include "platform/devices.hpp"
#include "platform/perf_model.hpp"
#include "service/service.hpp"

namespace {

using namespace bt;

/** The tests' asymmetric fixture (tests/test_contention.cpp): a
 *  memory block that saturates whichever link it lands on plus a
 *  compute tail; MemHeavy moves twice MemLight's bytes. */
core::Application
memPipeline(const std::string& name, double byte_scale)
{
    core::Application app(name, "buffer", "synthetic memory-bound");
    const auto add = [&](const char* sname, double flops,
                         double bytes) {
        platform::WorkProfile w;
        w.flops = flops;
        w.bytes = bytes;
        w.parallelFraction = 1.0;
        w.pattern = platform::Pattern::Dense;
        app.addStage(
            core::Stage(sname, w, [](core::KernelCtx&) {}, nullptr));
    };
    add("m1", 2e5, 8e5 * byte_scale);
    add("m2", 1e5, 6e5 * byte_scale);
    add("c1", 2e5, 1e3);
    return app;
}

service::ServiceConfig
rigConfig(bool contention_aware)
{
    service::ServiceConfig cfg;
    cfg.workers = 2;
    cfg.run.numTasks = 6;
    cfg.profiler.repetitions = 3;
    cfg.contentionAware = contention_aware;
    return cfg;
}

/** Aggregate DRAM draw (GB/s) of a schedule, via the analytic model. */
double
demandOf(const platform::PerfModel& model, const core::Application& app,
         const core::Schedule& schedule)
{
    std::vector<platform::WorkProfile> works;
    for (const auto& stage : app.stages())
        works.push_back(stage.work());
    const platform::ContentionProfile profile
        = model.contention().profileStages(model, works);
    return static_cast<double>(profile.aggregateDemandMilli(
               schedule.toAssignment()))
        / 1000.0;
}

/** Steady-state task interval of a plan replayed on the virtual
 *  backend with the partner's draw as ambient traffic. */
double
coRunIntervalSeconds(const platform::PerfModel& model,
                     const core::Application& app,
                     const core::Schedule& plan, double partner_gbps)
{
    runtime::RunConfig cfg;
    cfg.numTasks = 24;
    cfg.ambientBandwidthGbps = partner_gbps;
    return core::SimExecutor(model, cfg)
        .execute(app, plan)
        .taskIntervalSeconds;
}

void
twoTenantPlan(benchmark::State& state, bool aware)
{
    const auto soc = platform::contentionRig();
    const platform::PerfModel model(soc);
    const auto heavy = memPipeline("MemHeavy", 1.0);
    const auto light = memPipeline("MemLight", 0.5);

    core::Schedule planHeavy, planLight;
    for (auto _ : state) {
        // The timed body is both tenants' plan pipeline (profile ->
        // optimize) under their round-robin leases, exactly what a
        // two-tenant service pays on a cold cache.
        service::Service svc(soc, rigConfig(aware));
        BT_ASSERT(svc.registerApp(heavy));
        BT_ASSERT(svc.registerApp(light));
        const auto a = svc.freshPlan("MemHeavy", 0, 0, 2);
        const auto b = svc.freshPlan("MemLight", 0, 1, 2);
        planHeavy = a.schedule;
        planLight = b.schedule;
        benchmark::DoNotOptimize(planHeavy);
        benchmark::DoNotOptimize(planLight);
    }

    // Semantic anchors (deterministic: the rig is noise-free).
    const double dHeavy = demandOf(model, heavy, planHeavy);
    const double dLight = demandOf(model, light, planLight);
    const double worst = std::max(
        coRunIntervalSeconds(model, heavy, planHeavy, dLight),
        coRunIntervalSeconds(model, light, planLight, dHeavy));
    state.counters["roofline_gbps"] = soc.mem.dramBwGbps;
    state.counters["demand_sum_gbps"] = dHeavy + dLight;
    state.counters["worst_corun_ms"] = worst * 1e3;
}

void
BM_TwoTenantPlan_Blind(benchmark::State& state)
{
    twoTenantPlan(state, /*aware=*/false);
}
BENCHMARK(BM_TwoTenantPlan_Blind)->Unit(benchmark::kMillisecond);

void
BM_TwoTenantPlan_Aware(benchmark::State& state)
{
    twoTenantPlan(state, /*aware=*/true);
}
BENCHMARK(BM_TwoTenantPlan_Aware)->Unit(benchmark::kMillisecond);

} // namespace
