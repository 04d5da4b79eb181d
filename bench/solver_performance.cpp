/**
 * @file
 * Reproduces the Sec. 3.3 solver claims: planning the paper's largest
 * instance (9-stage AlexNet on the 4-PU Pixel) takes well under the
 * 50 ms the paper reports per Z3 invocation - here one optimize() is
 * a single enumeration of the schedule space plus the level-1/2
 * selection - and the top-ranked schedules cluster into performance
 * tiers.
 */

#include <chrono>
#include <cstdio>
#include <iostream>

#include "bench/common/bench_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/optimizer.hpp"
#include "core/profiler.hpp"
#include "core/schedule.hpp"

using namespace bt;
using namespace bt::bench;

int
main()
{
    printHeader("Schedule-solver performance, AlexNet (9 stages) on "
                "Pixel (4 PUs)",
                "paper Sec. 3.3: < 50 ms per invocation, tiering");

    const auto soc = platform::pixel7a();
    const platform::PerfModel model(soc);
    const auto app = paperApp(0);
    const core::Profiler profiler(model);
    const auto profile = profiler.profile(app);

    using Clock = std::chrono::steady_clock;
    std::vector<double> times_ms;
    std::vector<core::Candidate> cands;
    std::uint64_t enumerated = 0;
    for (int rep = 0; rep < 5; ++rep) {
        core::Optimizer opt(soc, profile.interference);
        const auto t0 = Clock::now();
        cands = opt.optimize();
        const auto t1 = Clock::now();
        times_ms.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
        enumerated = opt.stats().solverNodes;
    }
    const Summary s = summarize(times_ms);
    std::printf("Full 3-level optimize(): mean %.2f ms (min %.2f, max "
                "%.2f) over %zu runs, %llu schedules enumerated\n",
                s.mean, s.min, s.max, times_ms.size(),
                static_cast<unsigned long long>(enumerated));
    std::printf("Whole optimize() (one enumeration pass): %.2f ms "
                "(paper: < 50 ms per Z3 invocation)\n",
                s.mean);

    std::printf("\nPredicted-latency tiers of the top-20 candidates "
                "(paper: contiguous groups within ~6%%):\n");
    Table table({"rank", "predicted (ms)", "tier"});
    int tier = 1;
    double tier_base = cands.front().predictedLatency;
    for (std::size_t i = 0; i < cands.size(); ++i) {
        const double lat = cands[i].predictedLatency;
        if (lat > tier_base * 1.06) {
            ++tier;
            tier_base = lat;
        }
        table.addRow({std::to_string(i + 1), Table::num(lat * 1e3, 3),
                      std::to_string(tier)});
    }
    table.print(std::cout);

    // Large-instance tier: the annealed engine where exact planning is
    // off the table. 14 stages on the 8-class manycore rig is ~1.7e8
    // schedules (112 assignment variables), far past exactSpaceLimit,
    // so optimize() anneals it within its fixed move budget.
    std::printf("\nLarge-instance tier: deep pipeline (%d stages) on "
                "the manycore rig (8 PUs)\n",
                bench::kDeepPipelineStages);
    const auto rig = platform::manycoreRig();
    const auto deep = deepPipelineTable(rig);
    const auto contention = deepPipelineContention(rig, deep);

    core::PlannerSpec spec;
    const std::uint64_t space
        = core::scheduleSpaceSize(deep.numStages(), rig.numPus());
    std::printf("Schedule space: %llu (optimize() anneals above "
                "%llu)\n",
                static_cast<unsigned long long>(space),
                static_cast<unsigned long long>(spec.exactSpaceLimit));
    spec.contention.budgetGbps = rig.mem.dramBwGbps;
    spec.contentionProfile = &contention;
    std::vector<double> anneal_ms;
    for (int rep = 0; rep < 3; ++rep) {
        core::Optimizer opt(rig, deep, spec);
        const auto t0 = Clock::now();
        cands = opt.optimize();
        const auto t1 = Clock::now();
        anneal_ms.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    const Summary as = summarize(anneal_ms);
    std::printf("Annealed optimize(): mean %.2f ms (min %.2f, max "
                "%.2f) over %zu runs\n",
                as.mean, as.min, as.max, anneal_ms.size());
    std::printf("Best plan: %.3f ms predicted latency, %.2f GB/s "
                "demand (budget %.2f, feasible: %s)\n",
                cands.front().predictedLatency * 1e3,
                cands.front().predictedDemandGbps,
                spec.contention.budgetGbps,
                cands.front().predictedDemandGbps
                        <= spec.contention.budgetGbps + 1e-9
                    ? "yes"
                    : "NO");
    return 0;
}
