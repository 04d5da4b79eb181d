/**
 * @file
 * Shared main() for the google-benchmark micro binaries, replacing
 * benchmark::benchmark_main so every snapshot's context records the
 * active SIMD tier, the online core count as the library sees it
 * (bt_num_cpus, the figure perfbench stamps as nproc) and the source
 * revision the build was configured from (bt_git_rev). Trajectory
 * comparisons (BENCH_*.json) must reject deltas between different
 * tiers, core counts or revisions the same way they reject mixed
 * build types: an avx2 run and a forced-scalar run are different
 * machines as far as kernel-body numbers are concerned.
 */

#include <benchmark/benchmark.h>

#include <string>

#include "common/simd.hpp"
#include "kernels/simd_ops.hpp"
#include "sched/affinity.hpp"

#ifndef BT_GIT_REV
#define BT_GIT_REV "unknown"
#endif

int
main(int argc, char** argv)
{
    const bt::kernels::SimdTier tier = bt::kernels::simdTier();
    benchmark::AddCustomContext("bt_simd_isa",
                                bt::simd::isaName(tier.isa));
    benchmark::AddCustomContext("bt_simd_lanes",
                                std::to_string(tier.lanes));
    benchmark::AddCustomContext("bt_simd_dispatch",
                                tier.forced ? "forced" : "runtime");
    benchmark::AddCustomContext(
        "bt_num_cpus", std::to_string(bt::sched::onlineCoreCount()));
    benchmark::AddCustomContext("bt_git_rev", BT_GIT_REV);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
