#!/usr/bin/env bash
# Run the microbenchmark trajectory suite and snapshot the results as
# JSON at the repository root.
#
# Usage: bench/run_benchmarks.sh [build-dir] [min-time]
#
#   build-dir  CMake build tree for the benchmark binaries
#              (default: build-bench). The script configures/builds it
#              as Release itself; pointing it at an existing tree is
#              allowed only if that tree is already a Release build -
#              mixed-mode snapshots are exactly the trajectory noise
#              this guard exists to prevent.
#   min-time   --benchmark_min_time per benchmark, in seconds, as a
#              plain double (default: 0.25)
#
# Outputs (repo root):
#   BENCH_kernels.json   kernels_micro — kernel bodies, dispatch-tier
#                        pairs (Templated vs Erased), and host-body
#                        trajectory pairs (Tuned vs SeedPath)
#   BENCH_spsc.json      spsc_micro — queue hot-path latency
#   BENCH_pipeline.json  pipeline_micro — unified-runtime pipeline
#                        executions; the virtual_makespan_ms counters
#                        are semantic regression anchors (same
#                        schedules, same seeds)
#   BENCH_faults.json    faults_micro — fault-injection/recovery layer:
#                        the empty-plan fast path must match the plain
#                        pipeline makespan, and the seeded fault runs
#                        pin their recovery counters
#   BENCH_optimizer.json optimizer_throughput — plan-throughput suite:
#                        BM_PlanEndToEnd_Serial vs _Parallel and the
#                        BM_ReplanAfterDropout pair give the parallel
#                        tuning and warm-replan speedups inside one
#                        snapshot
#   BENCH_service.json   service_load — serving load generator:
#                        BM_Serve_ColdPlan vs BM_Serve_Cached give the
#                        schedule-cache serving speedup (achieved_rps)
#                        at equal offered load; BM_Serve_OpenLoop
#                        sweeps offered QPS
#   BENCH_contention.json contention_micro — two-tenant planning on
#                        the contention rig: Blind vs Aware pin the
#                        DRAM oversubscription (demand_sum_gbps vs
#                        roofline_gbps) and the worst-tenant co-run
#                        latency (worst_corun_ms) with and without the
#                        C6 budget
#
# Every snapshot context records bt_build_type so trajectory
# comparisons can reject mixed-mode deltas (the benchmark library's own
# library_build_type field describes the system libbenchmark, not this
# code).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build-bench}"
min_time="${2:-0.25}"

case "$build_dir" in
    /*) ;;
    *) build_dir="$repo_root/$build_dir" ;;
esac

# Benchmarks are only meaningful from an optimized build. Configure the
# tree as Release (a no-op when already configured that way) and refuse
# trees pinned to another build type.
cmake -B "$build_dir" -S "$repo_root" \
    -DCMAKE_BUILD_TYPE=Release > /dev/null
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' \
    "$build_dir/CMakeCache.txt")"
if [[ "$build_type" != "Release" ]]; then
    echo "error: $build_dir is configured as '$build_type', not" \
         "Release; benchmarks must come from an optimized build" >&2
    exit 1
fi
cmake --build "$build_dir" -j "$(nproc)" --target \
    kernels_micro spsc_micro pipeline_micro faults_micro \
    optimizer_throughput service_load contention_micro > /dev/null

run_one() {
    local binary="$1" out="$2"
    if [[ ! -x "$binary" ]]; then
        echo "error: $binary not built (run: cmake --build $build_dir -j)" >&2
        exit 1
    fi
    echo "== $(basename "$binary") -> $out"
    "$binary" \
        --benchmark_min_time="$min_time" \
        --benchmark_context=bt_build_type="$build_type" \
        --benchmark_format=json \
        --benchmark_out="$out" \
        --benchmark_out_format=json \
        > /dev/null
}

run_one "$build_dir/bench/kernels_micro" "$repo_root/BENCH_kernels.json"
run_one "$build_dir/bench/spsc_micro" "$repo_root/BENCH_spsc.json"
run_one "$build_dir/bench/pipeline_micro" "$repo_root/BENCH_pipeline.json"
run_one "$build_dir/bench/faults_micro" "$repo_root/BENCH_faults.json"
run_one "$build_dir/bench/optimizer_throughput" \
        "$repo_root/BENCH_optimizer.json"
run_one "$build_dir/bench/service_load" "$repo_root/BENCH_service.json"
run_one "$build_dir/bench/contention_micro" \
        "$repo_root/BENCH_contention.json"

echo "done: BENCH_kernels.json, BENCH_spsc.json, BENCH_pipeline.json," \
     "BENCH_faults.json, BENCH_optimizer.json, BENCH_service.json," \
     "BENCH_contention.json"
