/**
 * @file
 * Shared helpers for the paper-reproduction benchmarks: paper-scale
 * application builders, device lookup, and the standard flow runner.
 */

#ifndef BT_BENCH_BENCH_UTIL_HPP
#define BT_BENCH_BENCH_UTIL_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench/common/paper_data.hpp"
#include "core/pipeline.hpp"
#include "platform/contention.hpp"
#include "platform/devices.hpp"

namespace bt::bench {

/** Paper-scale instance of application @p app_index (Table-1 order). */
core::Application paperApp(int app_index);

/** Devices in Table-2 order. */
std::vector<platform::SocDescription> devices();

/**
 * Noise salt applied uniformly to every bench execution (static
 * pipeline and dynamic alike): the BT_NOISE_SALT environment variable,
 * or 0 (= the device seed alone). Re-running the suite with the same
 * salt reproduces every virtual-time number bit for bit.
 */
std::uint64_t benchNoiseSalt();

/** Run the full BetterTogether flow for (device, app). */
core::BetterTogetherReport runFlow(const platform::SocDescription& soc,
                                   const core::Application& app);

/** Stage count of the deep synthetic pipeline: 14 stages on the
 *  8-class manycoreRig() is ~1.7e8 schedules (112 assignment
 *  variables), far beyond the exact engine's enumeration limit. */
inline constexpr int kDeepPipelineStages = 14;

/**
 * Deterministic synthetic profiling table for a deep pipeline on
 * @p soc: structured stage/PU heterogeneity plus hash jitter, stable
 * across platforms and runs (no RNG state, no floating-point
 * accumulation order). The large-instance tier of the annealed-planner
 * benchmarks and tests plans over this table.
 */
core::ProfilingTable
deepPipelineTable(const platform::SocDescription& soc,
                  int num_stages = kDeepPipelineStages);

/**
 * Matching hand-built contention snapshot: per-(stage, PU) DRAM demand
 * derived from the PU link bandwidths (so C6 budgets bind), every
 * bucket stretching by exactly 1.0 (the instance exercises budgets,
 * not ambient slowdown).
 */
platform::ContentionProfile
deepPipelineContention(const platform::SocDescription& soc,
                       const core::ProfilingTable& table);

/** Format helper: "8.40 | 34.73" with the smaller value marked. */
std::string baselineCell(double cpu_ms, double gpu_ms);

/** Print the standard bench header line. */
void printHeader(const std::string& title, const std::string& paper_ref);

} // namespace bt::bench

#endif // BT_BENCH_BENCH_UTIL_HPP
