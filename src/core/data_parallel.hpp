/**
 * @file
 * Data-parallel baseline model (paper Sec. 1, "Heterogeneous
 * Parallelism"): instead of pipelining stages across PUs, every stage's
 * data is split across ALL PU classes proportionally to their speed,
 * with a synchronization barrier between stages. The paper argues this
 * is suboptimal because every PU must execute tasks it is poorly
 * suited for (e.g. the GPU still sorts); this model quantifies that.
 */

#ifndef BT_CORE_DATA_PARALLEL_HPP
#define BT_CORE_DATA_PARALLEL_HPP

#include "core/application.hpp"
#include "core/profiling_table.hpp"

namespace bt::core {

/** Barrier + split/merge cost charged per stage (seconds). */
inline constexpr double kDataParallelSyncSeconds = 50e-6;

/**
 * Fraction of a stage that can actually be split across PUs; the rest
 * runs on the fastest PU alone (irregular stages rarely split
 * perfectly).
 */
inline constexpr double kDataParallelSplittable = 0.90;

/**
 * Predicted per-task latency (seconds) of executing @p app with every
 * stage data-parallel across all PU classes, using @p table (the
 * interference-aware table: all PUs are busy during every stage) as
 * the per-PU cost model.
 *
 * With perfect proportional splitting a stage costs the harmonic
 * combination 1 / sum_p (1 / t_{s,p}); the non-splittable remainder
 * stays on the fastest PU; each stage then pays the barrier cost.
 */
double dataParallelLatency(const Application& app,
                           const ProfilingTable& table);

} // namespace bt::core

#endif // BT_CORE_DATA_PARALLEL_HPP
