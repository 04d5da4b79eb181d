/**
 * @file
 * Schedule evaluation for the throughput-oriented planning path
 * (BT-Optimizer hot loop).
 *
 * Producing a deployed schedule means scoring thousands of
 * (stage -> PU) assignments: the exact engine scores every enumerated
 * schedule once, the annealed engine scores each schedule its walk
 * visits (its pool returns revisits), and fault-time replans repeat
 * both. All of those scores decompose into per-chunk contributions -
 * the predicted time of running stages [first, last] back-to-back on
 * one PU - and the chunk space is tiny (O(stages^2 x PUs)) while the
 * schedule space is exponential. ScheduleEvaluator exploits that:
 *
 *  1. a dense *chunk-time table* filled once by extending each range one
 *     stage at a time - the same left-fold ProfilingTable::rangeTime
 *     computes, so every entry is bit-identical to the from-scratch sum;
 *  2. one *fold* (evaluate) that scores a chunk list in place over that
 *     table: latency, gapness, energy and C6 demand, allocating nothing.
 *     It is the planner's only scoring entry.
 *
 * Cross-tenant co-placement rides the same machinery: when constructed
 * with a ContentionProfile, predictions can be asked for under an
 * ambient-bandwidth *bucket* (a co-runner's quantized DRAM demand).
 * Each bucket gets its own chunk-time table - the base table's cells
 * multiplied by the profile's per-(stage, PU, bucket) stretch factors,
 * built lazily on first use - so scoring a schedule against any
 * co-runner level costs the same as the baseline. Bucket 0 is the
 * uncontended baseline and shares the bit-exactness contract below.
 *
 * Bit-exactness contract: every number an evaluator returns is the
 * exact double a from-scratch fold over the schedule would produce:
 * Schedule::bottleneckTime / Schedule::gapness for latency and
 * gapness, and for energy the per-chunk loop in evaluate() run over
 * Schedule::chunkTime. Latency and gapness are max/min folds over
 * cached chunk times; the energy loop runs over the same cached
 * values. Tests cross-validate all of it, demand included, over
 * entire schedule spaces against from-scratch folds of their own.
 *
 * Thread compatibility: the evaluator builds bucket tables lazily and
 * is NOT safe for concurrent use. The planning path is single-threaded
 * (only candidate *executions* fan out, see autotuner.hpp); fault-time
 * replans serialize through their backend's recovery lock.
 */

#ifndef BT_CORE_SCHEDULE_EVAL_HPP
#define BT_CORE_SCHEDULE_EVAL_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "core/profiling_table.hpp"
#include "core/schedule.hpp"
#include "platform/perf_model.hpp"
#include "platform/soc.hpp"

namespace bt::core {

/** Model-predicted cost of one schedule, independent of its Schedule
 *  object identity (everything Optimizer ranks on). */
struct Prediction
{
    double latency = 0.0;  ///< bottleneck chunk time, seconds
    double gapness = 0.0;  ///< longest minus shortest chunk, seconds
    double energyJ = 0.0;  ///< predicted per-task SoC energy, joules
    int numChunks = 0;     ///< distinct PU classes used
    /** Aggregate DRAM demand of the assignment: sum over used PUs of
     *  the hungriest stage placed there. 0 without a contention
     *  profile. Milli-GB/s (exact integers) plus the GB/s view. */
    std::int64_t demandMilli = 0;
    double demandGbps = 0.0;
};

/**
 * Incremental evaluator over one (device, profiling table) pair.
 * Construction costs O(stages^2 x PUs); every evaluation after that is
 * O(stages + PUs).
 */
class ScheduleEvaluator
{
  public:
    /**
     * @p contention (optional) enables bucketed predictions; it must
     * describe the same (stage, PU) grid as @p table and outlive the
     * evaluator. Without it only bucket 0 is valid.
     */
    ScheduleEvaluator(const platform::SocDescription& soc,
                      const ProfilingTable& table,
                      const platform::PerfModel& power_model,
                      const platform::ContentionProfile* contention
                      = nullptr);

    const ProfilingTable& table() const { return table_; }

    int numStages() const { return numStages_; }
    int numPus() const { return numPus_; }

    /** Chunk time of stages [first, last] on @p pu under ambient
     *  bucket @p bucket, O(1) once the bucket's table is built. At
     *  bucket 0 it is bit-identical to table().rangeTime(first, last,
     *  pu); above, to rangeTime over the table stretched cell by cell. */
    double
    chunkTime(int first, int last, int pu, int bucket = 0)
    {
        return chunkTable(bucket)[chunkIndex(first, last, pu)];
    }

    /** The contention profile bucketed predictions and demand read
     *  (null: none; every demand is then 0). */
    const platform::ContentionProfile*
    contention() const
    {
        return contention_;
    }

    /**
     * Score @p chunks under ambient bucket @p bucket in place: the one
     * fold behind every prediction. The chunks must tile the stages in
     * order with at most one chunk per PU (C2). Allocates nothing
     * (after a bucket's table is built).
     */
    Prediction evaluate(std::span<const Chunk> chunks, int bucket = 0);

  private:
    std::size_t
    chunkIndex(int first, int last, int pu) const
    {
        return (static_cast<std::size_t>(first)
                * static_cast<std::size_t>(numStages_)
                + static_cast<std::size_t>(last))
            * static_cast<std::size_t>(numPus_)
            + static_cast<std::size_t>(pu);
    }

    /** Chunk-time table of @p bucket, building it on first use. */
    const std::vector<double>& chunkTable(int bucket);

    const platform::SocDescription& soc_;
    const ProfilingTable& table_;
    const platform::PerfModel& powerModel_;
    const platform::ContentionProfile* contention_;
    int numStages_;
    int numPus_;

    std::vector<double> chunkTimes_; ///< [first][last][pu], left-fold
    std::vector<double> activeW_; ///< [pu][busy others] active power, W
    std::vector<double> idleW_;   ///< [pu] idle power, W
    /** Stretched chunk tables by bucket, each built on first use (empty
     *  until then; index 0 unused). */
    std::vector<std::vector<double>> bucketChunkTimes_;
};

} // namespace bt::core

#endif // BT_CORE_SCHEDULE_EVAL_HPP
