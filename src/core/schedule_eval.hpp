/**
 * @file
 * Memoized schedule evaluation for the throughput-oriented planning
 * path (BT-Optimizer hot loop).
 *
 * Producing a deployed schedule means scoring thousands of
 * (stage -> PU) assignments: the exact engine scores every enumerated
 * schedule, the annealed engine re-scores the schedules its walk
 * revisits, and fault-time replans repeat both. All of those
 * scores decompose into per-chunk contributions - the predicted time of
 * running stages [first, last] back-to-back on one PU - and the chunk
 * space is tiny (O(stages^2 x PUs)) while the schedule space is
 * exponential. ScheduleEvaluator exploits that:
 *
 *  1. a dense *chunk-time table* filled once by extending each range one
 *     stage at a time - the same left-fold ProfilingTable::rangeTime
 *     computes, so every entry is bit-identical to the from-scratch sum;
 *  2. a *keyed prediction cache*: full Prediction records (latency,
 *     gapness, energy, chunk count) memoized by a packed assignment key,
 *     shared across exhaustive enumeration, the annealed engine's move
 *     loop (anneal.hpp - millions of move
 *     evaluations become cache lookups), and graceful-degradation
 *     replans against the same table.
 *
 * Cross-tenant co-placement rides the same machinery: when constructed
 * with a ContentionProfile, predictions can be asked for under an
 * ambient-bandwidth *bucket* (a co-runner's quantized DRAM demand).
 * Each bucket gets its own chunk-time table - the base table's cells
 * multiplied by the profile's per-(stage, PU, bucket) stretch factors,
 * built lazily on first use - and its own memo, so scoring a schedule
 * against any co-runner level is a cached lookup. Bucket 0 is the
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
 * Thread compatibility: the evaluator memoizes internally and is NOT
 * safe for concurrent use. The planning path is single-threaded (only
 * candidate *executions* fan out, see autotuner.hpp); fault-time
 * replans serialize through their backend's recovery lock.
 */

#ifndef BT_CORE_SCHEDULE_EVAL_HPP
#define BT_CORE_SCHEDULE_EVAL_HPP

#include <cstdint>
#include <span>
#include <unordered_map>
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

/** Cache effectiveness counters (for stats and the bench harness). */
struct EvalStats
{
    std::uint64_t hits = 0;        ///< predictions served from the memo
    std::uint64_t misses = 0;      ///< predictions computed and stored
    std::uint64_t unkeyed = 0;     ///< computed without memoization
};

/**
 * Incremental, memoizing evaluator over one (device, profiling table)
 * pair. Construction costs O(stages^2 x PUs); every evaluation after
 * that is O(stages) worst case and O(1) on a cache hit.
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

    /** Whether assignments pack into 64-bit memo keys (instance fits
     *  16 stages x 16 PU classes). The annealed engine reuses the same
     *  condition for its visited-pool dedup keys. */
    bool keyed() const { return keyed_; }

    /** Chunk time of stages [first, last] on @p pu; bit-identical to
     *  table().rangeTime(first, last, pu), O(1). */
    double
    chunkTime(int first, int last, int pu) const
    {
        return chunkTimes_[chunkIndex(first, last, pu)];
    }

    /**
     * Predict @p stage_to_pu (one PU index per stage, contiguity
     * C2-respecting) under ambient bucket @p bucket. Memoized by
     * packed key when the instance fits 16 stages x 16 PU classes;
     * computed directly otherwise.
     */
    const Prediction& predict(std::span<const int> stage_to_pu,
                              int bucket = 0);

    /** Convenience overload scoring a built Schedule. */
    const Prediction& predict(const Schedule& schedule, int bucket = 0);

    /** Memo effectiveness since construction. */
    const EvalStats& stats() const { return stats_; }

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

    /** From-scratch-shaped evaluation over the cached chunk times. */
    Prediction evaluate(std::span<const int> stage_to_pu, int bucket);

    /** Chunk-time table of @p bucket, building it on first use. */
    const std::vector<double>& chunkTable(int bucket);

    const platform::SocDescription& soc_;
    const ProfilingTable& table_;
    const platform::PerfModel& powerModel_;
    const platform::ContentionProfile* contention_;
    int numStages_;
    int numPus_;
    bool keyed_; ///< assignments pack into 64 bits

    std::vector<double> chunkTimes_; ///< [first][last][pu], left-fold
    std::unordered_map<std::uint64_t, Prediction> memo_;
    /** Lazily built stretched chunk tables and memos, bucket > 0. */
    std::unordered_map<int, std::vector<double>> bucketChunkTimes_;
    std::unordered_map<int, std::unordered_map<std::uint64_t, Prediction>>
        bucketMemo_;
    Prediction scratch_; ///< returned for unkeyed instances
    EvalStats stats_;
    std::vector<int> assignScratch_; ///< Schedule -> assignment, reused
    std::vector<char> usedScratch_;  ///< energy model's used-PU flags
};

} // namespace bt::core

#endif // BT_CORE_SCHEDULE_EVAL_HPP
