/**
 * @file
 * Pipeline schedules: the mapping from stages to PUs that the
 * BT-Optimizer produces and the BT-Implementer executes.
 *
 * Under the paper's contiguity constraint (C2), a schedule is an ordered
 * partition of the stage sequence into chunks, each chunk assigned to a
 * distinct PU class. This module provides the data type, predicted-cost
 * queries against a profiling table, and exhaustive enumeration of the
 * whole schedule space (the exact optimizer's admissible pool).
 */

#ifndef BT_CORE_SCHEDULE_HPP
#define BT_CORE_SCHEDULE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/profiling_table.hpp"
#include "platform/soc.hpp"

namespace bt::core {

/** A maximal run of contiguous stages mapped to one PU class. */
struct Chunk
{
    int firstStage = 0; ///< inclusive
    int lastStage = 0;  ///< inclusive
    int pu = 0;         ///< PU class index within the SoC

    int numStages() const { return lastStage - firstStage + 1; }
};

/** An ordered chunk partition covering all stages. */
class Schedule
{
  public:
    Schedule() = default;
    explicit Schedule(std::vector<Chunk> chunks_);

    /** Single-chunk schedule: every stage on @p pu (the baselines). */
    static Schedule homogeneous(int num_stages, int pu);

    /** Build from a per-stage PU assignment; panics if it violates the
     *  contiguity constraint (a PU appearing in two separate runs). */
    static Schedule fromAssignment(const std::vector<int>& stage_to_pu);

    const std::vector<Chunk>& chunks() const { return chunks_; }
    int numChunks() const { return static_cast<int>(chunks_.size()); }
    int numStages() const;

    /** PU index executing stage @p s. */
    int puOfStage(int s) const;

    /** Per-stage assignment vector (inverse of fromAssignment). */
    std::vector<int> toAssignment() const;

    /** Well-formedness against a stage count and PU count. */
    bool valid(int num_stages, int num_pus) const;

    /** Predicted runtime of chunk @p c: sum of its stages' table rows. */
    double chunkTime(const ProfilingTable& table, int c) const;

    /** Predicted steady-state task interval: the bottleneck chunk. */
    double bottleneckTime(const ProfilingTable& table) const;

    /** Gapness = longest minus shortest chunk runtime (objective O1). */
    double gapness(const ProfilingTable& table) const;

    /** e.g. "[morton..sort]->big | [tree]->gpu" with PU labels. */
    std::string toString(const platform::SocDescription& soc,
                         const std::vector<std::string>& names) const;

    /** Compact form "0011222" (stage index -> PU digit). */
    std::string compactString() const;

    bool operator==(const Schedule& other) const
    {
        return toAssignment() == other.toAssignment();
    }

  private:
    std::vector<Chunk> chunks_;
};

/**
 * Enumerate every schedule satisfying C1 (one PU per stage) and C2
 * (contiguity, i.e. distinct PUs per chunk): all ordered partitions of
 * the stage sequence into at most @p num_pus chunks with pairwise
 * distinct PU assignments. For 9 stages and 4 PUs this is 2,116
 * schedules. Only PUs whose bit is set in @p allowed_mask are
 * assigned; excluded PUs are pruned during the walk, so the cost is
 * proportional to the restricted space, not to the full one.
 */
std::vector<Schedule> enumerateSchedules(int num_stages, int num_pus,
                                         std::uint32_t allowed_mask = ~0u);

/** Count of schedules enumerateSchedules would return. */
std::uint64_t countSchedules(int num_stages, int num_pus);

/**
 * Closed-form size of the schedule space:
 *
 *     sum_{k=1}^{min(n,m)} C(n-1, k-1) * m! / (m-k)!
 *
 * (choose the k-1 chunk boundaries, then an ordered selection of k
 * distinct PUs). Equal to countSchedules but O(min(n,m)) instead of
 * walking the whole enumeration tree, so it serves as the cheap
 * refusal predicate of the exact planner engines
 * (PlannerSpec::exactSpaceLimit). Saturates at UINT64_MAX for spaces
 * past 2^64.
 */
std::uint64_t scheduleSpaceSize(int num_stages, int num_pus);

} // namespace bt::core

#endif // BT_CORE_SCHEDULE_HPP
