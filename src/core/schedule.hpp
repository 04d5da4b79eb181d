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

#include <array>
#include <bit>
#include <cstdint>
#include <span>
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

namespace walk_detail {

template <class Visit>
void
walkSchedules(int start, int num_stages, std::uint32_t free_mask,
              std::array<Chunk, 32>& acc, int depth, Visit& visit)
{
    if (start == num_stages) {
        visit(std::span<const Chunk>(acc.data(),
                                     static_cast<std::size_t>(depth)));
        return;
    }
    if (free_mask == 0)
        return; // stages left but no PU to put them on
    for (int end = start; end < num_stages; ++end) {
        for (std::uint32_t f = free_mask; f != 0; f &= f - 1) {
            const int pu = std::countr_zero(f);
            acc[static_cast<std::size_t>(depth)] = Chunk{start, end, pu};
            walkSchedules(end + 1, num_stages, free_mask & ~(1u << pu),
                          acc, depth + 1, visit);
        }
    }
}

} // namespace walk_detail

/**
 * The one schedule walk: call @p visit once for every schedule
 * satisfying C1 (one PU per stage) and C2 (contiguity, i.e. distinct
 * PUs per chunk) - all ordered partitions of the stage sequence into at
 * most @p num_pus chunks with pairwise distinct PU assignments. Only
 * PUs whose bit is set in @p allowed_mask are assigned; excluded PUs
 * are pruned during the walk, so the cost is proportional to the
 * restricted space, not to the full one.
 *
 * @p visit receives the schedule's chunks in stage order as a
 * std::span<const Chunk> that is valid only during the call. Schedules
 * come in a fixed order: the first chunk's end stage ascending, then
 * its PU ascending, recursively. The walk allocates nothing.
 */
template <class Visit>
void
forEachSchedule(int num_stages, int num_pus, std::uint32_t allowed_mask,
                Visit&& visit)
{
    const std::uint32_t on_soc
        = num_pus >= 32 ? ~0u : (1u << num_pus) - 1u;
    std::array<Chunk, 32> acc{};
    walk_detail::walkSchedules(0, num_stages, allowed_mask & on_soc, acc,
                               0, visit);
}

/**
 * Every schedule forEachSchedule visits, built, in walk order. For 9
 * stages and 4 PUs this is 2,116 schedules.
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
 * input of the planner's engine rule (PlannerSpec::exactSpaceLimit).
 * Saturates at UINT64_MAX for spaces past 2^64.
 */
std::uint64_t scheduleSpaceSize(int num_stages, int num_pus);

} // namespace bt::core

#endif // BT_CORE_SCHEDULE_HPP
