/**
 * @file
 * The shared DRAM-contention model of a UMA SoC.
 *
 * Before this module, interference knowledge was scattered: PerfModel
 * folded bandwidth demand privately inside timeOf, the runtime backends
 * applied ad-hoc clock/noise effects, and the serving layer leased PUs
 * without modeling the DRAM pool its co-running tenants actually share.
 * ContentionModel hoists the memory-side math into one place every
 * layer consumes:
 *
 *  - per-(work, PU) *bandwidth demand* curves (GB/s the stage would
 *    draw from DRAM, memBw x memory intensity);
 *  - the shared *roofline* (MemorySystem::dramBwGbps) and the
 *    demand-proportional scale applied when aggregate demand exceeds
 *    it;
 *  - *ambient demand*: bandwidth drawn by co-runners outside the
 *    pipeline being modeled (other tenants on the same SoC), weighted
 *    by contendedDemandWeight exactly like in-pipeline foreign-PU
 *    traffic;
 *  - quantization helpers: ambient demand bucketized into kBuckets
 *    levels (for memoization / cache keys) and demands quantized to
 *    integer milli-GB/s (for the planner's exact integer C6 test).
 *
 * ContentionProfile is the per-application snapshot the planner layers
 * carry around: per-(stage, PU) demand plus per-bucket slowdown
 * stretch factors, built once by the profiler next to the timing
 * tables. Bucket 0 is always the uncontended baseline with stretch
 * exactly 1.0, so single-tenant planning is bit-identical to a build
 * without this model.
 */

#ifndef BT_PLATFORM_CONTENTION_HPP
#define BT_PLATFORM_CONTENTION_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "platform/soc.hpp"

namespace bt::platform {

class PerfModel;

/**
 * Per-application contention snapshot: bandwidth demand of every
 * (stage, PU) cell plus the slowdown stretch of every (stage, PU,
 * ambient-bucket) triple. Plain arrays with no platform references, so
 * planner layers can copy and carry it next to their profiling tables.
 */
struct ContentionProfile
{
    int numStages = 0;
    int numPus = 0;
    int numBuckets = 0; ///< ambient-demand quantization levels

    /** DRAM bandwidth the stage draws on that PU (GB/s). */
    double
    demandGbps(int stage, int pu) const
    {
        return demandGbps_[cellIndex(stage, pu)];
    }

    /** Same demand quantized to integer milli-GB/s (C6 terms). */
    std::int64_t
    demandMilli(int stage, int pu) const
    {
        return demandMilli_[cellIndex(stage, pu)];
    }

    /**
     * Multiplicative slowdown of (stage, pu) under the ambient demand
     * of @p bucket (ContentionModel::bucketOf), relative to bucket 0.
     * Bucket 0 is exactly 1.0.
     */
    double
    stretch(int stage, int pu, int bucket) const
    {
        return stretch_[cellIndex(stage, pu)
                            * static_cast<std::size_t>(numBuckets)
                        + static_cast<std::size_t>(bucket)];
    }

    /**
     * Aggregate DRAM demand of a whole assignment in milli-GB/s: the
     * sum over used PUs of the *maximum* stage demand placed on that
     * PU (chunk stages run back-to-back, so a PU's draw is its
     * hungriest stage, not the sum).
     */
    std::int64_t
    aggregateDemandMilli(std::span<const int> stage_to_pu) const;

    /** Demand of the single-chunk schedule on @p pu: its hungriest
     *  stage's draw (milli-GB/s). */
    std::int64_t worstStageDemandMilli(int pu) const;

    /**
     * The PU among @p pus (non-empty; first wins ties) whose
     * single-chunk schedule draws the least. That draw is the C6
     * demand floor: no schedule over @p pus demands less, so a budget
     * below it admits nothing.
     */
    int frugalestPu(std::span<const int> pus) const;

    // Dense storage, filled by ContentionModel::profileStages.
    std::vector<double> demandGbps_;        ///< [stage][pu]
    std::vector<std::int64_t> demandMilli_; ///< [stage][pu]
    std::vector<double> stretch_;           ///< [stage][pu][bucket]

    std::size_t
    cellIndex(int stage, int pu) const
    {
        return static_cast<std::size_t>(stage)
            * static_cast<std::size_t>(numPus)
            + static_cast<std::size_t>(pu);
    }
};

/**
 * Stateless evaluator of the shared-memory side of one SocDescription.
 * All methods are const and thread-compatible; PerfModel owns one and
 * delegates every memory-leg computation to it, so the numbers here
 * are bit-identical to what timesOf folds internally.
 */
class ContentionModel
{
  public:
    /** Ambient-demand quantization levels (bucket 0 = uncontended). */
    static constexpr int kBuckets = 8;

    explicit ContentionModel(const SocDescription& soc) : desc(soc) {}

    const SocDescription& soc() const { return desc; }

    /** Shared DRAM bandwidth ceiling (GB/s). */
    double rooflineGbps() const { return desc.mem.dramBwGbps; }

    /** Compute-side time of @p w on @p p at @p freq_ghz (Amdahl over
     *  the PU's cores; the roofline's compute leg). */
    double computeSeconds(const WorkProfile& w, const PuModel& p,
                          double freq_ghz) const;

    /** Standalone memory intensity in [0, 1]: the fraction of the
     *  stage's isolated roofline time that is memory-bound. */
    double memIntensity(const WorkProfile& w, const PuModel& p) const;

    /** DRAM bandwidth demand of @p w on @p p (GB/s): the PU's link
     *  bandwidth weighted by the stage's memory intensity. */
    double
    demandGbps(const WorkProfile& w, const PuModel& p) const
    {
        return p.memBwGbps * memIntensity(w, p);
    }

    /** How a foreign PU's (or tenant's) demand counts against ours:
     *  scaled by contendedDemandWeight (bank-level parallelism). */
    double
    weightedDemand(double demand_gbps, bool same_pu) const
    {
        return same_pu ? demand_gbps
                       : demand_gbps * desc.mem.contendedDemandWeight;
    }

    /** Demand-proportional sharing: the factor scaling every PU's
     *  effective bandwidth when aggregate demand exceeds the roofline. */
    double
    bandwidthScale(double total_demand_gbps) const
    {
        return total_demand_gbps > desc.mem.dramBwGbps
            ? desc.mem.dramBwGbps / total_demand_gbps
            : 1.0;
    }

    /** LLC traffic factor in the given contention state. */
    double
    llcFactor(bool contended) const
    {
        return contended ? desc.mem.llcFactorContended
                         : desc.mem.llcFactorIsolated;
    }

    /** Quantize @p gbps to integer milli-GB/s (C6 coefficients: exact
     *  integer arithmetic instead of float comparisons). */
    static std::int64_t milliGbps(double gbps);

    /** Quantize an ambient demand into one of kBuckets levels;
     *  conservative (the bucket ceiling is >= the demand). 0 iff
     *  demand <= 0. The one bucket rule: the planner's stretch bucket
     *  and the serving cache key both come from here. */
    int bucketOf(double ambient_gbps) const;

    /** Upper edge of @p bucket in GB/s (0.0 for bucket 0). */
    double bucketCeilingGbps(int bucket) const;

    /**
     * Build the per-application snapshot for @p works: demand per
     * (stage, PU) and the interference-heavy slowdown stretch per
     * (stage, PU, bucket), measured against @p model (which must be
     * built over the same SoC).
     */
    ContentionProfile
    profileStages(const PerfModel& model,
                  std::span<const WorkProfile> works) const;

  private:
    const SocDescription& desc;
};

} // namespace bt::platform

#endif // BT_PLATFORM_CONTENTION_HPP
