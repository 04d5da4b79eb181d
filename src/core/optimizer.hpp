/**
 * @file
 * BT-Optimizer (paper Sec. 3.3): turns a profiling table into a ranked
 * list of candidate pipeline schedules via three levels:
 *
 *  1. *Utilization under a latency bound*: find the unrestricted
 *     latency optimum, bound acceptable schedules to within
 *     latencySlack of it (the C3-style Tmax bound), require the
 *     maximum attainable PU-class count inside the bound, and compute
 *     the minimal Gapness = Tmax - Tmin there (objective O1) - keeping
 *     predictions close to the interference-heavy conditions the table
 *     was profiled under without sacrificing latency.
 *  2. *Ranking*: pick K diverse candidates (each schedule at most once,
 *     C5, with a per-performance-tier cap) ordered by the configured
 *     objective (latency, energy-delay, or the e^k*d family).
 *  3. *Autotuning* is a separate component (autotuner.hpp) because it
 *     needs an executor.
 *
 * Two engines, both "admissible pool of ranking records, then
 * selectDiverse". The exact engine walks the C1/C2 schedule space over
 * the allowed PUs once (forEachSchedule), scores each schedule in place
 * with the ScheduleEvaluator's fold, drops those over the C6 budget and
 * keeps a compact ranking record of the rest; only the K picked
 * schedules are ever built. Tests cross-validate it against a reference
 * built on a DPLL solver, the paper's Z3 stand-in, that only the tests
 * build. The annealed engine (anneal.hpp) is a seeded local search over
 * the same evaluator, deterministic per seed but not
 * exactness-preserving; its visited pool becomes the records.
 * optimize() picks the engine itself: it anneals exactly when the
 * schedule space over the allowed PUs exceeds
 * PlannerSpec::exactSpaceLimit.
 */

#ifndef BT_CORE_OPTIMIZER_HPP
#define BT_CORE_OPTIMIZER_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "core/anneal.hpp"
#include "core/profiling_table.hpp"
#include "core/schedule.hpp"
#include "core/schedule_eval.hpp"
#include "platform/perf_model.hpp"
#include "platform/soc.hpp"
#include "runtime/fault_plan.hpp"

namespace bt::core {

/**
 * The engine a planning run used (OptimizeStats::engine). Exhaustive
 * is exact; Annealed is a seeded local search (deterministic per
 * PlannerSpec::anneal, but it only guarantees feasibility, not
 * optimality). Chosen by optimize() from the schedule-space size,
 * never set by the caller.
 */
enum class PlannerEngine
{
    Exhaustive,
    Annealed,
};

/** "exhaustive" / "annealed". */
const char* plannerEngineName(PlannerEngine engine);

/**
 * The planner specification: every knob of a planning run, passed to
 * Optimizer as one struct.
 */
struct PlannerSpec
{
    /** K: number of candidate schedules handed to autotuning. */
    int numCandidates = 20;

    /**
     * Level-1 utilization filter (paper O1 + C3): among schedules whose
     * predicted latency stays within (1 + latencySlack) of the
     * unrestricted optimum, prefer those using as many PU classes as
     * possible, and within that set keep gapness within
     * (1 + gapnessSlack) * g* of the minimum. Disabled for the
     * "latency-only" comparison models of Fig. 5b/5c.
     */
    bool utilizationFilter = true;
    double gapnessSlack = 1.00;
    double latencySlack = 0.45;

    /**
     * Diversity control for level 2: at most this many candidates may
     * share the same critical (bottleneck) chunk assignment before
     * that assignment is blocked outright. The paper observes that
     * top schedules cluster into performance tiers defined by their
     * critical assignments; capping per-tier membership makes the
     * candidate list span tiers the way the paper's Table 4 does.
     */
    static constexpr int kMaxPerTier = 3;

    /** Knobs of the annealed engine (used only when it runs). */
    AnnealSpec anneal;

    /**
     * Engine rule: optimize() anneals exactly when the closed-form
     * schedule-space size (scheduleSpaceSize over the allowed PUs)
     * exceeds this, and enumerates the space exactly otherwise. 0
     * always anneals; UINT64_MAX always enumerates.
     */
    std::uint64_t exactSpaceLimit = 200'000;

    /**
     * Restrict the schedule space to these PU classes (empty = all).
     * This is the re-plan hook of the fault-tolerant runtime: after a
     * PU dropout, the remaining schedule is re-optimized with the dead
     * classes excluded (graceful degradation).
     */
    std::vector<int> allowedPus;

    /**
     * Ranking objective within the feasibility class (extension):
     * Latency reproduces the paper; EnergyDelay ranks by predicted
     * energy-delay product. All engines share the objective.
     */
    enum class Objective { Latency, EnergyDelay };
    Objective objective = Objective::Latency;

    /**
     * Cross-tenant contention knobs (only meaningful together with
     * contentionProfile; all-default values plan exactly like a
     * contention-unaware build).
     */
    struct Contention
    {
        /**
         * DRAM bandwidth demand (GB/s) of co-runners outside this
         * plan's pipeline - other tenants sharing the SoC. Quantized
         * to the profile's ambient bucket; predictions then use the
         * bucket's stretched chunk times, so the plan optimizes for
         * the co-run it will actually experience.
         */
        double ambientGbps = 0.0;

        /**
         * Aggregate-demand cap (GB/s) for the C6 constraint family:
         * the schedule's summed per-PU bandwidth draw must stay under
         * this budget, so co-scheduled tenants cannot oversubscribe
         * the shared roofline. 0 disables C6. If even the frugalest
         * single-chunk schedule exceeds the budget, C6 is relaxed
         * (reported via OptimizeStats::c6Relaxed) rather than
         * producing an empty candidate list.
         */
        double budgetGbps = 0.0;

        /**
         * Real-time tenant: its slices are throttle-protected by the
         * serving layer (co-runners absorb the degradation), so it
         * plans at ambient bucket 0 regardless of ambientGbps.
         */
        bool realTime = false;
    };
    Contention contention;

    /**
     * Optional externally-owned evaluator built over the *same* table
     * (and, under C6 or an ambient bucket, the same contention
     * profile); lets short-lived optimizers (fault-time replans,
     * autotuner campaigns) reuse its chunk-time tables instead of
     * rebuilding them. Null: the optimizer owns a private one. Not
     * part of the fingerprint - sharing never changes results.
     */
    ScheduleEvaluator* sharedEvaluator = nullptr;

    /**
     * Optional per-application contention snapshot (must match the
     * table's grid and outlive the optimizer); enables the contention
     * knobs above - ambient-aware predictions and the C6
     * aggregate-bandwidth constraint family.
     */
    const platform::ContentionProfile* contentionProfile = nullptr;

    /**
     * Stable 64-bit fingerprint of every knob that can change which
     * schedule the optimizer returns - the planner component of a
     * schedule-cache key (bt::service keys its cache by application,
     * platform, ambient-load bucket, PU lease, and this fingerprint).
     * exactSpaceLimit and both annealing knobs (seed, budget) are mixed
     * in for every spec: whether they matter depends on the schedule
     * space, which the rest of a cache key (application, lease)
     * already fixes, so one key still names one plan. The sharedEvaluator / contentionProfile
     * pointers are excluded (sharing and storage location never
     * change results).
     */
    std::uint64_t fingerprint() const;

    /**
     * Every range rule of a spec on a SoC with @p num_pus classes
     * (<= 0 = unknown, skipping the allowedPus upper bound):
     * numCandidates >= 1; latencySlack, gapnessSlack and both
     * contention GB/s values >= 0; allowedPus ids in [0, num_pus);
     * anneal.moveBudget >= 1. Lint and the Optimizer read this; a valid spec yields an
     * empty list.
     */
    std::vector<runtime::PlanParseError> problems(int num_pus) const;
};

/**
 * The PU classes @p allowed_pus (PlannerSpec::allowedPus) admits on a
 * SoC of @p num_pus classes, in index order. Ids off the SoC are
 * dropped (PlannerSpec::problems reports them); an empty list admits
 * every class.
 */
std::vector<int> admittedPus(const std::vector<int>& allowed_pus,
                             int num_pus);

/** One optimizer output with its model-predicted costs. */
struct Candidate
{
    Schedule schedule;
    double predictedLatency = 0.0; ///< bottleneck chunk time, seconds
    double predictedGapness = 0.0; ///< seconds
    double predictedEnergyJ = 0.0; ///< per-task SoC energy, joules
    /** Aggregate DRAM demand (GB/s) of the schedule; 0 without a
     *  contention profile. */
    double predictedDemandGbps = 0.0;

    /** Energy-delay product (J*s), the EnergyDelay ranking key. */
    double
    predictedEdp() const
    {
        return predictedEnergyJ * predictedLatency;
    }
};

/** Summary of one optimization run. */
struct OptimizeStats
{
    PlannerEngine engine = PlannerEngine::Exhaustive; ///< engine that ran
    /** Closed-form schedule-space size over the allowed PUs
     *  (saturating; what the engine rule compares against
     *  exactSpaceLimit). */
    std::uint64_t spaceSize = 0;

    double unrestrictedLatency = 0.0; ///< predicted optimum, no filter
    double latencyBound = 0.0;        ///< C3-style Tmax bound applied
    int requiredPus = 1;              ///< utilization level achieved
    double minimalGapness = 0.0;      ///< level-1 optimum g*
    double gapnessBound = 0.0;        ///< bound applied in level 2
    /** Schedules the exact engine enumerated: the C1/C2 space over
     *  the allowed PUs, before the C6 filter (equal to spaceSize); 0
     *  for the annealed engine. Keeps its name for existing readers
     *  such as perfbench/plan_flow.cpp. */
    std::uint64_t solverNodes = 0;
    int candidatesWithinBound = 0;

    /** C6 aggregate-demand budget applied (GB/s; 0 when C6 is off). */
    double demandBudgetGbps = 0.0;
    /** True when the budget was infeasible (below the frugalest
     *  single-chunk schedule) and C6 was therefore dropped. */
    bool c6Relaxed = false;

    /** The annealed engine's pool traffic in this run: evaluations a
     *  pooled schedule served (hits) and new feasible schedules folded
     *  and pooled (misses, equal to annealDistinct). The exact engine
     *  scores each schedule once, in place, and reads 0 for both. */
    std::uint64_t evalHits = 0;
    std::uint64_t evalMisses = 0;

    /** Annealed-engine counters (zero for the exact engine). */
    std::int64_t annealProposed = 0; ///< moves drawn (vs. moveBudget)
    std::int64_t annealAccepted = 0; ///< moves taken
    std::int64_t annealFiltered = 0; ///< moves cut by the C6 filter
    std::int64_t annealDistinct = 0; ///< distinct feasible pool size
    int annealChains = 0;            ///< restart chains run
};

/**
 * Schedule generator over one (device, profiling table) pair. The table
 * decides predicted costs; the SoC supplies the PU classes.
 */
class Optimizer
{
  public:
    Optimizer(const platform::SocDescription& soc,
              const ProfilingTable& table, PlannerSpec spec = {});

    /**
     * Run levels 1 and 2 with the engine the space calls for: the
     * annealed one when stats().spaceSize exceeds exactSpaceLimit, the
     * exact one otherwise.
     * @return up to K candidates ranked by (feasibility class,
     *         objective score, assignment); never empty for a valid
     *         table.
     */
    std::vector<Candidate> optimize();

    /** Statistics of the most recent optimize() call. */
    const OptimizeStats& stats() const { return stats_; }

  private:
    /** Admissible schedules as compact ranking records (optimizer.cpp). */
    struct RankPool;

    std::vector<Candidate> optimizeExhaustive();
    std::vector<Candidate> optimizeAnnealed();
    /** The annealed engine's phase schedule (skipped when the annealer
     *  swept the whole space at construction): split the move budget
     *  across guide phases mirroring the exact engine's levels. */
    void runAnnealPhases(Annealer& annealer, int m_eff);
    /**
     * The shared level-1/level-2 selection arithmetic over the
     * admissible records: derive the latency bound, required PU count
     * and gapness bound from them, then pop records best-first by
     * (class, score, assignment) until K diverse ones are picked (C5
     * blocking + per-tier caps), building a Candidate only for each
     * pick. The exhaustive engine feeds it the admissible space; the
     * annealed engine feeds it the visited pool - which is exactly why
     * their results agree whenever the pool covers the relevant
     * optima.
     */
    std::vector<Candidate> selectDiverse(RankPool& pool);
    /** C6 predicate on a scored schedule: aggregate demand within
     *  budget (true if C6 off). */
    bool demandOk(const Prediction& p) const;
    /** 0 = fully feasible, 1 = over gapness budget, 2 = out of class. */
    int rankClassOf(double latency, double gapness,
                    int num_chunks) const;
    /** Objective value used to order candidates within a class. */
    double rankScoreOf(double latency, double energy_j) const;

    // Declaration order matters to the initializer list: bucket_ reads
    // powerModel and contention_, which reads config.
    const platform::SocDescription& soc;
    const ProfilingTable& table; ///< unstretched; the evaluator stretches
    PlannerSpec config;
    platform::PerfModel powerModel;
    const platform::ContentionProfile* contention_;
    int bucket_;               ///< ambient bucket this plan targets
    std::uint32_t allowedMask_ = 0; ///< bit c: allowedPus admits class c
    std::int64_t budgetMilli_ = 0; ///< C6 cap, milli-GB/s
    bool c6Active_ = false;
    bool c6Relaxed_ = false;
    OptimizeStats stats_;
    std::unique_ptr<ScheduleEvaluator> ownedEval_;
    ScheduleEvaluator* eval_ = nullptr; ///< owned or shared, never null
};

} // namespace bt::core

#endif // BT_CORE_OPTIMIZER_HPP
