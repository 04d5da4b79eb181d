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
 * Two engines, both "admissible pool, then selectDiverse". The exact
 * engine enumerates the C1/C2 schedule space over the allowed PUs in
 * closed form (enumerateSchedules), drops schedules over the C6
 * budget, and scores the rest through the ScheduleEvaluator; tests
 * cross-validate it against a reference built on the DPLL solver in
 * src/solver/ (the paper's Z3 stand-in). The annealed engine
 * (anneal.hpp) is a seeded local search over the same evaluator for
 * instances whose schedule space exceeds PlannerSpec::exactSpaceLimit
 * - it is deterministic per seed but not exactness-preserving, which
 * the planner fingerprint reflects.
 */

#ifndef BT_CORE_OPTIMIZER_HPP
#define BT_CORE_OPTIMIZER_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/anneal.hpp"
#include "core/profiling_table.hpp"
#include "core/schedule.hpp"
#include "core/schedule_eval.hpp"
#include "platform/perf_model.hpp"
#include "platform/soc.hpp"

namespace bt::core {

/**
 * Planning engine. Exhaustive is exact; Annealed is a seeded local
 * search (deterministic per PlannerSpec::anneal, but it only
 * guarantees feasibility, not optimality). The exact engine refuses
 * instances whose schedule space exceeds PlannerSpec::exactSpaceLimit.
 */
enum class PlannerEngine
{
    Exhaustive,
    Annealed,
};

/** "exhaustive" / "annealed". */
const char* plannerEngineName(PlannerEngine engine);

/** Inverse of plannerEngineName; panics on unknown names. */
PlannerEngine plannerEngineFromName(const std::string& name);

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
     * 0 disables the cap.
     */
    int maxPerTier = 3;

    PlannerEngine engine = PlannerEngine::Exhaustive;

    /** Knobs of the annealed engine (ignored by the exact one). */
    AnnealSpec anneal;

    /**
     * Refusal threshold of the exact engine: when the closed-form
     * schedule-space size (scheduleSpaceSize over the allowed PUs)
     * exceeds this, Exhaustive panics instead of attempting an
     * enumeration that would not terminate in reasonable time - the
     * caller must switch to the annealed engine (bt::Service does so
     * automatically for large tenants). 0 disables the check.
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
     * energy-delay product; EnergyKDelay generalizes it to the
     * e^k * d family (energy^energyExponent x delay, SET-style), so
     * k < 1 leans toward latency and k > 1 toward battery life. All
     * engines share the objective.
     */
    enum class Objective { Latency, EnergyDelay, EnergyKDelay };
    Objective objective = Objective::Latency;

    /** k of the e^k * d family (EnergyKDelay only). */
    double energyExponent = 1.0;

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
     * Optional externally-owned evaluator built over the *same* table;
     * lets short-lived optimizers (fault-time replans, autotuner
     * campaigns) reuse a warm prediction cache. Null: the optimizer
     * owns a private one. Not part of the fingerprint - sharing never
     * changes results, only cache temperature.
     */
    ScheduleEvaluator* sharedEvaluator = nullptr;

    /**
     * Optional per-application contention snapshot (must match the
     * table's grid and outlive the optimizer); enables the contention
     * knobs above - ambient-aware predictions and the C6
     * aggregate-bandwidth constraint family.
     */
    const platform::ContentionProfile* contentionProfile = nullptr;

    /** Whether this spec's engine returns the exact optimum. */
    bool
    exactnessPreserving() const
    {
        return engine != PlannerEngine::Annealed;
    }

    /**
     * Stable 64-bit fingerprint of every knob that can change which
     * schedule the optimizer returns - the planner component of a
     * schedule-cache key (bt::service keys its cache by application,
     * platform, ambient-load bucket, PU lease, and this fingerprint).
     * The exact engine's identity is deliberately left out: an exact
     * plan is defined by the knobs alone, so its cache key stays
     * stable however the exact planner is implemented. The annealed
     * engine is NOT exactness-preserving, so its identity and every
     * annealing knob (seed, budget, restarts, temperatures)
     * are mixed in - a cache can never serve an annealed plan where an
     * exact one was requested, or vice versa. The sharedEvaluator /
     * contentionProfile pointers are excluded (sharing and storage
     * location never change results).
     */
    std::uint64_t fingerprint() const;
};

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
     *  (saturating; what the exact-engine refusal checks). */
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

    /** Prediction-cache counters (since evaluator construction; a
     *  shared evaluator accumulates across replans). Both stay zero
     *  only on instances too large for the packed memo key (more than
     *  16 stages or PU classes), which are evaluated unkeyed. */
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
     * Run levels 1 and 2.
     * @return up to K candidates ranked by (feasibility class,
     *         objective score, assignment); never empty for a valid
     *         table.
     */
    std::vector<Candidate> optimize();

    /** Statistics of the most recent optimize() call. */
    const OptimizeStats& stats() const { return stats_; }

  private:
    std::vector<Candidate> optimizeExhaustive();
    std::vector<Candidate> optimizeAnnealed();
    /** The annealed engine's phase schedule (skipped when the annealer
     *  swept the whole space at construction): split the move budget
     *  across guide phases mirroring the exact engine's levels. */
    void runAnnealPhases(Annealer& annealer, int m_eff);
    /**
     * The shared level-1/level-2 selection arithmetic over a set of
     * admissible candidates: derive the latency bound, required PU
     * count and gapness bound from the set, then pick up to K diverse
     * candidates (C5 blocking + per-tier caps), ranked by (class,
     * score, assignment) and truncated to K. The exhaustive engine
     * feeds it the admissible space; the annealed engine feeds it the
     * visited pool - which is exactly why their results agree whenever
     * the pool covers the relevant optima.
     */
    std::vector<Candidate> selectDiverse(std::vector<Candidate> cands);
    Candidate makeCandidate(const Schedule& s) const;
    /** Whether spec allowedPus admits @p pu (empty list = all). */
    bool puAllowed(int pu) const;
    /** C6 predicate: aggregate demand within budget (true if C6 off). */
    bool demandOk(const Schedule& s) const;
    /** 0 = fully feasible, 1 = over gapness budget, 2 = out of class. */
    int rankClass(const Candidate& c) const;
    int rankClassOf(double latency, double gapness,
                    int num_chunks) const;
    /** Objective value used to order candidates within a class. */
    double rankScore(const Candidate& c) const;
    double rankScoreOf(double latency, double energy_j) const;
    void sortCandidates(std::vector<Candidate>& cands) const;

    // Declaration order matters to the initializer list: the stretched
    // table is built from baseTable_ x contention stretch, and `table`
    // then binds to whichever of the two this plan predicts against.
    const platform::SocDescription& soc;
    const ProfilingTable& baseTable_;
    PlannerSpec config;
    const platform::ContentionProfile* contention_;
    int bucket_;               ///< ambient bucket this plan targets
    ProfilingTable stretchedStorage_; ///< base x stretch, bucket > 0
    const ProfilingTable& table; ///< what predictions fold over
    platform::PerfModel powerModel;
    std::int64_t budgetMilli_ = 0; ///< C6 cap, milli-GB/s
    bool c6Active_ = false;
    bool c6Relaxed_ = false;
    OptimizeStats stats_;
    std::unique_ptr<ScheduleEvaluator> ownedEval_;
    ScheduleEvaluator* eval_ = nullptr; ///< owned or shared, never null
};

} // namespace bt::core

#endif // BT_CORE_OPTIMIZER_HPP
