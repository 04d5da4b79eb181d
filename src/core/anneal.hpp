/**
 * @file
 * Annealed local-search planning engine (PlannerEngine::Annealed): a
 * seeded, deterministic simulated-annealing walk over the schedule
 * space, with ScheduleEvaluator::evaluate as the inner-loop oracle.
 * This is how the planner scales past enumerable spaces: the exact
 * engine visits every schedule, which optimize() allows only up to
 * PlannerSpec::exactSpaceLimit of them, while the walk's cost is its
 * move budget, whatever the space size.
 *
 * The engine does not rank schedules itself. It maintains a pool of
 * every distinct C6-feasible schedule it evaluates, which doubles as
 * its memo: a revisited schedule returns its pooled prediction, a new
 * one is folded once. The Optimizer runs
 * a sequence of phases with different guide costs (mirroring the exact
 * engines' level structure) and then applies the *same* level-1/level-2
 * selection arithmetic as the exhaustive engine over the pool.
 *
 * When the whole schedule space fits within a quarter of the move
 * budget, the annealer sweeps it outright instead of walking it: the
 * pool then *is* the enumeration and the harvested result coincides
 * with the exhaustive engine's bit for bit. Annealing only pays off
 * past that size, where the restart chains plus an occasional teleport
 * proposal keep the walk ergodic. This is what makes the annealed
 * result cost-equal to the exact solver on every enumerable
 * cross-validation instance, by construction rather than by luck.
 */

#ifndef BT_CORE_ANNEAL_HPP
#define BT_CORE_ANNEAL_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "core/schedule.hpp"
#include "core/schedule_eval.hpp"
#include "platform/contention.hpp"

namespace bt::core {

/**
 * Annealing knobs (PlannerSpec::anneal) and the walk's fixed
 * constants. Both knobs are part of the planner fingerprint: whenever
 * the space is large enough for optimize() to anneal, the result
 * depends on them.
 */
struct AnnealSpec
{
    /** Seed of the deterministic move stream. Same seed (and spec) =>
     *  byte-identical schedules, at any autotuner thread count. */
    std::uint64_t seed = 0x5eedb17;

    /** Total proposal budget across all phases and restart chains. */
    std::int64_t moveBudget = 200'000;

    /** Independent restart chains (run sequentially; each derives its
     *  own Rng from the seed). */
    static constexpr int kRestarts = 4;

    /**
     * Initial temperature, *relative* to the current guide cost: an
     * uphill move of delta is accepted with probability
     * exp(-delta / (T * |cost|)).
     */
    static constexpr double kInitialTemperature = 0.25;

    /** Geometric cooling endpoint, as a fraction of the initial
     *  temperature (each phase cools from T0 down to T0 * this). */
    static constexpr double kFinalTemperature = 1e-4;
};

/**
 * The annealing core: restart chains proposing local moves over chunk
 * partitions — reassign a chunk's PU, swap adjacent chunks' PUs, and
 * rebalance the chunking (shift a chunk boundary, split a chunk onto a
 * free PU; merges arise from boundary shifts emptying a chunk), plus a
 * rare teleport to a fresh random partition so no region of the space
 * is unreachable from a frozen chain. Every evaluated schedule that
 * respects the C6 demand budget lands in the pool (demand-violating
 * proposals are filtered before acceptance, so contention budgets are
 * honored without the PB machinery).
 *
 * Deterministic by construction: chains run sequentially, each with a
 * private SplitMix64 stream derived from (seed, chain index).
 */
class Annealer
{
  public:
    struct PoolEntry
    {
        std::vector<int> assignment; ///< stage -> PU
        Prediction pred;
    };

    struct Stats
    {
        std::int64_t proposed = 0; ///< moves drawn (incl. inapplicable)
        std::int64_t accepted = 0; ///< moves taken by a chain
        std::int64_t filtered = 0; ///< rejected by the C6 demand filter
        std::int64_t distinct = 0; ///< pool size (distinct feasible)
        std::int64_t revisits = 0; ///< evaluations served by the pool
        int chains = 0;            ///< restart chains run
    };

    /** Guide cost a phase minimizes; lower is better. */
    using Guide = std::function<double(const Prediction&)>;

    /**
     * @param spec in range per PlannerSpec::problems (the Optimizer
     *        refuses a spec that is not).
     * @param allowed_pus non-empty list of admissible PU classes, all
     *        on the device; moves never leave it.
     * @param space_size schedule-space size over @p allowed_pus (the
     *        Optimizer's OptimizeStats::spaceSize).
     * @param contention optional profile for the C6 demand filter.
     * @param budget_milli C6 aggregate-demand cap (milli-GB/s); 0
     *        disables the filter. When nonzero the caller must
     *        guarantee at least one feasible schedule exists (the
     *        Optimizer pre-checks the frugalest single-chunk one).
     */
    Annealer(ScheduleEvaluator& eval, const AnnealSpec& spec,
             int bucket,
             std::vector<int> allowed_pus, std::uint64_t space_size,
             const platform::ContentionProfile* contention,
             std::int64_t budget_milli);

    /**
     * Run every chain for its share of @p proposals moves, minimizing
     * @p guide with geometric cooling. Chains re-score their current
     * state under the new guide at phase start and reset to their
     * phase-best state at phase end.
     */
    void runPhase(const Guide& guide, std::int64_t proposals);

    /** Every distinct C6-feasible schedule evaluated so far, in
     *  first-visit order (deterministic). */
    const std::vector<PoolEntry>& pool() const { return pool_; }

    /** True when construction already swept the entire schedule space
     *  into the pool (tiny instance): running phases cannot add
     *  anything, so the Optimizer skips straight to the harvest. */
    bool exhausted() const { return exhausted_; }

    Stats stats() const;

  private:
    struct Chain
    {
        std::vector<Chunk> chunks;
        double cost = 0.0;
        std::vector<Chunk> best;
        double bestCost = 0.0;
        Rng rng{0}; ///< re-seeded from (spec.seed, chain index)
    };

    void seedChains(const AnnealSpec& spec);
    void maybeSweep(const AnnealSpec& spec, std::uint64_t space_size);
    std::vector<Chunk> frugalHomogeneous() const;
    std::vector<Chunk> randomPartition(Rng& rng);
    /** Draw one move into prop_; false if the drawn move does not
     *  apply to the current state (still counts against the budget). */
    bool propose(Chain& chain);
    /** Score @p chunks: the pooled Prediction on a revisit, else one
     *  fold, pooled when feasible. nullptr when the C6 filter rejects
     *  the schedule. Valid until the next call. */
    const Prediction* evaluate(std::span<const Chunk> chunks);
    /** evaluate's answer for an indexed assignment at pool position
     *  @p at (kFiltered: known C6-filtered). */
    const Prediction* revisit(std::size_t at);

    /** Index position of an assignment the C6 filter rejected: its
     *  revisits skip the fold but still count as filtered. */
    static constexpr std::size_t kFiltered = SIZE_MAX;

    ScheduleEvaluator& eval_;
    int bucket_;
    std::vector<int> allowed_;
    const platform::ContentionProfile* contention_;
    std::int64_t budgetMilli_;

    std::vector<Chain> chains_;
    std::vector<Chunk> prop_;        ///< proposal scratch
    std::vector<int> assignScratch_; ///< stage -> PU scratch
    int numStages_;

    std::vector<PoolEntry> pool_;
    /** Pool position (or kFiltered) by assignment: packed 4-bit keys
     *  when the instance fits 16 stages x 16 PU classes, else the full
     *  assignment. */
    std::unordered_map<std::uint64_t, std::size_t> poolIndex_;
    std::map<std::vector<int>, std::size_t> poolIndexWide_;
    bool keyed_;

    std::int64_t proposed_ = 0;
    std::int64_t accepted_ = 0;
    std::int64_t filtered_ = 0;
    std::int64_t revisits_ = 0;
    bool exhausted_ = false;
};

} // namespace bt::core

#endif // BT_CORE_ANNEAL_HPP
