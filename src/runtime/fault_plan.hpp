/**
 * @file
 * Declarative fault model for pipeline executions (robustness layer).
 *
 * The paper's BT-Implementer assumes PUs behave exactly as profiled, but
 * the phenomena its model captures — DVFS throttling, contention spikes,
 * co-runner interference — are precisely what makes real SoC deployments
 * flaky. A FaultPlan declares, ahead of a run, which misbehaviors to
 * inject: per-PU slowdown windows emulating thermal throttling, transient
 * stage failures, straggler stage executions, and hard PU dropout at a
 * timestamp. Both time backends honor the same plan in their own time
 * domain (virtual seconds for the DES, wall seconds for host threads).
 *
 * All stochastic decisions are derived from seeded hashes of
 * (task, stage, attempt), so a fixed (plan, device seed, noiseSalt)
 * triple reproduces every fault — and every recovery decision —
 * bit-identically. An empty plan disables the entire fault machinery;
 * that path is regression-tested to be bit-identical to fault-free runs.
 *
 * RecoveryPolicy sets the per-stage timeout and the retry budget with
 * its exponential backoff; past the budget a failed chunk fails over to
 * the profiled next-best PU, and a dropout re-plans the remaining
 * schedule on the surviving PUs (RecoveryController). RecoveryStats
 * summarizes what actually happened and rides along in RunResult.
 */

#ifndef BT_RUNTIME_FAULT_PLAN_HPP
#define BT_RUNTIME_FAULT_PLAN_HPP

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/logging.hpp"

namespace bt::runtime {

/** Why a fault plan failed to parse (FaultPlan::fromJson). */
enum class PlanParseErrorKind
{
    Syntax,         ///< not RFC 8259 JSON, or not a plan's shape
    UnknownSection, ///< top-level member that is not a plan section
    UnknownField,   ///< row field no rule of that section defines
    MissingField,   ///< required row field absent
    Range,          ///< field value outside its documented domain
    Overlap,        ///< same-PU slowdown windows overlap in time
};

/** Stable snake_case name of @p kind ("unknown_field", ...). */
std::string_view planParseErrorKindName(PlanParseErrorKind kind);

/** Typed parse failure: what went wrong, and where, in one line. */
struct PlanParseError
{
    PlanParseErrorKind kind = PlanParseErrorKind::Syntax;
    std::string message;

    /** "[<kind>] <message>" - what drivers print. */
    std::string toString() const;
};

/**
 * The Range entries of @p problems, "; "-joined: what a consumer that
 * refuses an out-of-range config panics with. Overlap entries are left
 * out - overlapping windows only compound, which the runtime handles;
 * the parser alone rejects them. Empty when every value is in range.
 */
std::string rangeErrors(const std::vector<PlanParseError>& problems);

/** The one-line form of most scalar range rules: append the Range
 *  problem "<name> must be >= <floor>, got <value>" to @p out unless
 *  value >= floor (a NaN fails). */
template <typename T>
void
atLeastRule(std::vector<PlanParseError>& out, const char* name, T value,
            std::type_identity_t<T> floor)
{
    if (!(value >= floor))
        out.push_back({PlanParseErrorKind::Range,
                       detail::concat(name, " must be >= ", floor,
                                      ", got ", value)});
}

/**
 * Clock throttling of one PU class over a time window (thermal
 * throttling / DVFS capping emulation). clockFactor scales the PU's
 * effective frequency: 0.5 = half clock, so compute-bound stages take
 * twice as long while the window is open.
 */
struct SlowdownWindow
{
    int pu = 0;
    double startSeconds = 0.0;
    double endSeconds = 0.0;
    double clockFactor = 0.5; ///< in (0, 1]: 1 = no throttling
};

/**
 * Transient stage failures: each matching stage execution attempt fails
 * with @p probability, decided by a seeded hash of (task, stage,
 * attempt). A failed attempt burns its execution time but commits no
 * kernel side effects, so a retry is always safe.
 */
struct TransientFaultRule
{
    int stage = -1; ///< -1 = any stage
    int pu = -1;    ///< -1 = any PU
    double probability = 0.0;
};

/**
 * Straggler executions: a matching stage execution occasionally takes
 * @p factor times longer (contention spike, page fault storm, co-runner
 * burst). Stragglers interact with the timeout policy: a large enough
 * factor trips the per-stage timeout and the attempt is retried.
 */
struct StragglerRule
{
    int stage = -1; ///< -1 = any stage
    double probability = 0.0;
    double factor = 8.0; ///< duration multiplier when triggered
};

/** Hard dropout of one PU class at an absolute run timestamp. */
struct PuDropout
{
    int pu = 0;
    double atSeconds = 0.0;
};

/** Everything to inject into one run. Empty = no fault machinery. */
struct FaultPlan
{
    std::vector<SlowdownWindow> slowdowns;
    std::vector<TransientFaultRule> transients;
    std::vector<StragglerRule> stragglers;
    std::vector<PuDropout> dropouts;

    /** Extra seed folded into every fault decision (on top of the
     *  device seed and the run's noiseSalt). */
    std::uint64_t faultSeed = 0;

    bool
    empty() const
    {
        return slowdowns.empty() && transients.empty()
            && stragglers.empty() && dropouts.empty();
    }

    /**
     * Every range rule of a plan, in one place: each field outside its
     * documented domain (docs/RUNTIME.md) is one Range problem, and each
     * pair of same-PU slowdown windows that overlap in time is one
     * Overlap problem. Messages name the row, e.g.
     * "slowdowns[1].clockFactor must be in (0, 1], got 1.5". A count
     * <= 0 means "unknown" and skips that upper bound. Lint, the parser
     * and both time backends all read this; a valid plan yields an
     * empty list and allocates nothing.
     */
    std::vector<PlanParseError> problems(int num_pus,
                                         int num_stages) const;

    /**
     * Parse a plan from JSON, e.g.
     * {"slowdowns":[{"pu":1,"start":0.1,"end":0.5,"clockFactor":0.4}],
     *  "transients":[{"stage":2,"probability":0.05}],
     *  "stragglers":[{"probability":0.01,"factor":10}],
     *  "dropouts":[{"pu":3,"at":0.2}], "faultSeed":7}
     *
     * Parsing is strict: anything json::parse refuses (duplicate
     * members included), unknown sections or fields, missing required
     * fields (slowdowns need pu/start/end, transients and stragglers
     * need probability, dropouts need pu/at), fractional ids, a
     * faultSeed that is not a whole number in [0, 2^64), and the first
     * of problems(0, 0) - a value outside its domain, or same-PU
     * overlapping slowdown windows - are all typed errors, never UB or
     * a silent default.
     *
     * @return the plan, or std::nullopt with @p err filled in.
     */
    static std::optional<FaultPlan> fromJson(std::istream& is,
                                             PlanParseError& err);

    /** As above, discarding the error detail. */
    static std::optional<FaultPlan> fromJson(std::istream& is);

    /** Serialize in the format fromJson accepts (json::Writer). */
    void toJson(std::ostream& os) const;
};

/** How the runtime responds to faults. */
struct RecoveryPolicy
{
    /**
     * Per-stage timeout budget as a multiple of the stage's profiled
     * isolated time on its PU. Attempts exceeding the budget are
     * aborted mid-flight and retried. Only the virtual backend
     * enforces it; the host backend never times an attempt out. A
     * factor <= 0 disables timeouts.
     */
    double timeoutFactor = 16.0;

    /** Retries per stage execution before failing over. */
    int maxRetries = 3;

    /** Backoff before retry r (1-based): base * multiplier^(r - 1). */
    static constexpr double kBackoffBaseSeconds = 1e-4;
    static constexpr double kBackoffMultiplier = 2.0;
};

/** What the recovery machinery actually did during one run. */
struct RecoveryStats
{
    int transientFaults = 0; ///< injected failures that manifested
    int timeouts = 0;        ///< attempts aborted over budget
    int stragglers = 0;      ///< straggler injections applied
    int retries = 0;         ///< re-attempts after fault or timeout
    int remaps = 0;          ///< chunk-to-PU failover remappings
    int dropouts = 0;        ///< PU classes lost mid-run
    int replans = 0;         ///< Optimizer degradations after dropout
    int unrecovered = 0;     ///< stage executions abandoned for good
    double backoffSeconds = 0.0; ///< total backoff delay served

    int
    faultsInjected() const
    {
        return transientFaults + timeouts + stragglers + dropouts;
    }

    bool
    cleanRun() const
    {
        return faultsInjected() == 0 && retries == 0 && remaps == 0
            && replans == 0 && unrecovered == 0;
    }

    void add(const RecoveryStats& other);
};

/**
 * Deterministic oracle over one FaultPlan: every query is a pure
 * function of the plan, the mixed seed, and the coordinates of the
 * execution attempt, so both time backends (and reruns) see the same
 * faults.
 */
class FaultInjector
{
  public:
    FaultInjector(const FaultPlan& plan, std::uint64_t mixed_seed);

    const FaultPlan& plan() const { return plan_; }
    bool enabled() const { return !plan_.empty(); }

    /** Does this attempt suffer an injected transient failure? */
    bool transientFailure(std::int64_t task, int stage, int pu,
                          int attempt) const;

    /** Duration multiplier for this attempt (1.0 = no straggler). */
    double stragglerFactor(std::int64_t task, int stage,
                           int attempt) const;

    /** Combined clock factor of @p pu at time @p now (product of all
     *  open slowdown windows; 1.0 = nominal). */
    double slowdownFactor(int pu, double now) const;

    /** Earliest slowdown-window boundary strictly after @p now, or
     *  +infinity — where the DES must re-evaluate rates. */
    double nextSlowdownBoundary(double now) const;

    const std::vector<PuDropout>& dropouts() const
    {
        return plan_.dropouts;
    }

  private:
    FaultPlan plan_;
    std::uint64_t seed_;
};

} // namespace bt::runtime

#endif // BT_RUNTIME_FAULT_PLAN_HPP
