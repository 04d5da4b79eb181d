/**
 * @file
 * Exact DPLL-style search over a Model: unit propagation for clauses,
 * dedicated propagators for exactly-one / at-most-one groups and
 * pseudo-boolean sums, and complete enumeration with callback objectives.
 *
 * The search keeps a single assignment with an undo trail instead of
 * copying state per branch, and propagation is incremental: each
 * variable carries an occurrence list, and counters per constraint
 * (satisfied / unset literals, accumulated pseudo-boolean lower bound)
 * are updated as assignments are processed off the trail. All the
 * propagation rules are monotone - they only ever add forced
 * assignments - so their fixpoint closure is unique and this reaches
 * exactly the same conclusions (conflict, forced values, branch
 * variable) as a naive whole-model re-scan, node for node.
 *
 * This is a test oracle, not part of the library: the planner
 * enumerates the schedule space in closed form, and the tests check
 * that enumeration against the solutions this search finds for the
 * paper's C1/C2 encoding (the formulation the paper hands to Z3,
 * Sec. 3.3).
 */

#ifndef BT_SOLVER_SOLVER_HPP
#define BT_SOLVER_SOLVER_HPP

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "solver/model.hpp"

namespace bt::solver {

/** A complete assignment of every model variable. */
class Assignment
{
  public:
    explicit Assignment(std::vector<bool> vals) : values(std::move(vals)) {}

    /** Truth value of @p v. */
    bool value(Var v) const { return values[static_cast<std::size_t>(v)]; }

    /** Truth value of @p l. */
    bool
    value(const Lit& l) const
    {
        return l.positive ? value(l.var) : !value(l.var);
    }

    std::size_t size() const { return values.size(); }

  private:
    std::vector<bool> values;
};

/**
 * Exact solver over a Model snapshot. The model is held by reference;
 * callers may add constraints (e.g. blocking clauses) between calls, and
 * the next solve sees them. (Constraints added *during* a running solve -
 * from inside a visitor - are picked up at the next top-level call, not
 * mid-search.)
 */
class Solver
{
  public:
    /** Score a complete assignment; lower is better. */
    using Objective = std::function<double(const Assignment&)>;

    /** Visit a solution; return false to stop the search. */
    using Visitor = std::function<bool(const Assignment&)>;

    explicit Solver(const Model& model_) : model(model_) {}

    /** Find any satisfying assignment, or nullopt if unsatisfiable. */
    std::optional<Assignment> solve();

    /**
     * Find the satisfying assignment minimizing @p objective (exact, by
     * complete enumeration of the propagation-pruned space).
     */
    std::optional<Assignment> minimize(const Objective& objective);

    /** Enumerate all solutions through @p visit (stops when it refuses). */
    void forEachSolution(const Visitor& visit);

    /** Count all satisfying assignments. */
    std::uint64_t countSolutions();

    /** Search-tree nodes expanded by the most recent call. */
    std::uint64_t nodesExplored() const { return nodes; }

  private:
    enum class Tri : std::int8_t { False = 0, True = 1, Unset = -1 };

    /// Constraint kinds a variable occurrence can point into.
    enum class Kind : std::uint8_t { Clause, Group, Linear };

    /// One occurrence of a variable inside a constraint row.
    struct Occ
    {
        std::int64_t coeff;  ///< pseudo-boolean coefficient (Linear only)
        std::int32_t idx;    ///< row in the per-kind flattened arrays
        Kind kind;
        bool positive;       ///< literal polarity (Clause / Linear)
    };

    /// Flatten the model into offset-indexed arrays plus per-variable
    /// occurrence lists. Runs once per top-level call, so blocking
    /// clauses appended between calls are included.
    void compile();
    /// Reset assignment, trail, and constraint counters to all-unset.
    void resetState();
    /// Apply the rules that fire on an empty assignment (unit clauses,
    /// singleton exactly-one groups, oversized pseudo-boolean terms).
    void levelZeroScan();
    /// Record var = val on the trail (or flag a conflict if it is
    /// already assigned the other way). Consequences are deferred until
    /// the entry is processed off the trail.
    void enqueue(Var v, bool val);
    /// Update the counters of every constraint containing @p v and fire
    /// any newly forced assignments or conflicts.
    void applyAssignment(Var v);
    /// Mirror of applyAssignment, counters only (used when undoing).
    void reverseAssignment(Var v);
    /// Drain the trail to fixpoint; false on conflict.
    bool propagate();
    /// Unwind the trail (and counters) back to @p mark.
    void undoTo(std::size_t mark);
    bool search(const Visitor& visit);
    /// compile + reset + level-zero rules, shared by all entry points.
    void beginSearch();

    const Model& model;
    std::uint64_t nodes = 0;

    // Compiled model: per-kind rows flattened into (offsets, payload)
    // pairs for locality, plus per-variable occurrence lists.
    std::vector<Lit> clauseLits;
    std::vector<std::int32_t> clauseOff;
    std::vector<Var> groupVars;
    std::vector<std::int32_t> groupOff;
    std::vector<std::uint8_t> groupExactly;
    std::vector<PbTerm> linTerms;
    std::vector<std::int32_t> linOff;
    std::vector<std::int64_t> linBound;
    std::vector<Occ> occs;
    std::vector<std::int32_t> occOff;

    // Search state. Counters lag pending (enqueued but unprocessed)
    // assignments, so "unset" counts mean "not yet processed"; rules
    // that scan for the remaining unset literal check live values and
    // skip pending vars, whose own processing re-fires the rule.
    std::vector<Tri> value;
    std::vector<Var> trail;
    std::size_t qhead = 0;
    bool conflict = false;
    std::vector<std::int32_t> clauseTrue;
    std::vector<std::int32_t> clauseUnset;
    std::vector<std::int32_t> groupTrue;
    std::vector<std::int32_t> groupUnset;
    std::vector<std::int64_t> linLower;
};

} // namespace bt::solver

#endif // BT_SOLVER_SOLVER_HPP
