/**
 * @file
 * Declarative 0/1 constraint model, the input language of the solver.
 *
 * It stands in for Z3's Python API, which the paper uses (Sec. 3.3): the
 * schedule formulation needs boolean decision variables x_{i,c}, clauses,
 * exactly-one groups (C1), implications (C2), pseudo-boolean sums
 * (C3a/C3b, C5), and min/max objectives (O1). All of that is expressible
 * here, and the solver is exact, so it returns the same optima Z3 would.
 * Only the tests build it (tests/oracle/).
 */

#ifndef BT_SOLVER_MODEL_HPP
#define BT_SOLVER_MODEL_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace bt::solver {

/** Index of a boolean decision variable. */
using Var = int;

/** A possibly negated variable occurrence. */
struct Lit
{
    Var var = -1;
    bool positive = true;
};

/** Positive literal of @p v. */
inline Lit pos(Var v) { return Lit{v, true}; }
/** Negative literal of @p v. */
inline Lit neg(Var v) { return Lit{v, false}; }

/** One weighted term of a pseudo-boolean sum over a literal. */
struct PbTerm
{
    Lit lit;
    std::int64_t coeff = 0; ///< must be nonnegative
};

/**
 * A conjunction of constraint kinds over boolean variables. Constraints
 * can be appended at any time; solvers read the model on each solve call,
 * so a caller can add blocking clauses between iterations.
 */
class Model
{
  public:
    /** Create a fresh variable. @p name is for diagnostics only. */
    Var newVar(std::string name = "");

    int numVars() const { return static_cast<int>(names.size()); }

    /** Diagnostic name of @p v. */
    const std::string& varName(Var v) const;

    /** At least one of @p lits must hold. Empty clause = unsatisfiable. */
    void addClause(std::vector<Lit> lits);

    /** Exactly one of @p vars must be true. */
    void addExactlyOne(std::vector<Var> vars);

    /** At most one of @p vars may be true. */
    void addAtMostOne(std::vector<Var> vars);

    /** (AND of @p antecedents) implies @p consequent. */
    void addImplication(std::vector<Lit> antecedents, Lit consequent);

    /** Sum of coeff*lit over @p terms <= @p bound (coeffs >= 0). */
    void addLinearLe(std::vector<PbTerm> terms, std::int64_t bound);

    /**
     * Sum of coeff*lit over @p terms >= @p bound. Stored as the
     * equivalent LinearLe over complemented literals.
     */
    void addLinearGe(std::vector<PbTerm> terms, std::int64_t bound);

    /** Force @p lit to hold. */
    void addUnit(Lit lit);

    // Read access for the solver.
    struct LinearLe
    {
        std::vector<PbTerm> terms;
        std::int64_t bound;
    };

    const std::vector<std::vector<Lit>>& clauses() const { return cls; }
    const std::vector<std::vector<Var>>& exactlyOnes() const
    {
        return exact1;
    }
    const std::vector<std::vector<Var>>& atMostOnes() const
    {
        return atmost1;
    }
    const std::vector<LinearLe>& linearLes() const { return linles; }

  private:
    void checkVar(Var v) const;
    void checkLit(const Lit& l) const { checkVar(l.var); }

    std::vector<std::string> names;
    std::vector<std::vector<Lit>> cls;
    std::vector<std::vector<Var>> exact1;
    std::vector<std::vector<Var>> atmost1;
    std::vector<LinearLe> linles;
};

} // namespace bt::solver

#endif // BT_SOLVER_MODEL_HPP
