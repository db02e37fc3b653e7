/**
 * @file
 * Exact solver for linear programs over difference constraints:
 *
 *   minimize   sum_i w_i * t_i
 *   subject to t_j - t_i >= c_e          (constraint edges)
 *              lo_i <= t_i <= hi_i
 *
 * This is the class the Fig. 7 ILP reduces to once the lifetime
 * variables are substituted (l_ij = t_j - t_i at any optimum, because
 * latencies are non-negative). The constraint matrix is totally
 * unimodular, so the LP optimum is integral: the solver returns the
 * same optima CBC would for the ILP (see DESIGN.md).
 *
 * Implementation: LP duality turns the problem into an uncapacitated
 * min-cost flow with node supplies -- a node per variable plus `ref`
 * (t_ref = 0); an arc i -> j of cost -c per constraint, ref -> i of
 * cost -lo_i per lower bound and i -> ref of cost hi_i per finite upper
 * bound; node i must take in w_i more than it sends out -- solved by
 * the primal network simplex:
 *
 *  1. An artificial root joins every node by one arc, carrying its
 *     supply to the root for free or its demand from the root at a
 *     Big-M cost; these arcs form the first spanning tree.
 *  2. Block-search pricing picks an arc of negative reduced cost; the
 *     flow pushed around the cycle it closes in the tree saturates a
 *     leaving arc chosen by Cunningham's rule, which keeps the tree
 *     strongly feasible and so guarantees termination under
 *     degenerate pivots.
 *  3. An entering arc whose cycle no arc blocks is a negative cycle of
 *     the constraints: the LP is infeasible. Artificial flow left at
 *     the optimum means no feasible flow exists: the LP is unbounded.
 *
 * The optimal primal values are recovered as shortest distances over
 * the final residual network from a virtual root. Every optimal flow
 * leaves the same set of feasible residual potentials (complementary
 * slackness), so the values do not depend on which optimal basis, or
 * which order of constraints, the pivots happened to reach.
 */

#ifndef LONGNAIL_SCHED_LPSOLVER_HH
#define LONGNAIL_SCHED_LPSOLVER_HH

#include <cstdint>
#include <limits>
#include <vector>

namespace longnail {
namespace sched {

/** A difference-constraint LP instance. */
struct DifferenceLP
{
    static constexpr int unbounded = std::numeric_limits<int>::max();

    /** t[j] - t[i] >= c */
    struct Constraint
    {
        unsigned i = 0;
        unsigned j = 0;
        int c = 0;
    };

    explicit DifferenceLP(unsigned num_vars = 0)
        : weights(num_vars, 0), lower(num_vars, 0),
          upper(num_vars, unbounded)
    {}

    unsigned numVars() const { return weights.size(); }
    void
    addConstraint(unsigned i, unsigned j, int c)
    {
        constraints.push_back({i, j, c});
    }

    std::vector<int64_t> weights;
    std::vector<int> lower;
    std::vector<int> upper;
    std::vector<Constraint> constraints;
};

/** Solver outcome. */
struct LPResult
{
    enum class Status { Optimal, Infeasible, Unbounded, BudgetExhausted };

    Status status = Status::Infeasible;
    std::vector<int> values;
    int64_t objective = 0;
    /**
     * Deterministic work units spent by the network simplex: one per
     * arc priced, one per tree arc walked to find a pivot cycle's apex
     * and one per node a pivot re-hangs (its potential and depth
     * updated). The primal recovery is not counted.
     */
    uint64_t workUnits = 0;
};

/**
 * Solve @p lp exactly. @p work_limit bounds the solver's deterministic
 * work counter (0 = unlimited), checked after every pricing round, the
 * last one included, and so before a solve is declared optimal: a
 * limit below the full solve's work units always gives
 * BudgetExhausted and no values, letting callers fall back to a
 * heuristic scheduler instead of waiting on a pathological instance.
 * Infeasibility shows only in a pivot, after its pricing round: under
 * a limit that round exceeds, an infeasible LP reports
 * BudgetExhausted, not Infeasible.
 */
LPResult solveDifferenceLP(const DifferenceLP &lp,
                           uint64_t work_limit = 0);

} // namespace sched
} // namespace longnail

#endif // LONGNAIL_SCHED_LPSOLVER_HH
