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
 * min-cost flow with node supplies, solved by the primal-dual method:
 *
 *  1. The feasibility check (or an accepted warm start) yields a
 *     feasible point t; the node potentials pi = -t make every reduced
 *     cost non-negative from the start.
 *  2. Each phase runs one Dijkstra over the reduced costs (a bucket
 *     queue: they span a few stages) and raises the potentials by the
 *     distances, capped at the sink's, so every shortest source-sink
 *     path consists of zero-reduced-cost arcs.
 *  3. Depth-first search pushes flow along those admissible arcs until
 *     none leads to the sink; then the next phase starts. There is one
 *     phase per distinct shortest-path cost, not one per augmentation.
 *
 * The optimal primal values are recovered as shortest distances over
 * the final residual network from a virtual root. Every optimal flow
 * leaves the same set of feasible residual potentials (complementary
 * slackness), so the values do not depend on which optimal flow, or
 * which order of constraints, the search happened to take.
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
     * Deterministic work units spent: one per Bellman-Ford feasibility
     * round (or one for validating a warm start), one per node settled
     * by a phase's Dijkstra, and one per arc scanned while augmenting.
     */
    uint64_t workUnits = 0;
    /**
     * A (generally non-optimal) point satisfying every constraint and
     * bound, available whenever feasibility was established -- even on
     * BudgetExhausted. Callers re-solving a related instance (e.g. the
     * scheduler fallback chain) pass it back as @p warm_start.
     */
    std::vector<int> feasiblePoint;
    /** True when @p warm_start was accepted as a feasibility witness. */
    bool warmStarted = false;
};

/**
 * Solve @p lp exactly. @p work_limit bounds the solver's deterministic
 * work counter (0 = unlimited), checked after the feasibility check
 * and after every phase; when the limit is exceeded the result status
 * is BudgetExhausted and no values are produced, letting callers fall
 * back to a heuristic scheduler instead of waiting on a pathological
 * instance.
 *
 * @p warm_start, when non-null and feasible for @p lp, serves as a
 * feasibility witness: the up-to-(n+2)-iteration Bellman-Ford
 * negative-cycle check is replaced by a single validation pass (one
 * work unit), cutting the work spent on re-solves of closely related
 * instances. An infeasible or wrongly-sized hint is ignored (the full
 * check runs as usual); correctness never depends on the hint.
 */
LPResult solveDifferenceLP(const DifferenceLP &lp,
                           uint64_t work_limit = 0,
                           const std::vector<int> *warm_start = nullptr);

} // namespace sched
} // namespace longnail

#endif // LONGNAIL_SCHED_LPSOLVER_HH
