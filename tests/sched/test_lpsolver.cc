/**
 * @file
 * Tests for the difference-constraint LP solver, including a
 * brute-force cross-check on randomized small instances (the solver
 * must return the exact ILP optimum, standing in for CBC).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <random>

#include "sched/lpsolver.hh"

using namespace longnail::sched;

namespace {

/** Exhaustive reference solution over a bounded horizon. */
LPResult
bruteForce(const DifferenceLP &lp, int horizon)
{
    LPResult best;
    best.status = LPResult::Status::Infeasible;
    unsigned n = lp.numVars();
    std::vector<int> t(n, 0);
    std::function<void(unsigned)> recurse = [&](unsigned i) {
        if (i == n) {
            for (const auto &c : lp.constraints)
                if (t[c.j] - t[c.i] < c.c)
                    return;
            int64_t obj = 0;
            for (unsigned v = 0; v < n; ++v)
                obj += lp.weights[v] * t[v];
            if (best.status == LPResult::Status::Infeasible ||
                obj < best.objective) {
                best.status = LPResult::Status::Optimal;
                best.objective = obj;
                best.values = t;
            }
            return;
        }
        int hi = lp.upper[i] == DifferenceLP::unbounded ? horizon
                                                        : lp.upper[i];
        for (t[i] = lp.lower[i]; t[i] <= hi; ++t[i])
            recurse(i + 1);
    };
    recurse(0);
    return best;
}

/**
 * Reference solver: the plain successive-shortest-paths formulation
 * of the same min-cost-flow dual -- one SPFA per augmentation -- with
 * the primal recovered by Bellman-Ford from a virtual root. Slow but
 * simple; its values are the ones the production solver must match.
 */
LPResult
successiveShortestPaths(const DifferenceLP &lp)
{
    constexpr int64_t inf = int64_t(1) << 50;
    struct Edge
    {
        unsigned to;
        int64_t residual;
        int64_t cost;
    };
    unsigned n = lp.numVars();
    unsigned ref = n, source = n + 1, sink = n + 2;
    std::vector<Edge> edges;
    std::vector<std::vector<unsigned>> adj(n + 3);
    auto add_edge = [&](unsigned from, unsigned to, int64_t cap,
                        int64_t cost) {
        adj[from].push_back(edges.size());
        edges.push_back({to, cap, cost});
        adj[to].push_back(edges.size());
        edges.push_back({from, 0, -cost});
    };
    for (const auto &c : lp.constraints)
        add_edge(c.i, c.j, inf, -int64_t(c.c));
    for (unsigned i = 0; i < n; ++i) {
        add_edge(ref, i, inf, -int64_t(lp.lower[i]));
        if (lp.upper[i] != DifferenceLP::unbounded)
            add_edge(i, ref, inf, int64_t(lp.upper[i]));
    }
    size_t num_structural = edges.size();
    int64_t supply = 0, ref_weight = 0;
    auto add_balance = [&](unsigned node, int64_t w) {
        if (w > 0)
            add_edge(node, sink, w, 0);
        if (w < 0) {
            add_edge(source, node, -w, 0);
            supply -= w;
        }
    };
    for (unsigned i = 0; i < n; ++i) {
        add_balance(i, lp.weights[i]);
        ref_weight -= lp.weights[i];
    }
    add_balance(ref, ref_weight);

    // Primal potentials from a virtual root: Bellman-Ford over the
    // residual structural edges. Fails on a negative cycle.
    auto root_potentials = [&](std::vector<int64_t> &dist) {
        dist.assign(n + 1, 0);
        for (unsigned round = 0; round <= n + 1; ++round) {
            bool changed = false;
            for (size_t e = 0; e < num_structural; ++e) {
                unsigned u = edges[e ^ 1].to, v = edges[e].to;
                if (edges[e].residual > 0 &&
                    dist[u] + edges[e].cost < dist[v]) {
                    dist[v] = dist[u] + edges[e].cost;
                    changed = true;
                }
            }
            if (!changed)
                return true;
        }
        return false;
    };

    LPResult result;
    std::vector<int64_t> root_dist;
    if (!root_potentials(root_dist))
        return result; // Infeasible
    while (supply > 0) {
        std::vector<int64_t> dist(n + 3, inf);
        std::vector<unsigned> prev(n + 3, ~0u);
        std::vector<bool> queued(n + 3, false);
        std::deque<unsigned> queue{source};
        dist[source] = 0;
        while (!queue.empty()) {
            unsigned u = queue.front();
            queue.pop_front();
            queued[u] = false;
            for (unsigned e : adj[u]) {
                unsigned v = edges[e].to;
                if (edges[e].residual <= 0 ||
                    dist[u] + edges[e].cost >= dist[v])
                    continue;
                dist[v] = dist[u] + edges[e].cost;
                prev[v] = e;
                if (!queued[v]) {
                    queue.push_back(v);
                    queued[v] = true;
                }
            }
        }
        if (dist[sink] == inf) {
            result.status = LPResult::Status::Unbounded;
            return result;
        }
        int64_t bottleneck = supply;
        for (unsigned v = sink; v != source; v = edges[prev[v] ^ 1].to)
            bottleneck = std::min(bottleneck, edges[prev[v]].residual);
        for (unsigned v = sink; v != source; v = edges[prev[v] ^ 1].to) {
            edges[prev[v]].residual -= bottleneck;
            edges[prev[v] ^ 1].residual += bottleneck;
        }
        supply -= bottleneck;
    }
    root_potentials(root_dist);
    result.status = LPResult::Status::Optimal;
    result.values.resize(n);
    for (unsigned i = 0; i < n; ++i) {
        result.values[i] = int(root_dist[ref] - root_dist[i]);
        result.objective += lp.weights[i] * result.values[i];
    }
    return result;
}

/**
 * A scheduler-shaped instance: a layered DAG of @p n operations with
 * latency edges, a few chain breakers (latency + 1), interface windows
 * on some operations (some open-ended, as for the late-variant
 * interfaces), and the Fig. 7 weights after lifetime substitution
 * scaled as scheduleOptimal() does: (1 + indeg - outdeg) * 1024 - 1.
 */
DifferenceLP
schedulerShapedLP(unsigned n, std::mt19937 &rng)
{
    DifferenceLP lp(n);
    unsigned layers = 3 + rng() % 12;
    std::vector<unsigned> layer(n);
    for (unsigned i = 0; i < n; ++i)
        layer[i] = i * layers / n;
    std::vector<int64_t> w(n, 1);
    for (unsigned j = 1; j < n; ++j) {
        unsigned preds = layer[j] == 0 ? 0 : 1 + rng() % 3;
        for (unsigned k = 0; k < preds; ++k) {
            // A predecessor from an earlier layer.
            unsigned i = rng() % j;
            if (layer[i] == layer[j])
                continue;
            bool breaker = rng() % 8 == 0;
            lp.addConstraint(i, j, int(rng() % 3) + (breaker ? 1 : 0));
            ++w[j];
            --w[i];
        }
    }
    // Interface windows around the ASAP start time (constraints point
    // forward in index order), so every instance stays feasible.
    std::vector<int> asap(n, 0);
    for (const auto &c : lp.constraints)
        asap[c.j] = std::max(asap[c.j], asap[c.i] + c.c);
    for (unsigned i = 0; i < n; ++i) {
        if (rng() % 6 != 0)
            continue;
        lp.lower[i] = std::max(0, asap[i] - int(rng() % 3));
        lp.upper[i] = rng() % 3 == 0 ? DifferenceLP::unbounded
                                      : asap[i] + int(rng() % 4);
    }
    for (unsigned i = 0; i < n; ++i)
        lp.weights[i] = w[i] * 1024 - 1;
    return lp;
}

/**
 * Solve @p lp and check the work limit's boundary on it: a limit of
 * exactly the full solve's work units gives the same optimum, one unit
 * less gives BudgetExhausted and no values.
 */
LPResult
solveCheckingBudget(const DifferenceLP &lp)
{
    LPResult full = solveDifferenceLP(lp);
    if (full.status != LPResult::Status::Optimal)
        return full;
    EXPECT_GT(full.workUnits, 1u); // a limit of 0 would mean none
    LPResult at_limit = solveDifferenceLP(lp, full.workUnits);
    EXPECT_EQ(at_limit.status, LPResult::Status::Optimal);
    EXPECT_EQ(at_limit.values, full.values);
    EXPECT_EQ(at_limit.workUnits, full.workUnits);
    LPResult below = solveDifferenceLP(lp, full.workUnits - 1);
    EXPECT_EQ(below.status, LPResult::Status::BudgetExhausted);
    EXPECT_TRUE(below.values.empty());
    return full;
}

} // namespace

TEST(LpSolver, SingleVariableBounds)
{
    DifferenceLP lp(1);
    lp.weights[0] = 1;
    lp.lower[0] = 3;
    lp.upper[0] = 7;
    LPResult r = solveDifferenceLP(lp);
    ASSERT_EQ(r.status, LPResult::Status::Optimal);
    EXPECT_EQ(r.values[0], 3);

    lp.weights[0] = -1; // prefer late
    r = solveDifferenceLP(lp);
    ASSERT_EQ(r.status, LPResult::Status::Optimal);
    EXPECT_EQ(r.values[0], 7);
}

TEST(LpSolver, SimpleChain)
{
    // t1 >= t0 + 2, t2 >= t1 + 3, minimize t0+t1+t2.
    DifferenceLP lp(3);
    lp.weights = {1, 1, 1};
    lp.addConstraint(0, 1, 2);
    lp.addConstraint(1, 2, 3);
    LPResult r = solveDifferenceLP(lp);
    ASSERT_EQ(r.status, LPResult::Status::Optimal);
    EXPECT_EQ(r.values[0], 0);
    EXPECT_EQ(r.values[1], 2);
    EXPECT_EQ(r.values[2], 5);
    EXPECT_EQ(r.objective, 7);
}

TEST(LpSolver, NegativeWeightPullsLate)
{
    // A fan-out node with more consumers than weight prefers to start
    // late (shorter lifetimes), bounded by its consumers.
    DifferenceLP lp(3);
    lp.weights = {-1, 1, 1};   // node 0 has out-degree 2 in Fig. 7 terms
    lp.lower = {0, 4, 6};
    lp.addConstraint(0, 1, 1); // t1 >= t0 + 1
    lp.addConstraint(0, 2, 1);
    LPResult r = solveDifferenceLP(lp);
    ASSERT_EQ(r.status, LPResult::Status::Optimal);
    // t1=4, t2=6 at their bounds; t0 rises to min(t1,t2)-1 = 3.
    EXPECT_EQ(r.values[0], 3);
    EXPECT_EQ(r.values[1], 4);
    EXPECT_EQ(r.values[2], 6);
}

TEST(LpSolver, InfeasibleWindowDetected)
{
    // t1 >= t0 + 5 with t0 >= 3 and t1 <= 6 is contradictory.
    DifferenceLP lp(2);
    lp.weights = {1, 1};
    lp.lower = {3, 0};
    lp.upper = {DifferenceLP::unbounded, 6};
    lp.addConstraint(0, 1, 5);
    EXPECT_EQ(solveDifferenceLP(lp).status,
              LPResult::Status::Infeasible);
}

TEST(LpSolver, InfeasibleEvenWhereTheObjectiveIsUnbounded)
{
    // t1 - t0 >= 3 contradicts t1 - t0 <= 2; were it not for that, the
    // weight on the open-ended t2 would make the LP unbounded.
    DifferenceLP lp(3);
    lp.weights = {0, 0, -1};
    lp.addConstraint(0, 1, 3);
    lp.addConstraint(1, 0, -2);
    lp.addConstraint(0, 2, 0);
    EXPECT_EQ(solveDifferenceLP(lp).status,
              LPResult::Status::Infeasible);
}

TEST(LpSolver, InfeasibleUnderAWorkLimit)
{
    // Infeasibility shows only in a pivot, after its pricing round: a
    // limit that round exceeds reports BudgetExhausted, a limit of the
    // full solve's work reports Infeasible.
    DifferenceLP lp(2);
    lp.weights = {1, 1};
    lp.lower = {3, 0};
    lp.upper = {DifferenceLP::unbounded, 6};
    lp.addConstraint(0, 1, 5);
    LPResult full = solveDifferenceLP(lp);
    ASSERT_EQ(full.status, LPResult::Status::Infeasible);
    ASSERT_GT(full.workUnits, 1u);
    EXPECT_EQ(solveDifferenceLP(lp, full.workUnits).status,
              LPResult::Status::Infeasible);
    LPResult limited = solveDifferenceLP(lp, 1);
    EXPECT_EQ(limited.status, LPResult::Status::BudgetExhausted);
    EXPECT_TRUE(limited.values.empty());
}

TEST(LpSolver, EqualityViaTwoInequalities)
{
    // t1 - t0 >= 4 and t0 - t1 >= -4 pin the distance to exactly 4.
    DifferenceLP lp(2);
    lp.weights = {1, 1};
    lp.addConstraint(0, 1, 4);
    lp.addConstraint(1, 0, -4);
    LPResult r = solveDifferenceLP(lp);
    ASSERT_EQ(r.status, LPResult::Status::Optimal);
    EXPECT_EQ(r.values[1] - r.values[0], 4);
}

class LpRandomProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(LpRandomProperty, MatchesBruteForce)
{
    std::mt19937 rng(100 + GetParam());
    for (int instance = 0; instance < 60; ++instance) {
        unsigned n = 2 + rng() % 4; // 2..5 variables
        DifferenceLP lp(n);
        for (unsigned i = 0; i < n; ++i) {
            lp.weights[i] = int(rng() % 7) - 3; // -3..3
            lp.lower[i] = rng() % 3;
            lp.upper[i] = lp.lower[i] + 1 + rng() % 5;
        }
        // Random forward constraints (DAG-like: i < j).
        unsigned edges = rng() % (n * 2);
        for (unsigned e = 0; e < edges; ++e) {
            unsigned i = rng() % (n - 1);
            unsigned j = i + 1 + rng() % (n - 1 - i);
            lp.addConstraint(i, j, int(rng() % 4));
        }
        LPResult got = solveDifferenceLP(lp);
        LPResult want = bruteForce(lp, 10);
        if (want.status == LPResult::Status::Infeasible) {
            EXPECT_EQ(got.status, LPResult::Status::Infeasible)
                << "instance " << instance;
            continue;
        }
        ASSERT_EQ(got.status, LPResult::Status::Optimal)
            << "instance " << instance;
        EXPECT_EQ(got.objective, want.objective)
            << "instance " << instance;
        // The solution must also be feasible.
        for (const auto &c : lp.constraints)
            EXPECT_GE(got.values[c.j] - got.values[c.i], c.c);
        for (unsigned i = 0; i < n; ++i) {
            EXPECT_GE(got.values[i], lp.lower[i]);
            EXPECT_LE(got.values[i], lp.upper[i]);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpRandomProperty,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u));

TEST_P(LpRandomProperty, SmallInstancesMatchReferenceValues)
{
    // The brute-force instances again, now comparing every value
    // against the reference solver, not just the objective.
    std::mt19937 rng(100 + GetParam());
    for (int instance = 0; instance < 60; ++instance) {
        unsigned n = 2 + rng() % 4;
        DifferenceLP lp(n);
        for (unsigned i = 0; i < n; ++i) {
            lp.weights[i] = int(rng() % 7) - 3;
            lp.lower[i] = rng() % 3;
            lp.upper[i] = lp.lower[i] + 1 + rng() % 5;
        }
        unsigned edges = rng() % (n * 2);
        for (unsigned e = 0; e < edges; ++e) {
            unsigned i = rng() % (n - 1);
            unsigned j = i + 1 + rng() % (n - 1 - i);
            lp.addConstraint(i, j, int(rng() % 4));
        }
        LPResult got = solveDifferenceLP(lp);
        LPResult want = successiveShortestPaths(lp);
        ASSERT_EQ(got.status, want.status) << "instance " << instance;
        EXPECT_EQ(got.values, want.values) << "instance " << instance;
        EXPECT_EQ(got.objective, want.objective) << "instance " << instance;
    }
}

class LpSchedulerShaped : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(LpSchedulerShaped, ValuesMatchReferenceSolver)
{
    std::mt19937 rng(7000 + GetParam());
    for (int instance = 0; instance < 8; ++instance) {
        unsigned n = 50 + rng() % 251; // 50..300 operations
        DifferenceLP lp = schedulerShapedLP(n, rng);
        LPResult got = solveCheckingBudget(lp);
        LPResult want = successiveShortestPaths(lp);
        ASSERT_EQ(want.status, LPResult::Status::Optimal);
        ASSERT_EQ(got.status, LPResult::Status::Optimal)
            << "instance " << instance << ", n = " << n;
        EXPECT_EQ(got.values, want.values)
            << "instance " << instance << ", n = " << n;
        EXPECT_EQ(got.objective, want.objective);
    }
}

TEST_P(LpSchedulerShaped, ValuesIndependentOfConstraintOrder)
{
    std::mt19937 rng(9000 + GetParam());
    for (int instance = 0; instance < 8; ++instance) {
        DifferenceLP lp = schedulerShapedLP(50 + rng() % 251, rng);
        LPResult first = solveCheckingBudget(lp);
        std::shuffle(lp.constraints.begin(), lp.constraints.end(), rng);
        LPResult shuffled = solveCheckingBudget(lp);
        ASSERT_EQ(first.status, LPResult::Status::Optimal);
        ASSERT_EQ(shuffled.status, LPResult::Status::Optimal);
        EXPECT_EQ(first.values, shuffled.values) << "instance " << instance;
    }
}

TEST_P(LpSchedulerShaped, ValuesScaleWithConstants)
{
    // Scaling every constant of a difference system scales its
    // canonical optimum; the scaled costs also scale the solver's
    // Big-M cost of the artificial arcs.
    constexpr int scale = 3000;
    std::mt19937 rng(11000 + GetParam());
    DifferenceLP lp = schedulerShapedLP(50 + rng() % 100, rng);
    LPResult base = solveCheckingBudget(lp);
    for (auto &c : lp.constraints)
        c.c *= scale;
    for (unsigned i = 0; i < lp.numVars(); ++i) {
        lp.lower[i] *= scale;
        if (lp.upper[i] != DifferenceLP::unbounded)
            lp.upper[i] *= scale;
    }
    LPResult scaled = solveCheckingBudget(lp);
    ASSERT_EQ(base.status, LPResult::Status::Optimal);
    ASSERT_EQ(scaled.status, LPResult::Status::Optimal);
    for (int &v : base.values)
        v *= scale;
    EXPECT_EQ(scaled.values, base.values);
    EXPECT_EQ(scaled.values, successiveShortestPaths(lp).values);
}

TEST_P(LpSchedulerShaped, AllOnesObjectiveGivesTheLeastFeasiblePoint)
{
    // A difference system's feasible region is closed under the
    // componentwise minimum, so minimizing the plain sum of start times
    // has one optimum: the least feasible point, the fixpoint that
    // list-scheduling ASAP computes. The scheduler's fallback chain
    // relies on this to use the list scheduler instead of an LP.
    std::mt19937 rng(13000 + GetParam());
    for (int instance = 0; instance < 8; ++instance) {
        DifferenceLP lp = schedulerShapedLP(50 + rng() % 251, rng);
        LPResult fig7 = solveCheckingBudget(lp);
        ASSERT_EQ(fig7.status, LPResult::Status::Optimal);

        unsigned n = lp.numVars();
        std::vector<int> least(lp.lower.begin(), lp.lower.end());
        for (bool changed = true; changed;) {
            changed = false;
            for (const auto &c : lp.constraints)
                if (least[c.j] < least[c.i] + c.c) {
                    least[c.j] = least[c.i] + c.c;
                    changed = true;
                }
        }

        lp.weights.assign(n, 1);
        LPResult asap = solveCheckingBudget(lp);
        ASSERT_EQ(asap.status, LPResult::Status::Optimal)
            << "instance " << instance;
        EXPECT_EQ(asap.values, least) << "instance " << instance;
        // Every feasible point lies above it, the Fig. 7 optimum too.
        for (unsigned i = 0; i < n; ++i)
            EXPECT_LE(least[i], fig7.values[i])
                << "instance " << instance << ", variable " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpSchedulerShaped,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u));

TEST(LpSolver, UnboundedWhenWeightPullsPastOpenWindow)
{
    // Maximizing an unbounded start time has no optimum.
    DifferenceLP lp(2);
    lp.weights = {0, -1};
    lp.addConstraint(0, 1, 1);
    EXPECT_EQ(solveDifferenceLP(lp).status, LPResult::Status::Unbounded);
}
