#include "sched/lpsolver.hh"

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>

namespace longnail {
namespace sched {

namespace {

constexpr unsigned none = ~0u;

/** Binary min-heap of (key, node) pairs. */
using MinHeap = std::priority_queue<std::pair<int64_t, unsigned>,
                                    std::vector<std::pair<int64_t, unsigned>>,
                                    std::greater<>>;

/**
 * Arcs priced per block: the most negative reduced cost of the first
 * block holding one enters the basis. Scheduling networks admit many
 * improving arcs at once, so small blocks pivot soonest: on one `-O0`
 * catalog batch, blocks of 1, 4 and 16 arcs spent 0.48, 0.49 and
 * 0.86 M work units and blocks of sqrt(arcs) 1.48 M (EXPERIMENTS.md).
 */
constexpr unsigned pricingBlock = 4;

/**
 * Primal network simplex over the uncapacitated dual network of a
 * DifferenceLP (see lpsolver.hh). Nodes 0..n-1 are the variables, n is
 * `ref` and n + 1 the artificial root. Every arc has a lower bound of
 * zero and no upper bound, so a non-tree arc carries no flow and
 * enters the basis when its reduced cost
 * `cost + pi[tail] - pi[head]` is negative; tree arcs have reduced
 * cost zero.
 *
 * The tree stays strongly feasible: every tree arc without flow points
 * toward the root. The initial tree of artificial arcs is strongly
 * feasible, and Cunningham's rule -- leave by the last blocking arc met
 * when walking the pivot cycle in its direction from the apex -- keeps
 * it so, which rules out cycling under degenerate pivots.
 */
class NetworkSimplex
{
  public:
    explicit NetworkSimplex(const DifferenceLP &lp);

    /**
     * Pivot until no arc prices out (Optimal), an entering arc's cycle
     * has no blocking arc (Infeasible: a negative constraint cycle), or
     * @p work exceeds @p work_limit (BudgetExhausted; 0 = no limit).
     */
    LPResult::Status run(uint64_t work_limit, uint64_t &work);

    /** True if an artificial arc still carries flow. */
    bool artificialFlowLeft() const;

    /**
     * Shortest distances from a virtual root, joined to every node by a
     * zero-cost edge, over the residual structural arcs of the optimal
     * flow (canonical over all optimal flows; see lpsolver.hh).
     */
    std::vector<int64_t> residualDistances() const;

  private:
    int64_t
    reducedCost(unsigned e) const
    {
        return cost_[e] + pi_[tail_[e]] - pi_[head_[e]];
    }

    unsigned findEntering(uint64_t &work);
    bool pivot(unsigned entering, uint64_t &work);
    void detach(unsigned v);
    void attach(unsigned v, unsigned parent);

    unsigned numNodes_ = 0;      ///< variables and ref; root = numNodes_
    unsigned numStructural_ = 0; ///< arcs below it; then artificial ones
    unsigned cursor_ = 0;        ///< where pricing resumes

    std::vector<unsigned> tail_, head_;
    std::vector<int64_t> cost_, flow_;

    // The spanning tree: each node's parent, the arc joining them and
    // whether that arc points from the node to its parent; depths find
    // a cycle's apex. Children are doubly linked sibling lists.
    std::vector<unsigned> parent_, pred_, depth_;
    std::vector<char> up_;
    std::vector<unsigned> firstChild_, nextSibling_, prevSibling_;
    std::vector<int64_t> pi_;
};

NetworkSimplex::NetworkSimplex(const DifferenceLP &lp)
{
    unsigned n = lp.numVars();
    unsigned ref = n;
    numNodes_ = n + 1;
    unsigned root = numNodes_;

    auto add_arc = [&](unsigned from, unsigned to, int64_t cost) {
        tail_.push_back(from);
        head_.push_back(to);
        cost_.push_back(cost);
    };
    // A primal constraint t_j - t_i >= c is a flow arc i -> j of cost
    // -c (the dual maximizes sum c*y).
    size_t reserve = lp.constraints.size() + 2 * size_t(n) + n + 1;
    tail_.reserve(reserve);
    head_.reserve(reserve);
    cost_.reserve(reserve);
    for (const auto &c : lp.constraints)
        add_arc(c.i, c.j, -int64_t(c.c));
    for (unsigned i = 0; i < n; ++i) {
        add_arc(ref, i, -int64_t(lp.lower[i]));
        if (lp.upper[i] != DifferenceLP::unbounded)
            add_arc(i, ref, int64_t(lp.upper[i]));
    }
    numStructural_ = tail_.size();
    flow_.assign(numStructural_, 0);

    // Big-M cost of routing demand through the root: above the cost of
    // any simple structural path, so artificial flow is left at the
    // optimum only when no feasible flow exists, and a cycle through
    // the root never prices out negative.
    int64_t max_cost = 0;
    for (int64_t c : cost_)
        max_cost = std::max(max_cost, c < 0 ? -c : c);
    int64_t artificial_cost = (max_cost + 1) * (int64_t(numNodes_) + 1);

    // Node supplies: inflow - outflow must equal the objective weight,
    // so a variable supplies -w and ref supplies the sum of weights.
    unsigned num_all = numNodes_ + 1;
    parent_.assign(num_all, none);
    pred_.assign(num_all, none);
    depth_.assign(num_all, 0);
    up_.assign(num_all, 0);
    firstChild_.assign(num_all, none);
    nextSibling_.assign(num_all, none);
    prevSibling_.assign(num_all, none);
    pi_.assign(num_all, 0);
    int64_t ref_supply = 0;
    for (unsigned v = 0; v < numNodes_; ++v) {
        int64_t supply = v == ref ? ref_supply : -lp.weights[v];
        if (v != ref)
            ref_supply += lp.weights[v];
        // Supplies drain into the root for free; demands are met from
        // it at the Big-M cost. Zero-flow arcs point to the root.
        unsigned arc = tail_.size();
        if (supply >= 0) {
            add_arc(v, root, 0);
            flow_.push_back(supply);
            up_[v] = 1;
        } else {
            add_arc(root, v, artificial_cost);
            flow_.push_back(-supply);
            pi_[v] = artificial_cost;
        }
        parent_[v] = root;
        pred_[v] = arc;
        depth_[v] = 1;
        attach(v, root);
    }
}

void
NetworkSimplex::detach(unsigned v)
{
    unsigned prev = prevSibling_[v], next = nextSibling_[v];
    if (prev != none)
        nextSibling_[prev] = next;
    else
        firstChild_[parent_[v]] = next;
    if (next != none)
        prevSibling_[next] = prev;
}

void
NetworkSimplex::attach(unsigned v, unsigned parent)
{
    unsigned next = firstChild_[parent];
    prevSibling_[v] = none;
    nextSibling_[v] = next;
    if (next != none)
        prevSibling_[next] = v;
    firstChild_[parent] = v;
}

/**
 * Block search from the cursor over the structural arcs (artificial
 * arcs never re-enter). One work unit per arc priced.
 * @return the entering arc, or none when every reduced cost is
 * non-negative.
 */
unsigned
NetworkSimplex::findEntering(uint64_t &work)
{
    unsigned m = numStructural_;
    unsigned entering = none;
    int64_t best = 0;
    unsigned e = cursor_;
    for (unsigned priced = 1; priced <= m; ++priced) {
        int64_t rc = reducedCost(e);
        if (rc < best) {
            best = rc;
            entering = e;
        }
        if (++e == m)
            e = 0;
        if (entering != none && (priced % pricingBlock == 0 || priced == m)) {
            work += priced;
            cursor_ = e;
            return entering;
        }
    }
    work += m;
    return none;
}

/**
 * Push flow around the cycle that @p entering closes in the tree and
 * exchange it for the leaving arc. One work unit per tree arc on the
 * cycle and one per node whose potential the exchange moves.
 * @return false if no arc on the cycle blocks: the cycle is negative
 * and unbounded.
 */
bool
NetworkSimplex::pivot(unsigned entering, uint64_t &work)
{
    // Flow runs first -> second along the entering arc, up the tree
    // from second to the apex and down from the apex to first.
    unsigned first = tail_[entering], second = head_[entering];
    unsigned u = first, v = second;
    while (u != v) {
        if (depth_[u] >= depth_[v]) {
            u = parent_[u];
            ++work;
        }
        if (depth_[v] > depth_[u]) {
            v = parent_[v];
            ++work;
        }
    }
    unsigned apex = u;

    // Cunningham's rule: of the arcs that bound the push, leave by the
    // last one the cycle meets from the apex. On first's side the walk
    // below runs against the cycle (keep the first minimum), on
    // second's side with it (keep the last), and second's side comes
    // later.
    int64_t delta = 0;
    unsigned leaving = none;
    bool first_side = false;
    for (unsigned x = first; x != apex; x = parent_[x]) {
        // Flow runs parent -> x: an arc pointing up loses flow.
        if (up_[x] && (leaving == none || flow_[pred_[x]] < delta)) {
            delta = flow_[pred_[x]];
            leaving = x;
            first_side = true;
        }
    }
    for (unsigned x = second; x != apex; x = parent_[x]) {
        // Flow runs x -> parent: an arc pointing down loses flow.
        if (!up_[x] && (leaving == none || flow_[pred_[x]] <= delta)) {
            delta = flow_[pred_[x]];
            leaving = x;
            first_side = false;
        }
    }
    if (leaving == none)
        return false;

    if (delta > 0) {
        flow_[entering] += delta;
        for (unsigned x = first; x != apex; x = parent_[x])
            flow_[pred_[x]] += up_[x] ? -delta : delta;
        for (unsigned x = second; x != apex; x = parent_[x])
            flow_[pred_[x]] += up_[x] ? delta : -delta;
    }

    // The subtree below the leaving arc hangs from the entering arc
    // now: reverse the tree path from the entering arc's end inside it
    // (u_in) up to the leaving arc's lower end.
    unsigned u_in = first_side ? first : second;
    unsigned v_in = first_side ? second : first;
    int64_t shift = u_in == second ? reducedCost(entering)
                                   : -reducedCost(entering);
    unsigned new_parent = v_in, arc = entering;
    bool arc_up = tail_[entering] == u_in;
    for (unsigned x = u_in;;) {
        unsigned old_parent = parent_[x], old_arc = pred_[x];
        bool old_up = up_[x];
        detach(x);
        parent_[x] = new_parent;
        pred_[x] = arc;
        up_[x] = arc_up;
        attach(x, new_parent);
        if (x == leaving)
            break;
        new_parent = x;
        arc = old_arc;
        arc_up = !old_up;
        x = old_parent;
    }

    // Preorder over the moved subtree: the entering arc's reduced cost
    // becomes zero, and depths follow the new parents.
    for (unsigned x = u_in; x != none;) {
        pi_[x] += shift;
        depth_[x] = depth_[parent_[x]] + 1;
        ++work;
        if (firstChild_[x] != none) {
            x = firstChild_[x];
            continue;
        }
        while (x != u_in && nextSibling_[x] == none)
            x = parent_[x];
        x = x == u_in ? none : nextSibling_[x];
    }
    return true;
}

LPResult::Status
NetworkSimplex::run(uint64_t work_limit, uint64_t &work)
{
    while (true) {
        unsigned entering = findEntering(work);
        // The last pricing round counts too: a limit below the full
        // solve's work never yields a result.
        if (work_limit != 0 && work > work_limit)
            return LPResult::Status::BudgetExhausted;
        if (entering == none)
            return LPResult::Status::Optimal;
        if (!pivot(entering, work))
            return LPResult::Status::Infeasible;
    }
}

bool
NetworkSimplex::artificialFlowLeft() const
{
    for (size_t e = numStructural_; e < flow_.size(); ++e)
        if (flow_[e] != 0)
            return true;
    return false;
}

std::vector<int64_t>
NetworkSimplex::residualDistances() const
{
    // Residual structural arcs, grouped by tail: every arc forward
    // (none has an upper bound), and backward those carrying flow.
    unsigned n = numNodes_;
    std::vector<unsigned> begin(n + 1, 0);
    for (unsigned e = 0; e < numStructural_; ++e) {
        ++begin[tail_[e]];
        if (flow_[e] > 0)
            ++begin[head_[e]];
    }
    for (unsigned v = 0, sum = 0; v <= n; ++v)
        sum += std::exchange(begin[v], sum);
    std::vector<std::pair<unsigned, int64_t>> out(begin[n]);
    std::vector<unsigned> fill(begin.begin(), begin.end() - 1);
    for (unsigned e = 0; e < numStructural_; ++e) {
        out[fill[tail_[e]]++] = {head_[e], cost_[e]};
        if (flow_[e] > 0)
            out[fill[head_[e]]++] = {tail_[e], -cost_[e]};
    }

    // The optimal potentials keep every residual reduced cost
    // non-negative, so this is one Dijkstra keyed by dist[v] - pi[v]
    // with all nodes as sources.
    std::vector<int64_t> dist(n, 0);
    std::vector<bool> settled(n, false);
    MinHeap heap;
    for (unsigned v = 0; v < n; ++v)
        heap.push({-pi_[v], v});
    while (!heap.empty()) {
        unsigned u = heap.top().second;
        heap.pop();
        if (settled[u])
            continue;
        settled[u] = true;
        for (unsigned k = begin[u]; k < begin[u + 1]; ++k) {
            auto [to, cost] = out[k];
            int64_t nd = dist[u] + cost;
            if (!settled[to] && nd < dist[to]) {
                dist[to] = nd;
                heap.push({nd - pi_[to], to});
            }
        }
    }
    return dist;
}

} // namespace

LPResult
solveDifferenceLP(const DifferenceLP &lp, uint64_t work_limit)
{
    LPResult result;
    NetworkSimplex simplex(lp);
    result.status = simplex.run(work_limit, result.workUnits);
    if (result.status == LPResult::Status::Optimal &&
        simplex.artificialFlowLeft())
        result.status = LPResult::Status::Unbounded;
    if (result.status != LPResult::Status::Optimal)
        return result;

    std::vector<int64_t> dist = simplex.residualDistances();
    unsigned n = lp.numVars();
    unsigned ref = n;
    result.values.resize(n);
    result.objective = 0;
    for (unsigned i = 0; i < n; ++i) {
        // Costs on edge i->j are -c; potentials satisfy
        // d_j <= d_i - c, i.e. t = -d meets t_j - t_i >= c.
        result.values[i] = int(dist[ref] - dist[i]);
        result.objective += lp.weights[i] * result.values[i];
    }
    return result;
}

} // namespace sched
} // namespace longnail
