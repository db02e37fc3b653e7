#include "sched/lpsolver.hh"

#include <algorithm>
#include <functional>
#include <queue>
#include <tuple>

namespace longnail {
namespace sched {

namespace {

constexpr int64_t infCapacity = int64_t(1) << 50;
constexpr int64_t infDistance = int64_t(1) << 60;

/** Binary min-heap of (key, node) pairs. */
using MinHeap = std::priority_queue<std::pair<int64_t, unsigned>,
                                    std::vector<std::pair<int64_t, unsigned>>,
                                    std::greater<>>;

/** Min-cost-flow network with explicit reverse edges. */
class FlowNetwork
{
  public:
    explicit FlowNetwork(unsigned num_nodes) : adj_(num_nodes) {}

    struct Edge
    {
        unsigned to;
        int64_t residual;
        int64_t cost;
    };

    void
    addEdge(unsigned from, unsigned to, int64_t capacity, int64_t cost)
    {
        unsigned id = edges_.size();
        edges_.push_back({to, capacity, cost});
        edges_.push_back({from, 0, -cost});
        adj_[from].push_back(id);
        adj_[to].push_back(id + 1);
    }

    void
    push(unsigned e, int64_t amount)
    {
        edges_[e].residual -= amount;
        edges_[e ^ 1].residual += amount;
    }

    const Edge &edge(unsigned e) const { return edges_[e]; }
    unsigned tail(unsigned e) const { return edges_[e ^ 1].to; }
    const std::vector<unsigned> &outEdges(unsigned node) const
    {
        return adj_[node];
    }
    unsigned numNodes() const { return adj_.size(); }
    unsigned numEdges() const { return edges_.size(); }

  private:
    std::vector<Edge> edges_;
    std::vector<std::vector<unsigned>> adj_;
};

/**
 * Monotone priority queue for Dijkstra over non-negative integer keys:
 * a bucket per key below bucketLimit, a binary heap above it. Reduced
 * distances in scheduling LPs span a few stages, so every operation is
 * a bucket access in practice; the heap keeps arbitrary LPs correct.
 * Keys pushed must not be below the last key popped.
 */
class MonotoneQueue
{
  public:
    static constexpr int64_t bucketLimit = 1024;

    void
    push(int64_t key, unsigned node)
    {
        if (key >= bucketLimit) {
            heap_.push({key, node});
            return;
        }
        if (size_t(key) >= buckets_.size())
            buckets_.resize(key + 1);
        buckets_[key].push_back(node);
    }

    /** @return false when empty. */
    bool
    pop(int64_t &key, unsigned &node)
    {
        for (; current_ < buckets_.size(); ++current_) {
            if (!buckets_[current_].empty()) {
                key = int64_t(current_);
                node = buckets_[current_].back();
                buckets_[current_].pop_back();
                return true;
            }
        }
        if (heap_.empty())
            return false;
        std::tie(key, node) = heap_.top();
        heap_.pop();
        return true;
    }

    void
    clear()
    {
        for (auto &bucket : buckets_)
            bucket.clear();
        current_ = 0;
        heap_ = {};
    }

  private:
    std::vector<std::vector<unsigned>> buckets_;
    size_t current_ = 0;
    MinHeap heap_;
};

/**
 * Primal-dual min-cost flow over a FlowNetwork whose potentials keep
 * every residual reduced cost `cost(u,v) + pi[u] - pi[v]` non-negative.
 * Each phase raises the potentials by one Dijkstra so that the
 * shortest source-sink paths become zero-reduced-cost ("admissible"),
 * then saturates admissible paths by depth-first search.
 */
class PrimalDual
{
  public:
    PrimalDual(FlowNetwork &net, std::vector<int64_t> potential,
               uint64_t &work)
        : net_(net), pi_(std::move(potential)), work_(work),
          zeroBegin_(net.numNodes() + 1)
    {}

    int64_t reducedCost(unsigned e) const
    {
        const FlowNetwork::Edge &edge = net_.edge(e);
        return edge.cost + pi_[net_.tail(e)] - pi_[edge.to];
    }

    const std::vector<int64_t> &potential() const { return pi_; }

    /**
     * Dijkstra on reduced costs from @p source, stopped once @p sink
     * is settled; then pi[v] += min(dist[v], dist[sink]). Adds one work
     * unit per settled node.
     * @return false if @p sink is unreachable.
     */
    bool
    raisePotentials(unsigned source, unsigned sink)
    {
        unsigned n = net_.numNodes();
        dist_.assign(n, infDistance);
        settled_.assign(n, false);
        dist_[source] = 0;
        queue_.clear();
        queue_.push(0, source);
        int64_t d;
        unsigned u;
        while (queue_.pop(d, u)) {
            if (settled_[u])
                continue;
            settled_[u] = true;
            ++work_;
            if (u == sink)
                break;
            for (unsigned e : net_.outEdges(u)) {
                unsigned v = net_.edge(e).to;
                if (net_.edge(e).residual <= 0 || settled_[v])
                    continue;
                int64_t nd = d + reducedCost(e);
                if (nd < dist_[v]) {
                    dist_[v] = nd;
                    queue_.push(nd, v);
                }
            }
        }
        if (!settled_[sink])
            return false;
        // Unsettled nodes lie at least dist[sink] away.
        for (unsigned v = 0; v < n; ++v)
            pi_[v] += settled_[v] ? dist_[v] : dist_[sink];
        // Reduced costs change only with the potentials, so the arcs
        // augment() may use are fixed until the next call: collect the
        // zero-reduced-cost ones once (one work unit per arc).
        zeroArcs_.clear();
        for (unsigned v = 0; v < n; ++v) {
            zeroBegin_[v] = zeroArcs_.size();
            for (unsigned e : net_.outEdges(v)) {
                ++work_;
                if (reducedCost(e) == 0)
                    zeroArcs_.push_back(e);
            }
        }
        zeroBegin_[n] = zeroArcs_.size();
        return true;
    }

    /**
     * Augment along admissible paths from @p source to @p sink until
     * the depth-first search finds none. A node whose admissible arcs
     * are exhausted stays dead for the rest of the call, even if a
     * later augmentation opens a reverse arc out of it; callers repeat
     * the call until it pushes nothing, which proves that no admissible
     * path is left. Adds one work unit per arc scanned.
     * @return the amount of flow pushed.
     */
    int64_t
    augment(unsigned source, unsigned sink)
    {
        unsigned n = net_.numNodes();
        dead_.assign(n, false);
        onPath_.assign(n, false);
        nextArc_.assign(zeroBegin_.begin(), zeroBegin_.end() - 1);
        path_.clear();
        int64_t pushed = 0;
        unsigned u = source;
        onPath_[source] = true;
        while (true) {
            if (u == sink) {
                int64_t bottleneck = infCapacity;
                for (unsigned e : path_)
                    bottleneck =
                        std::min(bottleneck, net_.edge(e).residual);
                for (unsigned e : path_)
                    net_.push(e, bottleneck);
                pushed += bottleneck;
                // Resume from the tail of the first saturated arc.
                size_t k = 0;
                while (net_.edge(path_[k]).residual > 0)
                    ++k;
                for (size_t i = k; i < path_.size(); ++i)
                    onPath_[net_.edge(path_[i]).to] = false;
                u = net_.tail(path_[k]);
                path_.resize(k);
                continue;
            }
            bool advanced = false;
            for (; nextArc_[u] < zeroBegin_[u + 1]; ++nextArc_[u]) {
                unsigned e = zeroArcs_[nextArc_[u]];
                unsigned v = net_.edge(e).to;
                ++work_;
                if (net_.edge(e).residual > 0 && !dead_[v] &&
                    !onPath_[v]) {
                    path_.push_back(e);
                    onPath_[v] = true;
                    u = v;
                    advanced = true;
                    break;
                }
            }
            if (advanced)
                continue;
            dead_[u] = true;
            onPath_[u] = false;
            if (u == source)
                return pushed;
            u = net_.tail(path_.back());
            path_.pop_back();
            ++nextArc_[u];
        }
    }

  private:
    FlowNetwork &net_;
    std::vector<int64_t> pi_;
    uint64_t &work_;
    /** Zero-reduced-cost arcs of the current phase, grouped by tail:
     * node v's are zeroArcs_[zeroBegin_[v] .. zeroBegin_[v + 1]). */
    std::vector<unsigned> zeroBegin_;
    std::vector<unsigned> zeroArcs_;
    // Per-phase scratch, kept to reuse allocations.
    std::vector<int64_t> dist_;
    std::vector<bool> settled_;
    MonotoneQueue queue_;
    std::vector<bool> dead_;
    std::vector<bool> onPath_;
    std::vector<unsigned> nextArc_;
    std::vector<unsigned> path_;
};

/**
 * Detect primal infeasibility: contradictory difference constraints
 * form a negative cycle in the shortest-path formulation. When the
 * check converges (no cycle), the final distances double as a feasible
 * point -- t_i = dist[i] - dist[ref] meets every constraint and bound
 * -- which is written to @p feasible and seeds the potentials.
 */
bool
hasNegativeCycle(const DifferenceLP &lp, uint64_t &work,
                 std::vector<int> &feasible)
{
    unsigned n = lp.numVars();
    unsigned ref = n;
    // Edges (u -> v, weight) meaning d_v <= d_u + weight.
    std::vector<std::tuple<unsigned, unsigned, int64_t>> edges;
    for (const auto &c : lp.constraints)
        edges.emplace_back(c.j, c.i, -int64_t(c.c));
    for (unsigned i = 0; i < n; ++i) {
        edges.emplace_back(i, ref, -int64_t(lp.lower[i]));
        if (lp.upper[i] != DifferenceLP::unbounded)
            edges.emplace_back(ref, i, int64_t(lp.upper[i]));
    }
    std::vector<int64_t> dist(n + 1, 0); // virtual source to all
    for (unsigned iter = 0; iter <= n + 1; ++iter) {
        bool changed = false;
        ++work;
        for (const auto &[u, v, w] : edges) {
            if (dist[u] + w < dist[v]) {
                dist[v] = dist[u] + w;
                changed = true;
            }
        }
        if (!changed) {
            feasible.resize(n);
            for (unsigned i = 0; i < n; ++i)
                feasible[i] = int(dist[i] - dist[ref]);
            return false;
        }
    }
    return true;
}

} // namespace

LPResult
solveDifferenceLP(const DifferenceLP &lp, uint64_t work_limit)
{
    LPResult result;
    auto over_budget = [&]() {
        return work_limit != 0 && result.workUnits > work_limit;
    };
    std::vector<int> feasible;
    if (hasNegativeCycle(lp, result.workUnits, feasible)) {
        result.status = LPResult::Status::Infeasible;
        return result;
    }
    if (over_budget()) {
        result.status = LPResult::Status::BudgetExhausted;
        return result;
    }

    unsigned n = lp.numVars();
    unsigned ref = n;
    unsigned source = n + 1;
    unsigned sink = n + 2;
    FlowNetwork net(n + 3);

    // Dual flow edges. A primal constraint t_j - t_i >= c becomes a
    // flow edge i -> j with cost -c (we maximize sum c*y).
    for (const auto &c : lp.constraints)
        net.addEdge(c.i, c.j, infCapacity, -int64_t(c.c));
    for (unsigned i = 0; i < n; ++i) {
        net.addEdge(ref, i, infCapacity, -int64_t(lp.lower[i]));
        if (lp.upper[i] != DifferenceLP::unbounded)
            net.addEdge(i, ref, infCapacity, int64_t(lp.upper[i]));
    }
    unsigned num_structural = net.numEdges();

    // Node balances: inflow - outflow must equal the objective weight.
    int64_t ref_weight = 0;
    for (unsigned i = 0; i < n; ++i)
        ref_weight -= lp.weights[i];
    int64_t total_supply = 0;
    auto add_balance = [&](unsigned node, int64_t w) {
        if (w > 0) {
            net.addEdge(node, sink, w, 0);
        } else if (w < 0) {
            net.addEdge(source, node, -w, 0);
            total_supply += -w;
        }
    };
    for (unsigned i = 0; i < n; ++i)
        add_balance(i, lp.weights[i]);
    add_balance(ref, ref_weight);

    // Initial potentials pi = -t from the feasible point: every
    // structural reduced cost is then a constraint or bound slack, and
    // the zero-cost source/sink edges are covered by pi[source] = max
    // and pi[sink] = min.
    std::vector<int64_t> pi(n + 3, 0);
    for (unsigned i = 0; i < n; ++i)
        pi[i] = -int64_t(feasible[i]);
    pi[source] = *std::max_element(pi.begin(), pi.begin() + n + 1);
    pi[sink] = *std::min_element(pi.begin(), pi.begin() + n + 1);

    PrimalDual flow(net, std::move(pi), result.workUnits);
    int64_t routed = 0;
    while (routed < total_supply) {
        if (!flow.raisePotentials(source, sink)) {
            result.status = LPResult::Status::Unbounded;
            return result;
        }
        // Drain the admissible subgraph: a pass from fresh dead marks
        // that pushes nothing proves no zero-cost path remains.
        while (routed < total_supply) {
            int64_t pushed = flow.augment(source, sink);
            if (pushed == 0)
                break;
            routed += pushed;
        }
        if (over_budget()) {
            result.status = LPResult::Status::BudgetExhausted;
            return result;
        }
    }

    // Recover the primal solution: shortest distances over the residual
    // structural edges from a virtual root joined to every node by a
    // zero-cost edge. Every optimal flow leaves the same set of feasible
    // residual potentials, so these greatest ones are canonical. The
    // final potentials keep reduced costs non-negative, so this is one
    // Dijkstra keyed by dist[v] - pi[v] with all nodes as sources.
    const std::vector<int64_t> &potential = flow.potential();
    std::vector<int64_t> dist(n + 1, 0);
    std::vector<bool> settled(n + 1, false);
    MinHeap heap;
    for (unsigned v = 0; v <= n; ++v)
        heap.push({-potential[v], v});
    while (!heap.empty()) {
        unsigned u = heap.top().second;
        heap.pop();
        if (settled[u])
            continue;
        settled[u] = true;
        for (unsigned e : net.outEdges(u)) {
            const FlowNetwork::Edge &edge = net.edge(e);
            if (e >= num_structural || edge.residual <= 0 ||
                settled[edge.to])
                continue;
            int64_t nd = dist[u] + edge.cost;
            if (nd < dist[edge.to]) {
                dist[edge.to] = nd;
                heap.push({nd - potential[edge.to], edge.to});
            }
        }
    }

    result.status = LPResult::Status::Optimal;
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
