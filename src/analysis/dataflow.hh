/**
 * @file
 * A small bidirectional sparse dataflow engine over behavior graphs,
 * plus the lattices the lint checks and optimization passes are built
 * on (docs/static-analysis.md, docs/pass-pipeline.md).
 *
 * Behaviors are straight-line SSA, so "dataflow" here is a sparse
 * fixpoint over the SSA value graph. A forward analysis drains a
 * worklist of operations front-to-back: each op's transfer function
 * maps operand states to result states and users of changed values are
 * re-queued. A backward analysis drains the worklist back-to-front
 * over use-def edges: each op's backward transfer maps the states of
 * its results to the demand it places on its operands, and the
 * *defining* op of a changed operand is re-queued. Ops without results
 * (interface writes, terminators) are the roots of a backward
 * analysis: they are transferred with an empty result-state vector and
 * seed the fixpoint. Spawn subgraphs are analyzed together with their
 * enclosing graph (their operands may reference outer values).
 *
 * A lattice plugs in through the Lattice<State> interface: top(),
 * join(), equal() and the per-op transfer() / transferBackward().
 * States must form a finite-height semilattice under join for
 * termination.
 */

#ifndef LONGNAIL_ANALYSIS_DATAFLOW_HH
#define LONGNAIL_ANALYSIS_DATAFLOW_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "ir/ir.hh"
#include "support/apint.hh"

namespace longnail {
namespace analysis {

/** Propagation direction of a sparse dataflow run. */
enum class Direction
{
    Forward,  ///< def-use edges: operand states -> result states
    Backward, ///< use-def edges: result states -> operand demands
};

/** The abstract-domain interface of the dataflow engine. */
template <typename State>
class Lattice
{
  public:
    virtual ~Lattice() = default;

    /** The initial (most optimistic reachable) state for @p value. */
    virtual State top(const ir::Value &value) const = 0;

    /** Least upper bound of two states. */
    virtual State join(const State &a, const State &b) const = 0;

    virtual bool equal(const State &a, const State &b) const = 0;

    /**
     * Abstractly execute @p op on @p operand_states (one entry per
     * operand, in order). Must return one state per result. Only
     * called for Direction::Forward runs; the default keeps every
     * result at top so backward-only lattices need not override it.
     */
    virtual std::vector<State>
    transfer(const ir::Operation &op,
             const std::vector<State> & /*operand_states*/) const
    {
        std::vector<State> out;
        out.reserve(op.numResults());
        for (unsigned r = 0; r < op.numResults(); ++r)
            out.push_back(top(*op.result(r)));
        return out;
    }

    /**
     * Abstract reverse execution of @p op: given the joined states of
     * its results (one entry per result; empty for result-less ops,
     * which root the analysis), return the contribution @p op makes to
     * each operand's state (one entry per operand). Contributions are
     * *joined* into the operand states across all users. Only called
     * for Direction::Backward runs; the default contributes nothing
     * (an empty vector leaves every operand untouched).
     */
    virtual std::vector<State>
    transferBackward(const ir::Operation &op,
                     const std::vector<State> &result_states) const
    {
        (void)op;
        (void)result_states;
        return {};
    }
};

/**
 * Runs a lattice to fixpoint over one graph (including spawn
 * subgraphs) and returns the final per-value states.
 *
 * Each run numbers the values once: results in op order first, then
 * values that are only used (defined outside the collected ops). The
 * states, def-use and use-def edges and the worklist are dense arrays
 * over those numbers. The worklist drains the lowest queued op first
 * forward and the highest first backward, so evaluation order (and
 * with it every result) is deterministic.
 */
template <typename State>
class SparseDataflow
{
  public:
    SparseDataflow(const Lattice<State> &lattice, Direction direction)
        : lattice_(lattice), direction_(direction)
    {}

    std::map<const ir::Value *, State>
    run(const ir::Graph &graph)
    {
        ops_.clear();
        collect(graph);
        number();
        states_.assign(values_.size(), std::nullopt);
        if (direction_ == Direction::Forward)
            runForward();
        else
            runBackward();
        return exportStates();
    }

  private:
    /**
     * Worklist of op indices drained in a fixed order: lowest index first
     * for forward runs, highest first for backward runs. A bitset with a
     * cursor on the lowest (or highest) word that may hold a set bit.
     */
    class Worklist
    {
      public:
        /** Start with every index in [0, @p size) queued. */
        void
        fill(size_t size)
        {
            words_.assign((size + 63) / 64, ~uint64_t(0));
            if (size % 64)
                words_.back() = (uint64_t(1) << (size % 64)) - 1;
            lo_ = 0;
            hi_ = words_.size();
        }

        void
        insert(size_t index)
        {
            size_t w = index / 64;
            words_[w] |= uint64_t(1) << (index % 64);
            lo_ = std::min(lo_, w);
            hi_ = std::max(hi_, w + 1);
        }

        /** Pop the lowest queued index; false when empty. */
        bool
        popMin(size_t &index)
        {
            while (lo_ < words_.size() && !words_[lo_])
                ++lo_;
            if (lo_ == words_.size())
                return false;
            unsigned bit = unsigned(std::countr_zero(words_[lo_]));
            words_[lo_] &= words_[lo_] - 1;
            index = lo_ * 64 + bit;
            return true;
        }

        /** Pop the highest queued index; false when empty. */
        bool
        popMax(size_t &index)
        {
            while (hi_ > 0 && !words_[hi_ - 1])
                --hi_;
            if (hi_ == 0)
                return false;
            uint64_t &word = words_[hi_ - 1];
            unsigned bit = 63 - unsigned(std::countl_zero(word));
            word &= ~(uint64_t(1) << bit);
            index = (hi_ - 1) * 64 + bit;
            return true;
        }

      private:
        std::vector<uint64_t> words_;
        size_t lo_ = 0; ///< no set bit in words below lo_
        size_t hi_ = 0; ///< no set bit in words at or above hi_
    };

    static constexpr uint32_t noDef = UINT32_MAX;

    /** Number the values and build the operand/result/use/def arrays. */
    void
    number()
    {
        values_.clear();
        defOp_.clear();
        resultBegin_.assign(1, 0);
        std::unordered_map<const ir::Value *, uint32_t> index;
        for (size_t i = 0; i < ops_.size(); ++i) {
            for (unsigned r = 0; r < ops_[i]->numResults(); ++r) {
                index.emplace(ops_[i]->result(r), uint32_t(values_.size()));
                values_.push_back(ops_[i]->result(r));
                defOp_.push_back(uint32_t(i));
            }
            resultBegin_.push_back(uint32_t(values_.size()));
        }
        operands_.clear();
        operandBegin_.assign(1, 0);
        for (const ir::Operation *op : ops_) {
            for (const ir::Value *v : op->operands()) {
                auto [it, inserted] =
                    index.emplace(v, uint32_t(values_.size()));
                if (inserted) {
                    values_.push_back(v);
                    defOp_.push_back(noDef);
                }
                operands_.push_back(it->second);
            }
            operandBegin_.push_back(uint32_t(operands_.size()));
        }
        if (direction_ != Direction::Forward)
            return;
        // Users of each value, in op order (CSR layout).
        userBegin_.assign(values_.size() + 1, 0);
        for (uint32_t v : operands_)
            ++userBegin_[v + 1];
        for (size_t v = 0; v < values_.size(); ++v)
            userBegin_[v + 1] += userBegin_[v];
        users_.resize(operands_.size());
        std::vector<uint32_t> next(userBegin_.begin(),
                                   userBegin_.end() - 1);
        for (size_t i = 0; i < ops_.size(); ++i)
            for (uint32_t e = operandBegin_[i]; e < operandBegin_[i + 1];
                 ++e)
                users_[next[operands_[e]]++] = uint32_t(i);
    }

    void
    stateInto(uint32_t v, std::vector<State> &out) const
    {
        if (states_[v])
            out.push_back(*states_[v]);
        else
            out.push_back(lattice_.top(*values_[v]));
    }

    void
    runForward()
    {
        // Ops are seeded in graph order, so the first pass sees operand
        // states already computed (def-before-use).
        Worklist worklist;
        worklist.fill(ops_.size());
        size_t idx = 0;
        while (worklist.popMin(idx)) {
            const ir::Operation &op = *ops_[idx];
            scratch_.clear();
            for (uint32_t e = operandBegin_[idx];
                 e < operandBegin_[idx + 1]; ++e)
                stateInto(operands_[e], scratch_);

            std::vector<State> results = lattice_.transfer(op, scratch_);
            uint32_t first = resultBegin_[idx];
            size_t n = std::min<size_t>(resultBegin_[idx + 1] - first,
                                        results.size());
            for (size_t r = 0; r < n; ++r) {
                std::optional<State> &state = states_[first + r];
                if (state) {
                    // Monotone update: never move back up the lattice.
                    State merged = lattice_.join(*state, results[r]);
                    if (lattice_.equal(*state, merged))
                        continue;
                    *state = std::move(merged);
                } else {
                    state = std::move(results[r]);
                }
                for (uint32_t u = userBegin_[first + r];
                     u < userBegin_[first + r + 1]; ++u)
                    worklist.insert(users_[u]);
            }
        }
    }

    void
    runBackward()
    {
        // Drain back-to-front: uses are visited before defs, so the
        // first sweep already sees each result's full demand
        // (use-before-def in reverse program order).
        Worklist worklist;
        worklist.fill(ops_.size());
        size_t idx = 0;
        while (worklist.popMax(idx)) {
            const ir::Operation &op = *ops_[idx];
            scratch_.clear();
            for (uint32_t v = resultBegin_[idx]; v < resultBegin_[idx + 1];
                 ++v)
                stateInto(v, scratch_);

            std::vector<State> demands =
                lattice_.transferBackward(op, scratch_);
            uint32_t first = operandBegin_[idx];
            size_t n = std::min<size_t>(operandBegin_[idx + 1] - first,
                                        demands.size());
            for (size_t i = 0; i < n; ++i) {
                uint32_t v = operands_[first + i];
                std::optional<State> &state = states_[v];
                if (state) {
                    State merged = lattice_.join(*state, demands[i]);
                    if (lattice_.equal(*state, merged))
                        continue;
                    *state = std::move(merged);
                } else {
                    if (lattice_.equal(demands[i],
                                       lattice_.top(*values_[v])))
                        continue;
                    state = std::move(demands[i]);
                }
                // Re-queue the transfer that can propagate the changed
                // demand further up the use-def chain.
                if (defOp_[v] != noDef)
                    worklist.insert(defOp_[v]);
            }
        }
    }

    /** The computed states keyed by value. */
    std::map<const ir::Value *, State>
    exportStates()
    {
        std::map<const ir::Value *, State> out;
        for (uint32_t v = 0; v < values_.size(); ++v)
            if (states_[v])
                out.emplace(values_[v], std::move(*states_[v]));
        return out;
    }

    void
    collect(const ir::Graph &graph)
    {
        for (const auto &op : graph.ops()) {
            ops_.push_back(op.get());
            if (op->subgraph())
                collect(*op->subgraph());
        }
    }

    const Lattice<State> &lattice_;
    Direction direction_;
    std::vector<const ir::Operation *> ops_;
    /** Value number -> value; results first, in op order. */
    std::vector<const ir::Value *> values_;
    /** Value number -> defining op index, or noDef. */
    std::vector<uint32_t> defOp_;
    /** Op i's results are the value numbers [resultBegin_[i],
     * resultBegin_[i + 1]). */
    std::vector<uint32_t> resultBegin_;
    /** Op i's operand value numbers are operands_[operandBegin_[i] ..
     * operandBegin_[i + 1]). */
    std::vector<uint32_t> operands_;
    std::vector<uint32_t> operandBegin_;
    /** Forward runs: value v's users are users_[userBegin_[v] ..
     * userBegin_[v + 1]). */
    std::vector<uint32_t> users_;
    std::vector<uint32_t> userBegin_;
    std::vector<std::optional<State>> states_;
    /** Operand (forward) or result (backward) states of one transfer. */
    std::vector<State> scratch_;
};

/** The classic forward engine, now a thin wrapper over SparseDataflow. */
template <typename State>
class ForwardDataflow : public SparseDataflow<State>
{
  public:
    explicit ForwardDataflow(const Lattice<State> &lattice)
        : SparseDataflow<State>(lattice, Direction::Forward)
    {}
};

/** Backward counterpart, propagating demands over use-def edges. */
template <typename State>
class BackwardDataflow : public SparseDataflow<State>
{
  public:
    explicit BackwardDataflow(const Lattice<State> &lattice)
        : SparseDataflow<State>(lattice, Direction::Backward)
    {}
};

// --------------------------------------------------------------------
// Constant/range lattice
// --------------------------------------------------------------------

/**
 * Abstract value of the constant/range analysis: an optional exact
 * constant plus unsigned bounds on the raw bits. Bounds are exact for
 * widths up to 64 and saturate to [0, UINT64_MAX] beyond that.
 */
struct ValueRange
{
    std::optional<ApInt> constant;
    uint64_t umin = 0;
    uint64_t umax = UINT64_MAX;

    /** Saturated maximum raw value of a @p width-bit wire. */
    static uint64_t maxFor(unsigned width);
    static ValueRange full(unsigned width);
    static ValueRange exact(const ApInt &value);

    bool isConstZero() const
    {
        return constant && constant->isZero();
    }
    bool operator==(const ValueRange &rhs) const;
};

/** Constant propagation + unsigned range tracking over both levels. */
class RangeLattice : public Lattice<ValueRange>
{
  public:
    ValueRange top(const ir::Value &value) const override;
    ValueRange join(const ValueRange &a,
                    const ValueRange &b) const override;
    bool equal(const ValueRange &a, const ValueRange &b) const override;
    std::vector<ValueRange>
    transfer(const ir::Operation &op,
             const std::vector<ValueRange> &operands) const override;
};

/** Convenience: solve the range lattice over @p graph. */
std::map<const ir::Value *, ValueRange>
computeRanges(const ir::Graph &graph);

/**
 * Decide an icmp given operand ranges: returns the comparison outcome
 * when the ranges prove it, nullopt otherwise. Signed predicates are
 * only decided for exact constants.
 */
std::optional<bool> icmpOutcome(ir::ICmpPred pred, const ValueRange &lhs,
                                const ValueRange &rhs);

// --------------------------------------------------------------------
// Demanded-bits lattice (backward)
// --------------------------------------------------------------------

/**
 * Abstract value of the demanded-bits analysis: a mask as wide as the
 * value with a 1 wherever some observable behavior (an interface
 * write, a memory access, ...) may depend on that bit. Top is the
 * all-zero mask — nothing demanded — and join is bitwise OR, so the
 * analysis starts optimistic and only bits with a concrete use-chain
 * to an observable end up set. A value whose mask has k < width active
 * bits can be narrowed to k bits without changing any observable.
 */
struct DemandedBits
{
    ApInt mask = ApInt(1, 0);

    static DemandedBits none(unsigned width)
    {
        return DemandedBits{ApInt(width, 0)};
    }
    static DemandedBits all(unsigned width)
    {
        return DemandedBits{ApInt::allOnes(width)};
    }

    bool anyDemanded() const { return !mask.isZero(); }
    bool operator==(const DemandedBits &rhs) const = default;
};

/**
 * Backward lattice computing which bits of each value can influence
 * an observable effect. Conservative for operations without a precise
 * rule (they demand every bit of every operand).
 */
class DemandedBitsLattice : public Lattice<DemandedBits>
{
  public:
    DemandedBits top(const ir::Value &value) const override;
    DemandedBits join(const DemandedBits &a,
                      const DemandedBits &b) const override;
    bool equal(const DemandedBits &a,
               const DemandedBits &b) const override;
    std::vector<DemandedBits>
    transferBackward(const ir::Operation &op,
                     const std::vector<DemandedBits> &results)
        const override;
};

/** Convenience: solve the demanded-bits lattice over @p graph. */
std::map<const ir::Value *, DemandedBits>
computeDemandedBits(const ir::Graph &graph);

// --------------------------------------------------------------------
// Definite-initialization lattice
// --------------------------------------------------------------------

/**
 * Tracks whether a value may depend on an uninitialized source (e.g.
 * the read of a never-written custom register). Two-point lattice:
 * initialized (top) / maybe-uninitialized.
 */
struct InitState
{
    bool maybeUninit = false;

    bool operator==(const InitState &rhs) const = default;
};

class InitLattice : public Lattice<InitState>
{
  public:
    /** @p uninit_sources: ops whose results are uninitialized reads. */
    explicit InitLattice(std::set<const ir::Operation *> uninit_sources)
        : uninitSources_(std::move(uninit_sources))
    {}

    InitState top(const ir::Value &value) const override;
    InitState join(const InitState &a, const InitState &b) const override;
    bool equal(const InitState &a, const InitState &b) const override;
    std::vector<InitState>
    transfer(const ir::Operation &op,
             const std::vector<InitState> &operands) const override;

  private:
    std::set<const ir::Operation *> uninitSources_;
};

} // namespace analysis
} // namespace longnail

#endif // LONGNAIL_ANALYSIS_DATAFLOW_HH
