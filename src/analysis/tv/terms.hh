/**
 * @file
 * Canonical bitvector term DAG for translation validation
 * (docs/translation-validation.md).
 *
 * Both sides of the equivalence check — the scheduled rtl::Module
 * netlist and the LIL graph it was generated from — are evaluated
 * into terms owned by one shared TermBuilder. The builder
 * hash-conses structurally identical terms, folds constants with the
 * reference semantics ir::evalComb, sorts the operands of commutative
 * operators, and applies local identity rewrites (x+0, x&x,
 * mux(c,a,b), ...). Two values are proved equal when they reduce to
 * the same TermId; anything else falls back to co-simulation.
 */

#ifndef LONGNAIL_ANALYSIS_TV_TERMS_HH
#define LONGNAIL_ANALYSIS_TV_TERMS_HH

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/dataflow.hh"
#include "ir/comb.hh"
#include "ir/ir.hh"
#include "support/apint.hh"

namespace longnail {
namespace analysis {
namespace tv {

/** Index of a term inside its TermBuilder. */
using TermId = uint32_t;
constexpr TermId invalidTerm = ~TermId(0);

/** Operator of a term node: a free variable or a comb operator of
 * ir/comb.def. */
enum class TermKind
{
    Var, ///< free variable (an architectural input)
#define LN_COMB_OP(name, ...) name,
#include "ir/comb.def"
#undef LN_COMB_OP
};

static_assert(int(TermKind::Rom) - int(TermKind::Constant) ==
              int(ir::CombOp::Rom));

inline std::optional<ir::CombOp>
combOpOf(TermKind kind)
{
    if (kind == TermKind::Var)
        return std::nullopt;
    return ir::CombOp(int(kind) - int(TermKind::Constant));
}

inline TermKind
termKindOf(ir::CombOp op)
{
    return TermKind(int(op) + int(TermKind::Constant));
}

const char *termKindName(TermKind kind);

/** One node of the term DAG. */
struct Term
{
    TermKind kind = TermKind::Constant;
    unsigned width = 1;
    std::vector<TermId> operands;
    ApInt cval{1, 0};        ///< Const payload
    std::string var;         ///< Var name
    ir::ICmpPred pred = ir::ICmpPred::Eq;
    unsigned lo = 0;         ///< Extract offset
    std::vector<ApInt> romValues;
};

/**
 * Owns the term DAG and guarantees the canonical-form invariant: any
 * two calls that build structurally equal (post-rewrite) terms return
 * the same TermId.
 */
class TermBuilder
{
  public:
    /** Free variable; the same (name, width) always returns the same
     * id, so both evaluation sides share input symbols. */
    TermId var(const std::string &name, unsigned width);

    /** A fresh variable no other term can equal (used for values the
     * checker cannot model, e.g. a register with a symbolic enable). */
    TermId opaque(unsigned width);

    TermId constant(const ApInt &value);

    /**
     * Generic canonicalizing constructor for the computational kinds.
     * Applies constant folding, identity rewrites and commutative
     * operand sorting before hash-consing.
     */
    TermId make(TermKind kind, unsigned width,
                std::vector<TermId> operands);

    TermId icmp(ir::ICmpPred pred, TermId lhs, TermId rhs);
    /** Memoized: extraction recurses structurally through shared
     * sub-DAGs, and without the cache the same (value, lo, count)
     * slice is recomputed once per path — exponential on deeply
     * chained graphs like an unrolled sqrt. */
    TermId extract(TermId value, unsigned lo, unsigned count);
    TermId rom(std::vector<ApInt> values, unsigned width, TermId index);

    /** Comb operator @p op over @p operands, through constant(),
     * icmp(), extract(), rom() or make() as @p op requires. */
    TermId comb(ir::CombOp op, unsigned width,
                std::vector<TermId> operands, const ir::CombAttrs &attrs);
    /** LIL comb operation @p op over the operand terms in @p values,
     * indexed by Value::id; invalidTerm when @p op is not a comb
     * operation. */
    TermId comb(const ir::Operation &op,
                const std::vector<TermId> &values);

    const Term &term(TermId id) const { return terms_.at(id); }
    size_t size() const { return terms_.size(); }

    /** Bounded-depth s-expression rendering for diagnostics. */
    std::string render(TermId id, unsigned max_depth = 4) const;

  private:
    /** Structural key for hash-consing. */
    struct Key
    {
        TermKind kind;
        unsigned width;
        std::vector<TermId> operands;
        std::string payload; ///< cval/var/pred/lo/rom, serialized

        bool operator<(const Key &rhs) const;
    };

    TermId intern(Term term);
    /** Constant-fold @p op over constant @p operands. */
    TermId fold(ir::CombOp op, unsigned width,
                std::span<const TermId> operands,
                const ir::CombAttrs &attrs = {});
    TermId extractImpl(TermId value, unsigned lo, unsigned count);
    const ApInt &constOf(TermId id) const { return terms_[id].cval; }
    bool isConst(TermId id) const
    {
        return terms_[id].kind == TermKind::Constant;
    }

    /**
     * Structural unsigned range of a term, memoized; mirrors the
     * RangeLattice transfer rules so comparisons the graph-side range
     * analysis decides also fold here (range-driven dead-code
     * elimination then proves symbolically, docs/pass-pipeline.md).
     */
    ValueRange rangeOf(TermId id);

    std::vector<Term> terms_;
    std::map<Key, TermId> interned_;
    std::map<TermId, ValueRange> ranges_;
    std::map<std::tuple<TermId, unsigned, unsigned>, TermId>
        extractMemo_;
    unsigned nextOpaque_ = 0;
};

} // namespace tv
} // namespace analysis
} // namespace longnail

#endif // LONGNAIL_ANALYSIS_TV_TERMS_HH
