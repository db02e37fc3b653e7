/**
 * @file
 * The HIR ops: one row of facts per coredsl/hwarith operation
 * (ir/hir.def), including the comb-level meaning of each pure one.
 *
 * ir::OpKind's HIR block embeds the rows in order. opKindName,
 * isPureComputation and the verifier read the row; ir::evaluate (HIR
 * constant folding) and the LIL lowering both apply hirRecipe(), so
 * folding an op and lowering it cannot disagree.
 */

#ifndef LONGNAIL_IR_HIR_HH
#define LONGNAIL_IR_HIR_HH

#include <optional>

#include "ir/comb.hh"
#include "ir/ir.hh"

namespace longnail {
namespace ir {

/** Which operands decide that a pure op computes signed. */
enum class HirSign
{
    None,
    Any, ///< either operand (div, rem, icmp)
    Lhs, ///< the lhs (shr)
};

/** The working width of a pure op: where its comb op computes. */
enum class HirWidth
{
    Result,  ///< the result width
    Lhs,     ///< the lhs width (shifts)
    Compare, ///< the wider operand, one bit more for mixed signedness
    /** The narrowest width holding the result and both operands
     * exactly: an unsigned operand of a signed op needs a sign bit. */
    Exact,
};

/** One row of hir.def. */
struct HirOpInfo
{
    const char *name = nullptr; ///< "hwarith.add"
    unsigned minOperands = 0;
    unsigned maxOperands = 0;
    unsigned results = 0;
    /** Computes its result from its operands alone (ir::evaluate). */
    bool pure = false;

    // The recipe of a pure op (hir.def's header states it).
    std::optional<CombOp> comb = std::nullopt; ///< none: operand 0
    std::optional<CombOp> signedComb = std::nullopt; ///< when signed
    HirSign sign = HirSign::None;
    HirWidth width = HirWidth::Result;
    unsigned extend = 0;  ///< bit i: operand i is extended to the width
    bool onesRhs = false; ///< the comb op's rhs is all ones
};

/** The row of @p kind; nullptr when it is not a coredsl/hwarith op. */
const HirOpInfo *hirInfo(OpKind kind);

/** A pure HIR op's recipe, applied to its operand and result types. */
struct HirRecipe
{
    std::optional<CombOp> comb; ///< none: the result is operand 0
    unsigned width = 0;         ///< the working width
    unsigned combWidth = 0;     ///< the comb op's result (icmp: 1)
    unsigned extend = 0;        ///< the row's extended operands
    bool onesRhs = false;       ///< the row's all-ones rhs
    CombAttrs attrs; ///< the comb op's, with icmp's predicate re-signed

    bool extends(unsigned i) const { return extend >> i & 1; }
};

/** The recipe of @p op, which must be a pure HIR op. */
HirRecipe hirRecipe(const Operation &op);

} // namespace ir
} // namespace longnail

#endif // LONGNAIL_IR_HIR_HH
