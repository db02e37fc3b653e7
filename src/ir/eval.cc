#include "ir/eval.hh"

#include "ir/comb.hh"
#include "ir/hir.hh"
#include "ir/iface.hh"
#include "support/logging.hh"

namespace longnail {
namespace ir {

bool
isPureComputation(OpKind kind)
{
    const HirOpInfo *hir = hirInfo(kind);
    return isComb(kind) || (hir && hir->pure);
}

bool
applyICmp(ICmpPred pred, const ApInt &lhs, const ApInt &rhs)
{
    switch (pred) {
      case ICmpPred::Eq: return lhs == rhs;
      case ICmpPred::Ne: return lhs != rhs;
      case ICmpPred::Ult: return lhs.ult(rhs);
      case ICmpPred::Ule: return lhs.ule(rhs);
      case ICmpPred::Ugt: return lhs.ugt(rhs);
      case ICmpPred::Uge: return lhs.uge(rhs);
      case ICmpPred::Slt: return lhs.slt(rhs);
      case ICmpPred::Sle: return lhs.sle(rhs);
      case ICmpPred::Sgt: return lhs.sgt(rhs);
      case ICmpPred::Sge: return lhs.sge(rhs);
    }
    LN_PANIC("invalid icmp predicate");
}

namespace {

/** Extend @p v (typed @p type) to @p width following its signedness. */
ApInt
extendTo(const ApInt &v, WireType type, unsigned width)
{
    return type.isSigned ? v.sextOrTrunc(width) : v.zextOrTrunc(width);
}

/** The comb reference semantics, except that a zero divisor yields no
 * value: the folding passes must not fold it away. */
std::optional<ApInt>
foldComb(CombOp c, unsigned width, const std::vector<ApInt> &in,
         const CombAttrs &attrs)
{
    if (isDivOrMod(c) && in[1].isZero())
        return std::nullopt;
    auto get = [&](unsigned i) -> const ApInt & { return in[i]; };
    return evalComb(c, width, CombOperands(in.size(), get), attrs);
}

} // namespace

bool
isRemovableWhenUnused(OpKind kind)
{
    if (const IfaceInfo *iface = ifaceInfo(kind))
        return iface->removable;
    return isPureComputation(kind) || kind == OpKind::CoredslField ||
           kind == OpKind::CoredslGet;
}

std::optional<ApInt>
evaluate(const Operation &op, const std::vector<ApInt> &operands)
{
    if (!isPureComputation(op.kind()) || op.numResults() != 1)
        return std::nullopt;
    if (operands.size() != op.numOperands())
        LN_PANIC("operand count mismatch evaluating ", op.name());
    const WireType type = op.result()->type;
    if (auto c = combOpOf(op.kind()))
        return foldComb(*c, type.width, operands, combAttrs(op, *c));

    // A pure HIR op: its hir.def recipe, exactly as the LIL lowering
    // builds it.
    const HirRecipe r = hirRecipe(op);
    std::vector<ApInt> in;
    for (unsigned i = 0; i < operands.size(); ++i)
        in.push_back(r.extends(i) ? extendTo(operands[i],
                                             op.operand(i)->type, r.width)
                                  : operands[i]);
    if (r.onesRhs)
        in.push_back(ApInt::allOnes(r.width));
    std::optional<ApInt> result =
        r.comb ? foldComb(*r.comb, r.combWidth, in, r.attrs) : in[0];
    if (!result)
        return std::nullopt;
    return extendTo(*result, type, type.width);
}

} // namespace ir
} // namespace longnail
