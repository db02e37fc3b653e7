#include "ir/eval.hh"

#include <algorithm>

#include "ir/comb.hh"
#include "ir/iface.hh"
#include "support/logging.hh"

namespace longnail {
namespace ir {

bool
isPureComputation(OpKind kind)
{
    if (isComb(kind))
        return true;
    switch (kind) {
      case OpKind::HwConstant:
      case OpKind::HwAdd:
      case OpKind::HwSub:
      case OpKind::HwMul:
      case OpKind::HwDiv:
      case OpKind::HwRem:
      case OpKind::HwShl:
      case OpKind::HwShr:
      case OpKind::HwAnd:
      case OpKind::HwOr:
      case OpKind::HwXor:
      case OpKind::HwNot:
      case OpKind::HwICmp:
      case OpKind::HwMux:
      case OpKind::CoredslCast:
      case OpKind::CoredslConcat:
      case OpKind::CoredslExtract:
      case OpKind::CoredslRom:
        return true;
      default:
        return false;
    }
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

/** Fit a result computed at working width back to the result width. */
ApInt
fitResult(const ApInt &v, unsigned width)
{
    return v.zextOrTrunc(width);
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
    if (!isPureComputation(op.kind()))
        return std::nullopt;
    if (operands.size() != op.numOperands())
        LN_PANIC("operand count mismatch evaluating ", op.name());

    const unsigned rw =
        op.numResults() ? op.result()->type.width : 0;
    auto otype = [&](unsigned i) { return op.operand(i)->type; };
    // The comb reference semantics, except that a zero divisor yields
    // no value: the folding passes must not fold it away.
    auto comb = [&](CombOp c) -> std::optional<ApInt> {
        if (isDivOrMod(c) && operands[1].isZero())
            return std::nullopt;
        auto get = [&](unsigned i) -> const ApInt & { return operands[i]; };
        return evalComb(c, rw, CombOperands(operands.size(), get),
                        combAttrs(op, c));
    };
    if (auto c = combOpOf(op.kind()))
        return comb(*c);

    switch (op.kind()) {
      case OpKind::HwConstant:
        return op.apAttr("value");

      case OpKind::HwAdd:
      case OpKind::HwSub:
      case OpKind::HwMul:
      case OpKind::HwDiv:
      case OpKind::HwRem: {
        // Work at a width that can hold any intermediate value.
        unsigned cw = std::max({rw, otype(0).width + 1,
                                otype(1).width + 1});
        if (op.kind() == OpKind::HwMul)
            cw = std::max(cw, otype(0).width + otype(1).width);
        ApInt a = extendTo(operands[0], otype(0), cw);
        ApInt b = extendTo(operands[1], otype(1), cw);
        bool any_signed = otype(0).isSigned || otype(1).isSigned;
        switch (op.kind()) {
          case OpKind::HwAdd: return fitResult(a + b, rw);
          case OpKind::HwSub: return fitResult(a - b, rw);
          case OpKind::HwMul: return fitResult(a * b, rw);
          case OpKind::HwDiv:
            if (b.isZero())
                return std::nullopt;
            return fitResult(any_signed ? a.sdiv(b) : a.udiv(b), rw);
          case OpKind::HwRem:
            if (b.isZero())
                return std::nullopt;
            return fitResult(any_signed ? a.srem(b) : a.urem(b), rw);
          default: break;
        }
        LN_PANIC("unreachable");
      }

      case OpKind::HwShl:
      case OpKind::HwShr: {
        const ApInt &v = operands[0];
        unsigned amount = clampShiftAmount(operands[1], v.width());
        if (op.kind() == OpKind::HwShl)
            return fitResult(v.shl(amount), rw);
        return fitResult(otype(0).isSigned ? v.ashr(amount)
                                           : v.lshr(amount), rw);
      }

      case OpKind::HwAnd:
      case OpKind::HwOr:
      case OpKind::HwXor: {
        ApInt a = extendTo(operands[0], otype(0), rw);
        ApInt b = extendTo(operands[1], otype(1), rw);
        if (op.kind() == OpKind::HwAnd)
            return a & b;
        if (op.kind() == OpKind::HwOr)
            return a | b;
        return a ^ b;
      }

      case OpKind::HwNot:
        return ~operands[0];

      case OpKind::HwICmp: {
        unsigned cw = std::max(otype(0).width, otype(1).width) + 1;
        ApInt a = extendTo(operands[0], otype(0), cw);
        ApInt b = extendTo(operands[1], otype(1), cw);
        auto pred = static_cast<ICmpPred>(op.intAttr("pred"));
        return ApInt(1, applyICmp(pred, a, b));
      }

      case OpKind::HwMux:
        return comb(CombOp::Mux);

      case OpKind::CoredslCast:
        return extendTo(operands[0], otype(0), rw);

      case OpKind::CoredslConcat:
        return comb(CombOp::Concat);

      case OpKind::CoredslExtract:
        return comb(CombOp::Extract);

      case OpKind::CoredslRom:
        return comb(CombOp::Rom);

      default:
        return std::nullopt;
    }
}

} // namespace ir
} // namespace longnail
