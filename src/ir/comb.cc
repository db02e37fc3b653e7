#include "ir/comb.hh"

#include <algorithm>

#include "ir/eval.hh"
#include "support/logging.hh"

namespace longnail {
namespace ir {

namespace {

const CombOpInfo combTable[] = {
#define LN_COMB_OP(name, spelling, arity, commutative, infix)          \
    {spelling, "comb." spelling, arity, commutative, infix},
#include "ir/comb.def"
#undef LN_COMB_OP
};

} // namespace

const CombOpInfo &
combInfo(CombOp op)
{
    return combTable[size_t(op)];
}

unsigned
clampShiftAmount(const ApInt &amount, unsigned value_width)
{
    uint64_t raw = amount.activeBits() > 32 ? value_width
                                            : amount.toUint64();
    return unsigned(std::min<uint64_t>(raw, value_width));
}

CombAttrs
combAttrs(const Operation &op, CombOp as)
{
    CombAttrs attrs;
    switch (as) {
      case CombOp::Constant: attrs.value = &op.apAttr("value"); break;
      case CombOp::ICmp:
        attrs.pred = static_cast<ICmpPred>(op.intAttr("pred"));
        break;
      case CombOp::Extract: attrs.lo = unsigned(op.intAttr("lo")); break;
      case CombOp::Rom: attrs.romValues = &op.romAttr("values"); break;
      default: break;
    }
    return attrs;
}

void
setCombAttrs(Operation &op, CombOp as, const CombAttrs &attrs)
{
    switch (as) {
      case CombOp::Constant: op.setAttr("value", *attrs.value); break;
      case CombOp::ICmp: op.setAttr("pred", int64_t(attrs.pred)); break;
      case CombOp::Extract: op.setAttr("lo", int64_t(attrs.lo)); break;
      case CombOp::Rom: op.setAttr("values", *attrs.romValues); break;
      default: break;
    }
}

ApInt
evalComb(CombOp op, unsigned width, CombOperands in,
         const CombAttrs &attrs)
{
    switch (op) {
      case CombOp::Constant: return *attrs.value;
      case CombOp::Add: return in[0] + in[1];
      case CombOp::Sub: return in[0] - in[1];
      case CombOp::Mul: return in[0] * in[1];
      case CombOp::DivU:
        return in[1].isZero() ? ApInt(width, 0) : in[0].udiv(in[1]);
      case CombOp::DivS:
        return in[1].isZero() ? ApInt(width, 0) : in[0].sdiv(in[1]);
      case CombOp::ModU:
        return in[1].isZero() ? ApInt(width, 0) : in[0].urem(in[1]);
      case CombOp::ModS:
        return in[1].isZero() ? ApInt(width, 0) : in[0].srem(in[1]);
      case CombOp::And: return in[0] & in[1];
      case CombOp::Or: return in[0] | in[1];
      case CombOp::Xor: return in[0] ^ in[1];
      case CombOp::Shl:
        return in[0].shl(clampShiftAmount(in[1], in[0].width()));
      case CombOp::ShrU:
        return in[0].lshr(clampShiftAmount(in[1], in[0].width()));
      case CombOp::ShrS:
        return in[0].ashr(clampShiftAmount(in[1], in[0].width()));
      case CombOp::ICmp:
        return ApInt(1, applyICmp(attrs.pred, in[0], in[1]));
      case CombOp::Mux: return in[0].isZero() ? in[2] : in[1];
      case CombOp::Extract: return in[0].extract(attrs.lo, width);
      case CombOp::Concat: {
        unsigned n = in.size();
        ApInt acc = in[n - 2].concat(in[n - 1]);
        for (unsigned i = n - 2; i-- > 0;)
            acc = in[i].concat(acc);
        return acc;
      }
      case CombOp::Replicate:
        return in[0].isZero() ? ApInt(width, 0) : ApInt::allOnes(width);
      case CombOp::Rom: {
        const std::vector<ApInt> &values = *attrs.romValues;
        uint64_t index = in.size() == 0          ? 0
                         : in[0].activeBits() > 63 ? values.size()
                                                   : in[0].toUint64();
        return index < values.size() ? values[index].zextOrTrunc(width)
                                     : ApInt(width, 0);
      }
    }
    LN_PANIC("invalid comb operator");
}

} // namespace ir
} // namespace longnail
