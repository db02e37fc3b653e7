#include "ir/hir.hh"

#include <algorithm>
#include <iterator>

#include "support/logging.hh"

namespace longnail {
namespace ir {

namespace {

constexpr HirOpInfo hirTable[] = {
#define LN_HIR_OP(kind, ...) __VA_ARGS__,
#include "ir/hir.def"
#undef LN_HIR_OP
};

static_assert(std::size(hirTable) == size_t(OpKind::HwMux) + 1 &&
              int(OpKind::CoredslField) == 0);

/** Only a pure row has a recipe, and every pure row computes. */
constexpr bool
tableWellFormed()
{
    for (const HirOpInfo &row : hirTable) {
        bool recipe = row.comb || row.signedComb || row.extend ||
                      row.onesRhs || row.sign != HirSign::None;
        if (!row.name || row.minOperands > row.maxOperands ||
            row.pure != (row.comb || row.extend) ||
            (!row.pure && recipe))
            return false;
    }
    return true;
}

static_assert(tableWellFormed());

/** @p pred over signed operands when @p is_signed, else unsigned. */
ICmpPred
resign(ICmpPred pred, bool is_signed)
{
    static_assert(int(ICmpPred::Slt) - int(ICmpPred::Ult) == 4 &&
                  int(ICmpPred::Sge) - int(ICmpPred::Slt) == 3);
    if (pred == ICmpPred::Eq || pred == ICmpPred::Ne)
        return pred;
    int order = (int(pred) - int(ICmpPred::Ult)) % 4;
    return ICmpPred(int(ICmpPred::Ult) + order + (is_signed ? 4 : 0));
}

} // namespace

const HirOpInfo *
hirInfo(OpKind kind)
{
    return size_t(kind) < std::size(hirTable) ? &hirTable[size_t(kind)]
                                              : nullptr;
}

HirRecipe
hirRecipe(const Operation &op)
{
    const HirOpInfo *row = hirInfo(op.kind());
    if (!row || !row->pure || op.numResults() != 1)
        LN_PANIC(op.name(), " has no comb recipe");
    auto type = [&](unsigned i) { return op.operand(i)->type; };
    bool is_signed =
        row->sign == HirSign::Lhs   ? type(0).isSigned
        : row->sign == HirSign::Any ? type(0).isSigned || type(1).isSigned
                                    : false;

    HirRecipe r;
    r.comb = is_signed && row->signedComb ? row->signedComb : row->comb;
    r.extend = row->extend;
    r.onesRhs = row->onesRhs;
    const unsigned rw = op.result()->type.width;
    switch (row->width) {
      case HirWidth::Result: r.width = rw; break;
      case HirWidth::Lhs: r.width = type(0).width; break;
      case HirWidth::Compare:
        r.width = std::max(type(0).width, type(1).width) +
                  (type(0).isSigned != type(1).isSigned);
        break;
      case HirWidth::Exact: {
        auto exact = [&](unsigned i) {
            return type(i).width + (is_signed && !type(i).isSigned);
        };
        r.width = std::max({rw, exact(0), exact(1)});
        break;
      }
    }
    r.combWidth = r.comb == CombOp::ICmp ? 1 : r.width;
    if (r.comb) {
        r.attrs = combAttrs(op, *r.comb);
        if (r.comb == CombOp::ICmp)
            r.attrs.pred = resign(r.attrs.pred, is_signed);
    }
    return r;
}

} // namespace ir
} // namespace longnail
