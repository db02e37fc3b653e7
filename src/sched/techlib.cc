#include "sched/techlib.hh"

#include <algorithm>
#include <cmath>

namespace longnail {
namespace sched {

using ir::CombOp;
using ir::Operation;
using ir::OpKind;

namespace {

double
log2ceil(unsigned w)
{
    return std::ceil(std::log2(std::max(2u, w)));
}

/** True if operand @p i of @p op is a constant (free in hardware). */
bool
operandIsConstant(const Operation &op, unsigned i)
{
    if (i >= op.numOperands())
        return false;
    return ir::isConstantOp(op.operand(i)->owner->kind());
}

} // namespace

double
combDelayNs(const CombShape &shape)
{
    unsigned w = shape.width;
    switch (shape.op) {
      case CombOp::Add:
      case CombOp::Sub:
        // Carry-lookahead-style: logarithmic in the width.
        return 0.06 + 0.025 * log2ceil(w);
      case CombOp::Mul:
        return 0.25 + 0.060 * log2ceil(w);
      case CombOp::DivU:
      case CombOp::DivS:
      case CombOp::ModU:
      case CombOp::ModS:
        // Combinational divider: linear in the width.
        return 0.5 + 0.09 * w;
      case CombOp::ICmp:
        return 0.05 + 0.020 * log2ceil(shape.lhsWidth);
      case CombOp::And:
      case CombOp::Or:
      case CombOp::Xor:
        return 0.035;
      case CombOp::Mux:
        return 0.05;
      case CombOp::Shl:
      case CombOp::ShrU:
      case CombOp::ShrS:
        // Constant shift amounts are wiring; dynamic ones are barrel
        // shifters with log2(w) mux levels.
        if (shape.constantAmount)
            return 0.0;
        return 0.05 * log2ceil(w);
      case CombOp::Rom:
        return 0.12 + 0.025 * log2ceil(unsigned(shape.romEntries));
      default:
        return 0.0; // constant, extract, concat, replicate: wiring
    }
}

double
combAreaUm2(const CombShape &shape)
{
    unsigned w = shape.width;
    switch (shape.op) {
      case CombOp::Add:
      case CombOp::Sub:
        return 0.30 * w;
      case CombOp::Mul:
        return 0.20 * shape.lhsWidth * shape.rhsWidth;
      case CombOp::DivU:
      case CombOp::DivS:
      case CombOp::ModU:
      case CombOp::ModS:
        return 2.4 * w * w / 8.0;
      case CombOp::ICmp:
        return 0.25 * shape.lhsWidth;
      case CombOp::And:
      case CombOp::Or:
      case CombOp::Xor:
        return 0.15 * w;
      case CombOp::Mux:
        return 0.25 * w;
      case CombOp::Shl:
      case CombOp::ShrU:
      case CombOp::ShrS:
        if (shape.constantAmount)
            return 0.0;
        return 0.25 * w * log2ceil(w);
      case CombOp::Rom:
        // LUT-style mapping: ~area per stored bit.
        return 0.05 * double(shape.romEntries) * w;
      default:
        return 0.0;
    }
}

double
TechLibrary::physicalDelayNs(const Operation &op) const
{
    if (auto comb = ir::combOpOf(op.kind())) {
        CombShape shape;
        shape.op = *comb;
        shape.width = op.numResults() ? op.result()->type.width : 1;
        shape.lhsWidth = op.numOperands() ? op.operand(0)->type.width
                                          : shape.width;
        if (*comb == CombOp::Rom)
            shape.romEntries = op.romAttr("values").size();
        shape.constantAmount = operandIsConstant(op, 1);
        return combDelayNs(shape);
    }
    switch (op.kind()) {
      // Sub-interface operations: port arrival/setup margins.
      case OpKind::LilInstrWord:
      case OpKind::LilReadRs1:
      case OpKind::LilReadRs2:
      case OpKind::LilReadPC:
      case OpKind::LilReadCustReg:
        return 0.20;
      case OpKind::LilReadMem:
        return 0.25;
      case OpKind::LilWriteRd:
      case OpKind::LilWritePC:
      case OpKind::LilWriteMem:
      case OpKind::LilWriteCustRegAddr:
      case OpKind::LilWriteCustRegData:
        return 0.10;
      default:
        return 0.1;
    }
}

OpTiming
TechLibrary::timing(const Operation &op) const
{
    OpTiming t;
    // Memory reads deliver their data one cycle after the request.
    if (op.kind() == OpKind::LilReadMem)
        t.latency = 1;

    double physical = physicalDelayNs(op);
    if (mode_ == TimingMode::Library) {
        t.delayNs = physical;
        return t;
    }
    // Uniform mode (paper Sec. 4.2): every logic operation costs one
    // uniform delay unit; pure wiring (including shifts by constants),
    // which is what the library gives no delay, is free.
    t.delayNs = physical == 0.0 ? 0.0 : uniformDelayNs();
    return t;
}

} // namespace sched
} // namespace longnail
