#include "passes/internal.hh"

namespace longnail {
namespace passes {
namespace detail {

void
remapOperands(ir::Operation &op, const ValueMap &map)
{
    for (unsigned i = 0; i < op.numOperands(); ++i)
        if (ir::Value *to = map.find(op.operand(i)))
            op.setOperand(i, to);
}

void
remapUses(ir::Graph &graph, const ValueMap &map)
{
    for (const auto &op : graph.ops()) {
        remapOperands(*op, map);
        if (op->subgraph())
            remapUses(*op->subgraph(), map);
    }
}

std::optional<unsigned>
log2OfPowerOfTwo(const ApInt &value)
{
    unsigned k = value.activeBits();
    if (k == 0 || value != ApInt::oneBit(value.width(), k - 1))
        return std::nullopt;
    return k - 1;
}

} // namespace detail
} // namespace passes
} // namespace longnail
