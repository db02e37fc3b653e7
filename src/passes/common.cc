#include "passes/internal.hh"

namespace longnail {
namespace passes {
namespace detail {

using ir::OpKind;

void
replaceAllUses(ir::Graph &graph, ir::Value *from, ir::Value *to)
{
    for (const auto &op : graph.ops()) {
        op->replaceUsesOf(from, to);
        if (op->subgraph())
            replaceAllUses(*op->subgraph(), from, to);
    }
}

void
remapOperands(ir::Operation &op, const ValueMap &map)
{
    for (unsigned i = 0; i < op.numOperands(); ++i)
        if (auto it = map.find(op.operand(i)); it != map.end())
            op.setOperand(i, it->second);
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

namespace {

void
collectUsed(const ir::Graph &graph, std::set<const ir::Value *> &used)
{
    for (const auto &op : graph.ops()) {
        for (const ir::Value *v : op->operands())
            used.insert(v);
        if (op->subgraph())
            collectUsed(*op->subgraph(), used);
    }
}

} // namespace

std::set<const ir::Value *>
usedValues(const ir::Graph &graph)
{
    std::set<const ir::Value *> used;
    collectUsed(graph, used);
    return used;
}

const ApInt *
definingConstant(const ir::Value *v)
{
    const ir::Operation *def = v->owner;
    if (def &&
        (def->kind() == OpKind::CombConstant ||
         def->kind() == OpKind::HwConstant) &&
        def->hasAttr("value"))
        return &def->apAttr("value");
    return nullptr;
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
