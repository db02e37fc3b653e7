#include "hir/transforms.hh"

#include <map>

#include "analysis/verifier.hh"
#include "ir/comb.hh"
#include "ir/eval.hh"

namespace longnail {
namespace hir {

using longnail::ApInt;
using ir::Graph;
using ir::Operation;
using ir::OpKind;
using ir::Value;

namespace {

/** One fold/simplify sweep; returns the number of rewrites. */
unsigned
foldOnce(Graph &root, Graph &graph,
         std::map<const Value *, ApInt> &constants)
{
    unsigned changed = 0;
    for (const auto &op : graph.ops()) {
        if (op->subgraph()) {
            changed += foldOnce(root, *op->subgraph(), constants);
            continue;
        }
        if (ir::isConstantOp(op->kind())) {
            constants.emplace(op->result(), op->apAttr("value"));
            continue;
        }

        // Mux with a constant condition or equal arms selects directly.
        if (op->kind() == OpKind::HwMux ||
            op->kind() == OpKind::CombMux) {
            Value *cond = op->operand(0);
            auto it = constants.find(cond);
            if (it != constants.end()) {
                Value *chosen = it->second.isZero() ? op->operand(2)
                                                    : op->operand(1);
                ir::replaceAllUses(root, op->result(), chosen);
                ++changed;
                continue;
            }
            if (op->operand(1) == op->operand(2)) {
                ir::replaceAllUses(root, op->result(), op->operand(1));
                ++changed;
                continue;
            }
        }

        // 1-bit and/or with a constant operand.
        if ((op->kind() == OpKind::HwAnd || op->kind() == OpKind::HwOr ||
             op->kind() == OpKind::CombAnd ||
             op->kind() == OpKind::CombOr) &&
            op->result()->type.width == 1) {
            bool is_and = op->kind() == OpKind::HwAnd ||
                          op->kind() == OpKind::CombAnd;
            for (unsigned i = 0; i < 2; ++i) {
                auto it = constants.find(op->operand(i));
                if (it == constants.end())
                    continue;
                bool bit = !it->second.isZero();
                Value *other = op->operand(1 - i);
                if (other->type.width != 1)
                    break;
                if (is_and && bit) { // x & 1 = x
                    ir::replaceAllUses(root, op->result(), other);
                    ++changed;
                } else if (!is_and && !bit) { // x | 0 = x
                    ir::replaceAllUses(root, op->result(), other);
                    ++changed;
                } else { // x & 0 / x | 1
                    op->morphToConstant(ApInt(1, is_and ? 0 : 1),
                                        ir::isComb(op->kind()));
                    constants.emplace(op->result(),
                                      op->apAttr("value"));
                    ++changed;
                }
                break;
            }
            if (ir::isConstantOp(op->kind()))
                continue;
        }

        if (!ir::isPureComputation(op->kind()))
            continue;

        // General constant folding.
        std::vector<ApInt> operand_values;
        bool all_const = true;
        for (unsigned i = 0; i < op->numOperands(); ++i) {
            auto it = constants.find(op->operand(i));
            if (it == constants.end()) {
                all_const = false;
                break;
            }
            operand_values.push_back(it->second);
        }
        if (!all_const || op->numResults() != 1)
            continue;
        auto result = ir::evaluate(*op, operand_values);
        if (!result)
            continue;
        op->morphToConstant(*result, ir::isComb(op->kind()));
        constants.emplace(op->result(), op->apAttr("value"));
        ++changed;
    }
    return changed;
}

unsigned
removeDead(Graph &graph, const ir::ValueNumbering &used)
{
    unsigned removed = 0;
    // Recurse first so nested removals are counted.
    for (const auto &op : graph.ops())
        if (op->subgraph())
            removed += removeDead(*op->subgraph(), used);
    graph.removeIf([&](const Operation &op) {
        if (!ir::isRemovableWhenUnused(op.kind()) || op.numResults() == 0)
            return false;
        for (unsigned i = 0; i < op.numResults(); ++i)
            if (used.count(op.result(i)))
                return false;
        ++removed;
        return true;
    });
    return removed;
}

} // namespace

unsigned
eliminateDeadCode(Graph &graph)
{
    unsigned total = 0;
    while (true) {
        unsigned removed = removeDead(graph, ir::usedValues(graph));
        total += removed;
        if (removed == 0)
            break;
    }
    analysis::verifyAfterTransform(graph, "eliminateDeadCode");
    return total;
}

unsigned
canonicalize(Graph &graph)
{
    unsigned total = 0;
    for (int iteration = 0; iteration < 16; ++iteration) {
        std::map<const Value *, ApInt> constants;
        unsigned changed = foldOnce(graph, graph, constants);
        // eliminateDeadCode verifies the graph (when enabled) at the
        // end of every iteration, so a corrupting fold is pinned to
        // the iteration that introduced it.
        changed += eliminateDeadCode(graph);
        total += changed;
        if (changed == 0)
            break;
    }
    return total;
}

} // namespace hir
} // namespace longnail
