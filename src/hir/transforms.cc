#include "hir/transforms.hh"

#include <map>
#include <set>

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

bool
isConstantOp(OpKind kind)
{
    return kind == OpKind::HwConstant || kind == OpKind::CombConstant;
}

/** True for operations that may be deleted when their results are
 * unused. */
bool
isRemovableWhenDead(OpKind kind)
{
    if (ir::isPureComputation(kind))
        return true;
    switch (kind) {
      case OpKind::CoredslField:
      case OpKind::CoredslGet:
      case OpKind::CoredslGetMem:
      case OpKind::LilInstrWord:
      case OpKind::LilReadRs1:
      case OpKind::LilReadRs2:
      case OpKind::LilReadPC:
      case OpKind::LilReadMem:
      case OpKind::LilReadCustReg:
        return true;
      default:
        return false;
    }
}

void
replaceUsesRec(Graph &graph, Value *from, Value *to)
{
    for (const auto &op : graph.ops()) {
        op->replaceUsesOf(from, to);
        if (op->subgraph())
            replaceUsesRec(*op->subgraph(), from, to);
    }
}

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
        if (isConstantOp(op->kind())) {
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
                replaceUsesRec(root, op->result(), chosen);
                ++changed;
                continue;
            }
            if (op->operand(1) == op->operand(2)) {
                replaceUsesRec(root, op->result(), op->operand(1));
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
                    replaceUsesRec(root, op->result(), other);
                    ++changed;
                } else if (!is_and && !bit) { // x | 0 = x
                    replaceUsesRec(root, op->result(), other);
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
            if (isConstantOp(op->kind()))
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

void
collectUses(const Graph &graph, std::set<const Value *> &used)
{
    for (const auto &op : graph.ops()) {
        for (unsigned i = 0; i < op->numOperands(); ++i)
            used.insert(op->operand(i));
        if (op->subgraph())
            collectUses(*op->subgraph(), used);
    }
}

unsigned
removeDead(Graph &graph, const std::set<const Value *> &used)
{
    unsigned removed = 0;
    // Recurse first so nested removals are counted.
    for (const auto &op : graph.ops())
        if (op->subgraph())
            removed += removeDead(*op->subgraph(), used);
    graph.removeIf([&](const Operation &op) {
        if (!isRemovableWhenDead(op.kind()) || op.numResults() == 0)
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

void
replaceAllUses(Graph &graph, Value *from, Value *to)
{
    replaceUsesRec(graph, from, to);
}

unsigned
eliminateDeadCode(Graph &graph)
{
    unsigned total = 0;
    while (true) {
        std::set<const Value *> used;
        collectUses(graph, used);
        unsigned removed = removeDead(graph, used);
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
