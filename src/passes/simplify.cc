/**
 * @file
 * simplify: range-lattice constant folding, local identity rewrites
 * and power-of-two strength reduction over one LIL graph
 * (docs/pass-pipeline.md). Every rewrite mirrors a canonicalization
 * of the term DAG (src/analysis/tv/terms.cc), so the per-pass
 * signature check proves them symbolically.
 */

#include <vector>

#include "analysis/dataflow.hh"
#include "ir/comb.hh"
#include "passes/internal.hh"
#include "passes/passes.hh"
#include "support/failpoint.hh"

namespace longnail {
namespace passes {

using ir::OpKind;

namespace {

/**
 * The deliberate miscompile behind the "passes" failpoint: XOR the
 * value of the graph's first interface write (rd, PC, memory or
 * custom register) with 1. The seeded-bug test arms the failpoint
 * and expects the per-pass check to refute the pipeline (LN4501).
 */
unsigned
injectMiscompile(ir::Graph &graph)
{
    // Snapshot: insertBefore invalidates deque iterators.
    ir::Operation *target = nullptr;
    unsigned data_index = 0;
    for (const auto &op : graph.ops()) {
        switch (op->kind()) {
          case OpKind::LilWriteRd:
          case OpKind::LilWritePC:
          case OpKind::LilWriteCustRegData:
            data_index = 0;
            break;
          case OpKind::LilWriteMem:
            data_index = 1;
            break;
          default:
            continue;
        }
        if (op->numOperands() > data_index) {
            target = op.get();
            break;
        }
    }
    if (!target)
        return 0;
    ir::Value *data = target->operand(data_index);
    unsigned w = data->type.width;
    ir::Operation *one = graph.insertBefore(
        target, OpKind::CombConstant, {}, {ir::WireType(w)});
    one->setAttr("value", ApInt(w, 1));
    ir::Operation *flipped = graph.insertBefore(
        target, OpKind::CombXor, {data, one->result()},
        {ir::WireType(w)});
    target->setOperand(data_index, flipped->result());
    return 1;
}

/** One full sweep; @return the number of rewrites applied. */
unsigned
simplifySweep(ir::Graph &graph)
{
    unsigned rewrites = 0;
    auto ranges = analysis::computeRanges(graph);
    auto used = detail::usedValues(graph);

    // Iterate a snapshot: the strength-reduction lambda inserts new
    // ops, and deque insertion invalidates live iterators. Operation
    // pointers themselves stay valid across insertions.
    std::vector<ir::Operation *> snapshot;
    snapshot.reserve(graph.ops().size());
    for (const auto &op : graph.ops())
        snapshot.push_back(op.get());

    for (ir::Operation *op : snapshot) {
        OpKind k = op->kind();
        if (op->numResults() != 1 || !ir::isComb(k) ||
            k == OpKind::CombConstant)
            continue;
        ir::Value *res = op->result();
        // Dead results are DCE's job; skipping them keeps each rewrite
        // from being recounted on a second run (idempotence).
        if (!used.count(res))
            continue;
        unsigned w = res->type.width;

        // Range-proved constants (covers all-constant folding, decided
        // comparisons, overshifts, ROM reads, ...).
        auto rit = ranges.find(res);
        if (rit != ranges.end() && rit->second.constant) {
            op->morphToConstant(*rit->second.constant, true);
            ++rewrites;
            continue;
        }

        auto constAt = [&](unsigned i) -> const ApInt * {
            return i < op->numOperands()
                       ? detail::definingConstant(op->operand(i))
                       : nullptr;
        };
        auto replaceWith = [&](ir::Value *v) {
            detail::replaceAllUses(graph, res, v);
            ++rewrites;
        };
        auto toConst = [&](const ApInt &v) {
            op->morphToConstant(v, true);
            ++rewrites;
        };
        // Strength reduction: rewrite in place to new_kind with a
        // fresh constant second operand.
        auto strength = [&](OpKind new_kind, ir::Value *data,
                            const ApInt &amount) {
            ir::Operation *c = graph.insertBefore(
                op, OpKind::CombConstant, {}, {ir::WireType(w)});
            c->setAttr("value", amount.zextOrTrunc(w));
            op->morph(new_kind, {data, c->result()});
            ++rewrites;
        };

        const ApInt *c0 = constAt(0);
        const ApInt *c1 = constAt(1);
        switch (k) {
          case OpKind::CombAdd:
            if (c0 && c0->isZero())
                replaceWith(op->operand(1));
            else if (c1 && c1->isZero())
                replaceWith(op->operand(0));
            break;
          case OpKind::CombSub:
            if (c1 && c1->isZero())
                replaceWith(op->operand(0));
            else if (op->operand(0) == op->operand(1))
                toConst(ApInt(w, 0));
            break;
          case OpKind::CombMul: {
            if ((c0 && c0->isZero()) || (c1 && c1->isZero())) {
                toConst(ApInt(w, 0));
                break;
            }
            if (c0 && *c0 == ApInt(c0->width(), 1)) {
                replaceWith(op->operand(1));
                break;
            }
            if (c1 && *c1 == ApInt(c1->width(), 1)) {
                replaceWith(op->operand(0));
                break;
            }
            for (unsigned i = 0; i < 2; ++i) {
                const ApInt *c = i == 0 ? c0 : c1;
                if (!c)
                    continue;
                if (auto s = detail::log2OfPowerOfTwo(*c)) {
                    strength(OpKind::CombShl, op->operand(1 - i),
                             ApInt(w, *s));
                    break;
                }
            }
            break;
          }
          case OpKind::CombAnd:
            if ((c0 && c0->isZero()) || (c1 && c1->isZero()))
                toConst(ApInt(w, 0));
            else if (c0 && c0->isAllOnes())
                replaceWith(op->operand(1));
            else if (c1 && c1->isAllOnes())
                replaceWith(op->operand(0));
            else if (op->operand(0) == op->operand(1))
                replaceWith(op->operand(0));
            break;
          case OpKind::CombOr:
            if ((c0 && c0->isAllOnes()) || (c1 && c1->isAllOnes()))
                toConst(ApInt::allOnes(w));
            else if (c0 && c0->isZero())
                replaceWith(op->operand(1));
            else if (c1 && c1->isZero())
                replaceWith(op->operand(0));
            else if (op->operand(0) == op->operand(1))
                replaceWith(op->operand(0));
            break;
          case OpKind::CombXor:
            if (c0 && c0->isZero())
                replaceWith(op->operand(1));
            else if (c1 && c1->isZero())
                replaceWith(op->operand(0));
            else if (op->operand(0) == op->operand(1))
                toConst(ApInt(w, 0));
            break;
          case OpKind::CombShl:
          case OpKind::CombShrU:
          case OpKind::CombShrS:
            if (!c1)
                break;
            if (ir::clampShiftAmount(*c1, w) == 0) {
                replaceWith(op->operand(0));
            } else if (k != OpKind::CombShrS &&
                       ir::clampShiftAmount(*c1, w) >= w) {
                // Overshift discards every data bit (shrs keeps the
                // sign fill, so it stays untouched).
                toConst(ApInt(w, 0));
            }
            break;
          case OpKind::CombMux:
            if (op->numOperands() != 3)
                break;
            if (c0)
                replaceWith(c0->isZero() ? op->operand(2)
                                         : op->operand(1));
            else if (op->operand(1) == op->operand(2))
                replaceWith(op->operand(1));
            break;
          case OpKind::CombDivU:
            if (!c1)
                break;
            if (*c1 == ApInt(c1->width(), 1)) {
                replaceWith(op->operand(0));
            } else if (auto s = detail::log2OfPowerOfTwo(*c1)) {
                strength(OpKind::CombShrU, op->operand(0),
                         ApInt(w, *s));
            }
            break;
          case OpKind::CombModU:
            if (!c1)
                break;
            if (*c1 == ApInt(c1->width(), 1)) {
                toConst(ApInt(w, 0));
            } else if (auto s = detail::log2OfPowerOfTwo(*c1)) {
                // x mod 2^s == x & (2^s - 1)
                strength(OpKind::CombAnd, op->operand(0),
                         ApInt::allOnes(*s).zext(w));
            }
            break;
          case OpKind::CombReplicate:
            if (w == 1 && op->numOperands() == 1)
                replaceWith(op->operand(0));
            break;
          default:
            break;
        }
    }
    return rewrites;
}

} // namespace

unsigned
runSimplify(lil::LilGraph &graph)
{
    unsigned total = 0;
    if (failpoint::fire("passes") != failpoint::Mode::Off)
        total += injectMiscompile(graph.graph);

    // Sweep to a local fixpoint: a folded value can decide a
    // comparison that folds the next value, and idempotence
    // (run(run(g)) == run(g)) requires finishing the chain here.
    for (;;) {
        unsigned n = simplifySweep(graph.graph);
        total += n;
        if (!n)
            break;
    }
    return total;
}

} // namespace passes
} // namespace longnail
