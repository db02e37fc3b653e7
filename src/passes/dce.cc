/**
 * @file
 * dce: dead-code elimination over one LIL graph. Three cooperating
 * steps, iterated to a fixpoint:
 *
 *  - interface writes whose predicate is provably constant-false (the
 *    LN4104 lint findings) are deleted outright — lil::interpret()
 *    never applies them;
 *  - a lil.read_mem whose predicate is constant-false becomes the
 *    constant 0 its interpretation already is (the read itself is
 *    observable through mem_read_used, so only the provably-disabled
 *    form may disappear);
 *  - ops with no remaining users that ir::isRemovableWhenUnused()
 *    allows (pure computations, input and register reads: the rule
 *    hir::canonicalize applies too) are swept, and so are
 *    lil.write_custreg_addr ops whose register has lost every data
 *    write.
 *
 * customRegsRead/Written are recomputed at the end so the scheduler
 * and the core's hazard logic see the post-DCE interface.
 */

#include <set>
#include <string>

#include "analysis/dataflow.hh"
#include "ir/eval.hh"
#include "ir/iface.hh"
#include "passes/internal.hh"
#include "passes/passes.hh"

namespace longnail {
namespace passes {

using ir::OpKind;

namespace {

unsigned
dceSweep(ir::Graph &graph)
{
    unsigned removed = 0;
    auto ranges = analysis::computeRanges(graph);

    // Disabled interface ops first: writes disappear, reads become
    // the 0 they already evaluate to. Collect before mutating: the
    // removal below invalidates the op list being walked.
    std::set<const ir::Operation *> disabled_writes;
    for (const auto &op : graph.ops()) {
        const ir::IfaceInfo *iface = ir::ifaceInfo(op->kind());
        if (!iface || iface->pred < 0)
            continue;
        auto rit = ranges.find(op->operand(iface->pred));
        if (rit == ranges.end() || !rit->second.isConstZero())
            continue;
        if (!iface->write)
            op->morphToConstant(ApInt(op->result()->type.width, 0),
                                true);
        else
            disabled_writes.insert(op.get());
        ++removed;
    }
    graph.removeIf([&](const ir::Operation &o) {
        return disabled_writes.count(&o) != 0;
    });

    // Address writes for registers that no longer have any data write
    // are unobservable (the pending index only matters to a write).
    std::set<std::string> data_written;
    for (const auto &op : graph.ops())
        if (op->kind() == OpKind::LilWriteCustRegData)
            data_written.insert(op->strAttr("reg"));
    graph.removeIf([&](const ir::Operation &o) {
        bool dead = o.kind() == OpKind::LilWriteCustRegAddr &&
                    !data_written.count(o.strAttr("reg"));
        removed += dead;
        return dead;
    });

    // Unused pure computations and reads, innermost-first via
    // iteration (removing a user can free its operands' defs).
    for (;;) {
        auto used = ir::usedValues(graph);
        unsigned swept = 0;
        graph.removeIf([&](const ir::Operation &o) {
            if (!ir::isRemovableWhenUnused(o.kind()))
                return false;
            for (unsigned r = 0; r < o.numResults(); ++r)
                if (used.count(o.result(r)))
                    return false;
            ++swept;
            return true;
        });
        if (!swept)
            break;
        removed += swept;
    }
    return removed;
}

} // namespace

unsigned
runDce(lil::LilGraph &graph)
{
    unsigned total = 0;
    for (;;) {
        unsigned n = dceSweep(graph.graph);
        total += n;
        if (!n)
            break;
    }

    // Keep the cross-layer register interface honest after removals.
    graph.collectCustomRegs();
    return total;
}

} // namespace passes
} // namespace longnail
