/**
 * @file
 * cse: common-subexpression elimination over the pure comb ops of one
 * LIL graph. The structural key follows the same discipline as the
 * hash-consed term DAG (src/analysis/tv/terms.cc): kind, attributes,
 * operand identity — with the operands of commutative kinds sorted —
 * and the result width. A single in-order sweep reaches the
 * value-numbering fixpoint on the straight-line graphs LIL produces,
 * so the pass is idempotent by construction: each op's operands are
 * remapped to their leaders as the sweep reaches it, so later keys see
 * the leaders' ids, and one final walk rewrites the uses inside spawn
 * subgraphs. The pass is linear in the graph size.
 */

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "ir/comb.hh"
#include "passes/internal.hh"
#include "passes/passes.hh"

namespace longnail {
namespace passes {

namespace {

void
appendAttr(std::ostringstream &os, const std::string &key,
           const ir::Attr &attr)
{
    os << '|' << key << '=';
    if (const auto *i = std::get_if<int64_t>(&attr)) {
        os << 'i' << *i;
    } else if (const auto *s = std::get_if<std::string>(&attr)) {
        os << 's' << *s;
    } else if (const auto *a = std::get_if<ApInt>(&attr)) {
        os << 'a' << a->width() << ':' << a->toStringUnsigned(16);
    } else if (const auto *v = std::get_if<std::vector<ApInt>>(&attr)) {
        os << 'v';
        for (const ApInt &e : *v)
            os << e.width() << ':' << e.toStringUnsigned(16) << ',';
    }
}

std::string
structuralKey(const ir::Operation &op)
{
    std::ostringstream os;
    os << op.name() << '#' << op.result()->type.width;
    for (const auto &[key, attr] : op.attrs())
        appendAttr(os, key, attr);
    std::vector<unsigned> ids;
    ids.reserve(op.numOperands());
    for (const ir::Value *v : op.operands())
        ids.push_back(v->id);
    auto comb = ir::combOpOf(op.kind());
    if (comb && ir::combInfo(*comb).commutative)
        std::sort(ids.begin(), ids.end());
    os << '@';
    for (unsigned id : ids)
        os << id << ',';
    return os.str();
}

} // namespace

unsigned
runCse(lil::LilGraph &graph)
{
    unsigned rewrites = 0;
    std::map<std::string, ir::Value *> leaders;
    // Duplicate -> leader. A leader is never itself a duplicate, so one
    // lookup resolves any value.
    detail::ValueMap replaced;
    auto used = detail::usedValues(graph.graph);

    for (const auto &op : graph.graph.ops()) {
        if (!replaced.empty())
            detail::remapOperands(*op, replaced);
        if (op->numResults() != 1 || op->subgraph() ||
            !ir::isComb(op->kind()))
            continue;
        // Replaced duplicates linger as dead ops until DCE runs; the
        // use-gate keeps a second CSE run from re-counting them
        // (idempotence). Uses only shrink during the sweep, so the
        // snapshot taken above stays conservative.
        if (!used.count(op->result()))
            continue;
        std::string key = structuralKey(*op);
        auto [it, inserted] = leaders.emplace(key, op->result());
        if (inserted)
            continue;
        // Later ops keying on this result see the leader's id once the
        // sweep remaps them, so chains collapse in one sweep.
        replaced.emplace(op->result(), it->second);
        ++rewrites;
    }
    // Top-level uses follow their defs, so the sweep remapped them all;
    // only the spawn subgraphs are left.
    if (!replaced.empty())
        for (const auto &op : graph.graph.ops())
            if (op->subgraph())
                detail::remapUses(*op->subgraph(), replaced);
    return rewrites;
}

} // namespace passes
} // namespace longnail
