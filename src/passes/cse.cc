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
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/comb.hh"
#include "passes/internal.hh"
#include "passes/passes.hh"

namespace longnail {
namespace passes {

namespace {

/** Append the bytes of @p value to @p key. */
template <typename T>
void
appendRaw(std::string &key, T value)
{
    key.append(reinterpret_cast<const char *>(&value), sizeof value);
}

void
appendApInt(std::string &key, const ApInt &value)
{
    appendRaw(key, uint32_t(value.width()));
    for (size_t i = 0; i < value.numWords(); ++i)
        appendRaw(key, value.word(i));
}

/**
 * The structural key of @p op into @p key, as bytes: every field has a
 * fixed size or a length in front, so equal keys mean equal kind,
 * result width, attributes and (sorted, when commutative) operand ids.
 * @p ids is scratch space.
 */
void
structuralKey(const ir::Operation &op, std::string &key,
              std::vector<uint32_t> &ids)
{
    key.clear();
    appendRaw(key, uint32_t(op.kind()));
    appendRaw(key, uint32_t(op.result()->type.width));
    appendRaw(key, uint32_t(op.attrs().size()));
    for (const auto &[name, attr] : op.attrs()) {
        appendRaw(key, uint32_t(name.size()));
        key += name;
        appendRaw(key, uint32_t(attr.index()));
        if (const auto *i = std::get_if<int64_t>(&attr)) {
            appendRaw(key, *i);
        } else if (const auto *str = std::get_if<std::string>(&attr)) {
            appendRaw(key, uint32_t(str->size()));
            key += *str;
        } else if (const auto *a = std::get_if<ApInt>(&attr)) {
            appendApInt(key, *a);
        } else if (const auto *v = std::get_if<std::vector<ApInt>>(&attr)) {
            appendRaw(key, uint32_t(v->size()));
            for (const ApInt &e : *v)
                appendApInt(key, e);
        }
    }
    ids.clear();
    for (const ir::Value *v : op.operands())
        ids.push_back(v->id);
    auto comb = ir::combOpOf(op.kind());
    if (comb && ir::combInfo(*comb).commutative)
        std::sort(ids.begin(), ids.end());
    for (uint32_t id : ids)
        appendRaw(key, id);
}

} // namespace

unsigned
runCse(lil::LilGraph &graph)
{
    unsigned rewrites = 0;
    std::unordered_map<std::string, ir::Value *> leaders;
    leaders.reserve(graph.graph.size());
    std::string key;
    std::vector<uint32_t> ids;
    // Duplicate -> leader. A leader is never itself a duplicate, so one
    // lookup resolves any value.
    detail::ValueMap replaced(graph.graph);
    auto used = ir::usedValues(graph.graph);

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
        structuralKey(*op, key, ids);
        auto [it, inserted] = leaders.emplace(key, op->result());
        if (inserted)
            continue;
        // Later ops keying on this result see the leader's id once the
        // sweep remaps them, so chains collapse in one sweep.
        replaced.set(op->result(), it->second);
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
