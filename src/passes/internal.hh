/**
 * @file
 * Helpers shared by the pass implementations (not part of the public
 * passes.hh surface).
 */

#ifndef LONGNAIL_PASSES_INTERNAL_HH
#define LONGNAIL_PASSES_INTERNAL_HH

#include <optional>
#include <utility>
#include <vector>

#include "ir/ir.hh"
#include "support/apint.hh"

namespace longnail {
namespace passes {
namespace detail {

/**
 * Value replacements of one graph's values, indexed by Value::id: each
 * replaced value's uses become uses of its replacement. An entry also
 * names the value it replaces, so a spawn-subgraph value whose id
 * repeats an outer one is never taken for it.
 */
class ValueMap
{
  public:
    explicit ValueMap(const ir::Graph &graph)
        : slots_(graph.valueIdBound())
    {}

    /** Replace @p from, a value of the graph, by @p to. */
    void
    set(const ir::Value *from, ir::Value *to)
    {
        slots_[from->id] = {from, to};
        empty_ = false;
    }

    /** @p v's replacement; nullptr when it has none. */
    ir::Value *
    find(const ir::Value *v) const
    {
        if (v->id >= slots_.size() || slots_[v->id].first != v)
            return nullptr;
        return slots_[v->id].second;
    }

    bool empty() const { return empty_; }

  private:
    std::vector<std::pair<const ir::Value *, ir::Value *>> slots_;
    bool empty_ = true;
};

/** Rewrite @p op's operands found in @p map. */
void remapOperands(ir::Operation &op, const ValueMap &map);

/** remapOperands() over every op of @p graph, subgraphs included. */
void remapUses(ir::Graph &graph, const ValueMap &map);

/** log2 of a power-of-two constant, nullopt otherwise. */
std::optional<unsigned> log2OfPowerOfTwo(const ApInt &value);

} // namespace detail
} // namespace passes
} // namespace longnail

#endif // LONGNAIL_PASSES_INTERNAL_HH
