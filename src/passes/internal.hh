/**
 * @file
 * Helpers shared by the pass implementations (not part of the public
 * passes.hh surface).
 */

#ifndef LONGNAIL_PASSES_INTERNAL_HH
#define LONGNAIL_PASSES_INTERNAL_HH

#include <optional>
#include <unordered_map>

#include "ir/ir.hh"
#include "support/apint.hh"

namespace longnail {
namespace passes {
namespace detail {

/** Value replacements: each key's uses become uses of its mapped value. */
using ValueMap = std::unordered_map<const ir::Value *, ir::Value *>;

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
