/**
 * @file
 * Canonicalization passes shared by the HIR and LIL levels: constant
 * folding, algebraic simplification and dead-code elimination.
 */

#ifndef LONGNAIL_HIR_TRANSFORMS_HH
#define LONGNAIL_HIR_TRANSFORMS_HH

#include "ir/ir.hh"

namespace longnail {
namespace hir {

/**
 * Fold constants, simplify muxes/logic with constant inputs, and remove
 * dead pure operations (recursing into spawn subgraphs). Runs to a
 * fixpoint.
 * @return the number of operations removed or rewritten.
 */
unsigned canonicalize(ir::Graph &graph);

/** Remove unused pure operations (one pass, recursive). */
unsigned eliminateDeadCode(ir::Graph &graph);

} // namespace hir
} // namespace longnail

#endif // LONGNAIL_HIR_TRANSFORMS_HH
