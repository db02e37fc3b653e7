/**
 * @file
 * Pure-operation evaluator shared by constant folding, the LIL
 * interpreter (the golden model for generated datapaths), and tests.
 */

#ifndef LONGNAIL_IR_EVAL_HH
#define LONGNAIL_IR_EVAL_HH

#include <optional>
#include <vector>

#include "ir/ir.hh"
#include "support/apint.hh"

namespace longnail {
namespace ir {

/**
 * Evaluate a side-effect-free operation given its operand values.
 *
 * Operand value widths must match the corresponding operand types.
 * @return the result value, or nullopt if the operation is not a pure
 *         computation (interface ops, state accesses, terminators) or
 *         hits undefined behavior (division by zero).
 */
std::optional<ApInt> evaluate(const Operation &op,
                              const std::vector<ApInt> &operands);

/** True if @p kind is evaluatable by evaluate() (pure computation). */
bool isPureComputation(OpKind kind);

/**
 * True for operations that may be deleted when their results are
 * unused: pure computations, field and state reads, and the interface
 * reads whose ir/iface.def row is removable. A memory read
 * (coredsl.get_mem, lil.read_mem) is an effect, since the core sees
 * the request. hir::canonicalize and -O1's dce both apply this rule.
 */
bool isRemovableWhenUnused(OpKind kind);

/** Apply an ICmp predicate to two equally-typed raw values. */
bool applyICmp(ICmpPred pred, const ApInt &lhs, const ApInt &rhs);

} // namespace ir
} // namespace longnail

#endif // LONGNAIL_IR_EVAL_HH
