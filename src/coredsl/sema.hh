/**
 * @file
 * Semantic analysis for CoreDSL: import resolution, inheritance
 * flattening, parameter elaboration, encoding checking, and
 * bitwidth-aware type checking of instruction/always/function behaviors
 * (Secs. 2.2-2.5 of the paper).
 */

#ifndef LONGNAIL_COREDSL_SEMA_HH
#define LONGNAIL_COREDSL_SEMA_HH

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "coredsl/ast.hh"
#include "coredsl/module.hh"
#include "support/diagnostics.hh"

namespace longnail {
namespace coredsl {

/**
 * Resolves an import string (e.g. "RV32I.core_desc") to source text.
 * Returning std::nullopt reports an unresolved import.
 */
using SourceProvider =
    std::function<std::optional<std::string>(const std::string &)>;

/** A provider serving the descriptions bundled with Longnail. */
SourceProvider builtinSourceProvider();

/** Options controlling elaboration. */
struct SemaOptions
{
    /**
     * Name of the base instruction set assumed to be implemented by the
     * host core. Its state elements become core state, and its
     * instructions/always-blocks are not synthesized by default.
     */
    std::string baseSetName = "RV32I";
};

class Sema
{
  public:
    Sema(DiagnosticEngine &diags, SourceProvider provider,
         SemaOptions options = {});

    /**
     * Parse and elaborate @p source, targeting the definition named
     * @p target_name (default: the last definition in the file).
     * @return the elaborated ISA, or nullptr if errors were reported.
     */
    std::unique_ptr<ElaboratedIsa> analyze(const std::string &source,
                                           const std::string &target_name
                                           = "");

  private:
    class Impl;

    DiagnosticEngine &diags_;
    SourceProvider provider_;
    SemaOptions options_;
};

/**
 * Evaluate an expression to a compile-time constant in the context of
 * the given parameter environment. Returns nullopt if the expression is
 * not a compile-time constant.
 */
std::optional<TypedConst>
evalConst(const Expr &expr, const std::map<std::string, TypedConst> &env);

/**
 * `lhs op rhs` in the constant evaluator's semantics, typed by the
 * operator's result type. Returns nullopt for a zero divisor.
 */
std::optional<TypedConst> evalBinary(BinOp op, const TypedConst &lhs,
                                     const TypedConst &rhs);

} // namespace coredsl
} // namespace longnail

#endif // LONGNAIL_COREDSL_SEMA_HH
