/**
 * @file
 * Structural IR verifier for the HIR (coredsl+hwarith) and LIL
 * (lil+comb) dialect levels (docs/static-analysis.md).
 *
 * The verifier checks, per graph:
 *  - def-before-use and non-null operands — because graphs are ordered
 *    op lists, this also establishes acyclic combinational dataflow
 *    (LN4001);
 *  - operand/result arity per operation kind (LN4002);
 *  - type/width consistency per operation kind (LN4003);
 *  - required attributes present and well-formed (LN4005);
 *  - dialect-level purity and terminator placement (LN4006).
 *
 * It runs as part of the analysis pipeline phase, and — under
 * CompileOptions::verifyIr (CLI: --verify-ir) — after every transform
 * in hir/transforms and every pass, so a transform bug is caught at
 * the transform that introduced it.
 */

#ifndef LONGNAIL_ANALYSIS_VERIFIER_HH
#define LONGNAIL_ANALYSIS_VERIFIER_HH

#include <string>
#include <vector>

#include "ir/ir.hh"
#include "support/diagnostics.hh"

namespace longnail {
namespace analysis {

/** One verifier finding, carrying its stable LN code. */
struct VerifyIssue
{
    std::string code; ///< LN4001..LN4006
    SourceLoc loc;    ///< location of the offending op, if stamped
    std::string message;

    std::string str() const { return code + ": " + message; }
};

/** Options controlling what verifyGraph() enforces. */
struct VerifyOptions
{
    /**
     * Require a terminator as the last operation of the top-level
     * graph (coredsl.end at the HIR level, lil.sink at the LIL
     * level). Off for transform-time checks, where tests legitimately
     * canonicalize terminator-less scratch graphs.
     */
    bool requireTerminator = false;
};

/**
 * Verify one behavior graph (and its spawn subgraphs). The dialect
 * level is inferred from the operation kinds present; mixing levels is
 * itself a finding.
 * @return all issues found, empty when the graph is well-formed.
 */
std::vector<VerifyIssue> verifyGraph(const ir::Graph &graph,
                                     const VerifyOptions &options = {});

/** Report @p issues as errors into @p diags, prefixed with @p what. */
void reportIssues(const std::vector<VerifyIssue> &issues,
                  const std::string &what, DiagnosticEngine &diags);

/**
 * Whether transforms on the calling thread re-verify their result.
 * Off unless a ScopedVerifyIr on this thread turns it on; compile()
 * holds one for CompileOptions::verifyIr.
 */
bool verifyIrEnabled();

/** RAII enable/restore of the verify-after-transform option on the
 * calling thread. */
class ScopedVerifyIr
{
  public:
    explicit ScopedVerifyIr(bool enable);
    ~ScopedVerifyIr();
    ScopedVerifyIr(const ScopedVerifyIr &) = delete;
    ScopedVerifyIr &operator=(const ScopedVerifyIr &) = delete;

  private:
    bool prev_;
};

/**
 * Transform-time hook: when verifyIrEnabled(), verify @p graph and
 * throw std::runtime_error naming @p when on corruption. The driver's
 * fail-soft boundary turns the throw into an LN3009 diagnostic; tests
 * exercising transforms directly see the exception.
 */
void verifyAfterTransform(const ir::Graph &graph, const char *when);

} // namespace analysis
} // namespace longnail

#endif // LONGNAIL_ANALYSIS_VERIFIER_HH
