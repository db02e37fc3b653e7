/**
 * @file
 * Per-pass translation validation for the -O1 pipeline
 * (docs/pass-pipeline.md).
 *
 * A LIL graph's *observable signature* is the set of guarded
 * architectural effects lil::interpret() produces — rd/pc/mem writes
 * with their last-enabled-wins mux chains, the memory-read address
 * strobe and the per-register custom-state writes — captured as
 * canonical terms in a shared tv::TermBuilder. The checker captures
 * the signature (plus a battery of concrete interpreter runs) once per
 * graph, before the first pass runs. After each pass that rewrote
 * something it rebuilds the signature and decides:
 *
 *   Proved       every signature component reduced to the same term
 *   CosimAgreed  terms differ, but the interpreter battery agrees on
 *                every trial (symbolic gap, no behavioral evidence)
 *   Refuted      some trial diverges: the pass changed architecture-
 *                visible behavior (reported as LN4501)
 *
 * An accepted check makes the post-pass signature the next baseline
 * and keeps the stored trial results. They stay valid: the trial
 * inputs come from a fixed seed, and an accepted graph either proved
 * its signature equal or matched the stored results on exactly these
 * trials in every compared field. So every later check, co-simulation
 * included, compares against the graph as it was before the first
 * pass.
 */

#ifndef LONGNAIL_PASSES_SIGCHECK_HH
#define LONGNAIL_PASSES_SIGCHECK_HH

#include <map>
#include <string>
#include <vector>

#include "analysis/tv/terms.hh"
#include "coredsl/sema.hh"
#include "lil/interp.hh"
#include "lil/lil.hh"

namespace longnail {
namespace passes {

/** One predicated effect chain: or-of-preds valid + muxed payloads. */
struct EffectSig
{
    analysis::tv::TermId valid = analysis::tv::invalidTerm;
    std::vector<analysis::tv::TermId> payload;
};

/** The full observable signature of one LIL graph. */
struct Signature
{
    EffectSig rd;      ///< payload: value
    EffectSig pc;      ///< payload: value
    EffectSig mem;     ///< payload: addr, value
    EffectSig memRead; ///< payload: addr (valid = mem_read_used)
    /** Per custom register; payload: value, index (widened). */
    std::map<std::string, EffectSig> cust;
};

/** The validation baseline of one graph: the signature of its last
 * accepted state, and the trial inputs with the results the graph
 * produced before the first pass. */
struct GraphCapture
{
    Signature sig;
    std::vector<lil::InterpInput> inputs;
    std::vector<lil::InterpResult> results;
};

class SignatureChecker
{
  public:
    enum class Outcome
    {
        Proved,
        CosimAgreed,
        Refuted,
    };

    /** @p isa may be null (no custom-register state is populated). */
    SignatureChecker(const coredsl::ElaboratedIsa *isa, unsigned trials);

    /** Capture @p graph's baseline; once per graph, before any pass. */
    GraphCapture capture(const lil::LilGraph &graph);

    /**
     * Compare @p graph (post-pass) against @p baseline. On Proved or
     * CosimAgreed the post-pass signature becomes the baseline's
     * signature. On Refuted, @p detail describes the first divergence
     * for the LN4501 text; its before= values are the pre-pipeline
     * graph's results.
     */
    Outcome check(const lil::LilGraph &graph, GraphCapture &baseline,
                  std::string &detail);

  private:
    Signature buildSignature(const lil::LilGraph &graph);
    bool signaturesEqual(const Signature &a, const Signature &b) const;

    const coredsl::ElaboratedIsa *isa_;
    unsigned trials_;
    /** Shared across before/after so equal semantics intern to equal
     * ids (tv hash-consing discipline). */
    analysis::tv::TermBuilder builder_;
};

} // namespace passes
} // namespace longnail

#endif // LONGNAIL_PASSES_SIGCHECK_HH
