/**
 * @file
 * Source locations and a diagnostics engine for the compile pipeline.
 *
 * Components report errors/warnings against SourceLoc positions; the
 * DiagnosticEngine collects them so callers (tests, the driver CLI)
 * can inspect, print, or turn them into a failure.
 *
 * Every diagnostic carries a pipeline phase tag and a stable error
 * code (see docs/failure-model.md for the full registry):
 *
 *   LN1xxx  frontend (parse, sema, AST lowering, LIL lowering)
 *   LN2xxx  scheduling
 *   LN3xxx  hardware generation / SCAIE-V metadata
 *   LN4xxx  static analysis (IR verifier, dataflow lint, encoding and
 *           datasheet checks; see docs/static-analysis.md)
 *
 * Codes ending in 9xx are reserved for injected faults from the
 * support/failpoint facility.
 */

#ifndef LONGNAIL_SUPPORT_DIAGNOSTICS_HH
#define LONGNAIL_SUPPORT_DIAGNOSTICS_HH

#include <set>
#include <string>
#include <vector>

#include "support/logging.hh"

namespace longnail {

/** A position in a CoreDSL source buffer (1-based line/column). */
struct SourceLoc
{
    int line = 0;
    int column = 0;

    bool isValid() const { return line > 0; }
    std::string str() const;
};

/** Severity of a diagnostic. */
enum class Severity { Note, Warning, Error };

/** "note", "warning" or "error". */
const char *severityName(Severity severity);
/** Inverse of severityName(); false for any other @p name. */
bool severityFromName(const std::string &name, Severity &out);

/** The pipeline phase a diagnostic originates from (Fig. 9 flow). */
enum class Phase
{
    None,
    Parse,
    Sema,
    AstLower,
    Analysis,
    Lil,
    Sched,
    HwGen,
    Scaiev,
    Validate,
    Driver,
};

/** Short phase name for diagnostics ("parse", "sched", ...). */
const char *phaseName(Phase phase);

/** One reported diagnostic. */
struct Diagnostic
{
    Severity severity = Severity::Error;
    SourceLoc loc;
    std::string message;
    /** Stable error code, e.g. "LN1001"; may be empty. */
    std::string code;
    /** Pipeline phase the diagnostic was produced in. */
    Phase phase = Phase::None;

    std::string str() const;
};

/**
 * Collects diagnostics produced while processing one CoreDSL input.
 *
 * The engine never throws; callers check hasErrors() after each phase.
 * Each pipeline component installs its phase and default error code via
 * ContextScope; diagnostics reported without an explicit code inherit
 * the scope's defaults.
 */
class DiagnosticEngine
{
  public:
    void error(SourceLoc loc, const std::string &msg);
    void error(SourceLoc loc, const std::string &code,
               const std::string &msg);
    void warning(SourceLoc loc, const std::string &msg);
    void warning(SourceLoc loc, const std::string &code,
                 const std::string &msg);
    void note(SourceLoc loc, const std::string &msg);

    bool hasErrors() const { return numErrors_ > 0; }
    size_t errorCount() const { return numErrors_; }
    const std::vector<Diagnostic> &all() const { return diags_; }

    /** True if any error carries @p code (e.g. "LN2002"). */
    bool hasErrorCode(const std::string &code) const;
    /** True if any error's code starts with @p prefix (e.g. "LN2"). */
    bool hasErrorCodePrefix(const std::string &prefix) const;

    /**
     * Cap on recorded errors; 0 = unlimited. Error recovery (e.g. the
     * parser's panic-mode resynchronization) stops once the limit is
     * reached, so one malformed input cannot produce an error cascade.
     */
    void setErrorLimit(size_t limit) { errorLimit_ = limit; }
    size_t errorLimit() const { return errorLimit_; }
    bool errorLimitReached() const
    {
        return errorLimit_ > 0 && numErrors_ >= errorLimit_;
    }

    /**
     * Warning-severity policy, applied centrally in add():
     * suppressed codes are dropped, warnings-as-errors (globally or
     * per code) are promoted to errors before they are recorded. The
     * CLI exposes these as --no-warn=CODE and --Werror[=CODE].
     */
    void setWarningsAsErrors(bool enable) { werrorAll_ = enable; }
    void addWarningAsError(const std::string &code)
    {
        werrorCodes_.insert(code);
    }
    void addSuppressedWarning(const std::string &code)
    {
        suppressed_.insert(code);
    }

    /** Current phase/default-code context (see ContextScope). */
    void setContext(Phase phase, std::string default_code);
    Phase phase() const { return phase_; }

    /** RAII phase context: restores the previous context on exit. */
    class ContextScope
    {
      public:
        ContextScope(DiagnosticEngine &engine, Phase phase,
                     std::string default_code)
            : engine_(engine), prevPhase_(engine.phase_),
              prevCode_(engine.defaultCode_)
        {
            engine_.setContext(phase, std::move(default_code));
        }
        ~ContextScope() { engine_.setContext(prevPhase_, prevCode_); }
        ContextScope(const ContextScope &) = delete;
        ContextScope &operator=(const ContextScope &) = delete;

      private:
        DiagnosticEngine &engine_;
        Phase prevPhase_;
        std::string prevCode_;
    };

    /** All diagnostics, one per line, for error messages and tests. */
    std::string str() const;

    void clear();

  private:
    void add(Severity severity, SourceLoc loc, std::string code,
             const std::string &msg);

    std::vector<Diagnostic> diags_;
    size_t numErrors_ = 0;
    size_t errorLimit_ = 0;
    Phase phase_ = Phase::None;
    std::string defaultCode_;
    bool werrorAll_ = false;
    std::set<std::string> werrorCodes_;
    std::set<std::string> suppressed_;
};

} // namespace longnail

#endif // LONGNAIL_SUPPORT_DIAGNOSTICS_HH
