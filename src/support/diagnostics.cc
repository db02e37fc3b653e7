#include "support/diagnostics.hh"

#include <atomic>
#include <cstdio>
#include <sstream>

#include "obs/metrics.hh"

namespace longnail {

namespace {
std::atomic<bool> quietFlag{false};
} // namespace

void
setQuiet(bool quiet)
{
    quietFlag.store(quiet, std::memory_order_relaxed);
}

bool
quiet()
{
    return quietFlag.load(std::memory_order_relaxed);
}

namespace detail {

// All four sinks write to stderr only: stdout stays reserved for
// machine-readable artifacts (see logging.hh).

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    if (quiet())
        return;
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    if (quiet())
        return;
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace detail

std::string
SourceLoc::str() const
{
    if (!isValid())
        return "<unknown>";
    std::ostringstream os;
    os << line << ":" << column;
    return os.str();
}

const char *
phaseName(Phase phase)
{
    switch (phase) {
      case Phase::None: return "none";
      case Phase::Parse: return "parse";
      case Phase::Sema: return "sema";
      case Phase::AstLower: return "astlower";
      case Phase::Analysis: return "analysis";
      case Phase::Lil: return "lil";
      case Phase::Sched: return "sched";
      case Phase::HwGen: return "hwgen";
      case Phase::Scaiev: return "scaiev";
      case Phase::Validate: return "validate";
      case Phase::Driver: return "driver";
    }
    return "none";
}

const char *
severityName(Severity severity)
{
    switch (severity) {
      case Severity::Note: return "note";
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
    }
    return "error";
}

bool
severityFromName(const std::string &name, Severity &out)
{
    for (Severity s : {Severity::Note, Severity::Warning, Severity::Error})
        if (name == severityName(s)) {
            out = s;
            return true;
        }
    return false;
}

std::string
Diagnostic::str() const
{
    std::ostringstream os;
    os << loc.str() << ": " << severityName(severity) << ": " << message;
    if (!code.empty() || phase != Phase::None) {
        os << " [";
        if (!code.empty())
            os << code;
        if (phase != Phase::None) {
            if (!code.empty())
                os << ", ";
            os << phaseName(phase);
        }
        os << "]";
    }
    return os.str();
}

void
DiagnosticEngine::add(Severity severity, SourceLoc loc, std::string code,
                      const std::string &msg)
{
    if (code.empty())
        code = defaultCode_;
    if (severity == Severity::Warning) {
        if (suppressed_.count(code))
            return;
        if (werrorAll_ || werrorCodes_.count(code))
            severity = Severity::Error;
    }
    switch (severity) {
      case Severity::Error: obs::count("diag.errors"); break;
      case Severity::Warning: obs::count("diag.warnings"); break;
      case Severity::Note: obs::count("diag.notes"); break;
    }
    diags_.push_back({severity, loc, msg, std::move(code), phase_});
    if (severity == Severity::Error)
        ++numErrors_;
}

void
DiagnosticEngine::error(SourceLoc loc, const std::string &msg)
{
    add(Severity::Error, loc, "", msg);
}

void
DiagnosticEngine::error(SourceLoc loc, const std::string &code,
                        const std::string &msg)
{
    add(Severity::Error, loc, code, msg);
}

void
DiagnosticEngine::warning(SourceLoc loc, const std::string &msg)
{
    add(Severity::Warning, loc, "", msg);
}

void
DiagnosticEngine::warning(SourceLoc loc, const std::string &code,
                          const std::string &msg)
{
    add(Severity::Warning, loc, code, msg);
}

void
DiagnosticEngine::note(SourceLoc loc, const std::string &msg)
{
    add(Severity::Note, loc, "", msg);
}

bool
DiagnosticEngine::hasErrorCode(const std::string &code) const
{
    for (const auto &d : diags_)
        if (d.severity == Severity::Error && d.code == code)
            return true;
    return false;
}

bool
DiagnosticEngine::hasErrorCodePrefix(const std::string &prefix) const
{
    for (const auto &d : diags_)
        if (d.severity == Severity::Error &&
            d.code.compare(0, prefix.size(), prefix) == 0)
            return true;
    return false;
}

void
DiagnosticEngine::setContext(Phase phase, std::string default_code)
{
    phase_ = phase;
    defaultCode_ = std::move(default_code);
}

std::string
DiagnosticEngine::str() const
{
    std::ostringstream os;
    for (const auto &d : diags_)
        os << d.str() << "\n";
    return os.str();
}

void
DiagnosticEngine::clear()
{
    diags_.clear();
    numErrors_ = 0;
}

} // namespace longnail
