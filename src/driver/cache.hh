/**
 * @file
 * Content-addressed compilation cache (docs/batch-compilation.md).
 *
 * A compile is keyed by the SHA-256 digest of its complete input
 * closure: compiler version, CoreDSL source, target definition, the
 * virtual datasheet (serialized) and the options that identify a
 * compile, in their one encoding (toJson(CompileOptions)). Two compiles share an entry exactly when they are
 * guaranteed to produce byte-identical outputs, so replaying a cached
 * entry is indistinguishable from recompiling -- the determinism
 * guarantee the `-j1` vs `-j8` byte-equality tests rely on.
 *
 * Entries store the deterministic essence of a successful compile (a
 * CompileSummary): the SystemVerilog per unit, the SCAIE-V YAML, the
 * rendered warnings, and the deterministic PhaseReport fields
 * (scheduler choice, LP work, stage spans, register counts). An entry
 * is the summary's JSON document (toJson()), the same object the
 * compile server sends as its result reply. Wall times are
 * deliberately not cached -- they are not deterministic and must never
 * leak into compared output.
 *
 * Failure handling is fail-soft: a corrupted or truncated entry is
 * reported as CacheLookup::Corrupt (the caller warns with LN3010 and
 * recompiles), and the `cache` failpoint lets the fault-injection
 * harness force lookup failures (LN3903). Stores are atomic
 * (tmp + rename), so readers never observe a half-written entry.
 */

#ifndef LONGNAIL_DRIVER_CACHE_HH
#define LONGNAIL_DRIVER_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "driver/longnail.hh"
#include "support/json.hh"

namespace longnail {
namespace driver {

/**
 * The deterministic, cache-storable essence of one compile. Both the
 * fresh-compile and the cache-replay paths of batch compilation render
 * their user-visible output from this structure alone, which is what
 * makes a warm `-j8` run byte-identical to a cold `-j1` run.
 */
struct CompileSummary
{
    std::string isaxName;
    std::string coreName;
    bool ok = false;

    /** One rendered diagnostic (warnings/notes of successful compiles;
     * all diagnostics of failed ones). */
    struct DiagLine
    {
        Severity severity = Severity::Warning;
        std::string code;
        std::string rendered; ///< Diagnostic::str() output
    };
    std::vector<DiagLine> diags;
    /** Rendered error block (CompiledIsax::errors; empty when ok). */
    std::string errorsText;

    // Deterministic PhaseReport fields.
    std::string chosenScheduler;
    uint64_t lpWorkUnits = 0;
    unsigned fallbackEvents = 0;

    struct UnitSummary
    {
        std::string name;
        bool isAlways = false;
        int makespan = 0;
        double objective = 0.0;
        std::string quality; ///< sched::scheduleQualityName()
        std::string fallbackReason;
        uint64_t lpWorkUnits = 0;
        int firstStage = 0;
        int lastStage = 0;
        unsigned numRegisters = 0;
        std::string systemVerilog;
    };
    std::vector<UnitSummary> units;

    /** The emitted SCAIE-V configuration YAML. */
    std::string configYaml;
};

/** Extract the deterministic summary of @p compiled. */
CompileSummary summarize(const CompiledIsax &compiled);

/**
 * The one encoding of a CompileSummary: a JSON object with every
 * member always present. A cache entry is this document; the compile
 * server's result reply is this object plus its envelope.
 */
json::Value toJson(const CompileSummary &summary);

/**
 * Decode toJson()'s object into @p out. Strict: every member must be
 * present and of the right kind, integers integral and in range, and
 * severities named; members it does not know are ignored. On failure
 * @p out is untouched and @p error names the offending member.
 */
bool fromJson(const json::Value &doc, CompileSummary &out,
              std::string &error);

/**
 * The one encoding of the CompileOptions that identify a compile:
 * core, timing mode, cycle time, base set, error cap, LP work limit,
 * optimization level, the lint-only, verify-ir, validate and Werror
 * flags, and the warning-code lists. A JSON object that omits members
 * at their defaults; the compile server's request carries it and
 * cacheKey() hashes it. The datasheet pointer, the analysis dump file
 * and the cancel token are not part of it.
 */
json::Value toJson(const CompileOptions &options);

/**
 * Decode toJson()'s object into @p options. Absent members take their
 * defaults (an absent core keeps @p options' core); a non-object, an
 * unknown timing mode, a negative cycle time, an optimization level
 * other than 0 or 1, or a code list that is not an array of strings
 * fails with @p error set.
 */
bool fromJson(const json::Value &obj, CompileOptions &options,
              std::string &error);

/**
 * Version string folded into every cache key; bump whenever a compiler
 * change can alter artifacts without any input changing.
 */
std::string compilerVersion();

/**
 * Cache key of compiling @p source/@p target under @p options: 64 hex
 * chars, the SHA-256 of the compiler version, the source, the target,
 * the datasheet YAML and toJson(options) with its code lists sorted.
 * The datasheet is resolved exactly like compile() resolves it
 * (options.datasheet, else the built-in sheet for options.coreName).
 */
std::string cacheKey(const std::string &source, const std::string &target,
                     const CompileOptions &options);

enum class CacheLookup
{
    Hit,      ///< summary replayed from the cache
    Miss,     ///< no entry (or caching disabled)
    Corrupt,  ///< entry existed but failed to parse; caller recompiles
    Injected, ///< `cache` failpoint fired; treated as a miss
};

/**
 * Look up @p key in @p dir. On Hit fills @p out and refreshes the
 * entry's mtime (the eviction clock). Never throws. Reports Miss
 * unconditionally while any failpoint other than `cache` is armed:
 * fault-injected runs can produce degraded fail-soft artifacts, so
 * they never read (or write, see cacheStore) the cache.
 */
CacheLookup cacheLoad(const std::string &dir, const std::string &key,
                      CompileSummary &out);

/**
 * Atomically store @p summary under @p key, then -- when
 * @p max_entries > 0 -- evict least-recently-used entries (by mtime)
 * down to the limit. Only successful compiles should be stored.
 * A no-op while any failpoint other than `cache` is armed (see
 * cacheLoad).
 * @return false on I/O failure (non-fatal; the batch continues).
 */
bool cacheStore(const std::string &dir, const std::string &key,
                const CompileSummary &summary, size_t max_entries = 0);

/** Number of entries currently in @p dir (for tests/diagnostics). */
size_t cacheEntryCount(const std::string &dir);

/**
 * Remove in-progress `*.tmp*` store files from @p dir. Interrupted
 * runs (Ctrl-C mid-cacheStore, a crashed worker) can strand temp
 * files that atomic rename never published; the CLI signal path and
 * the server drain path sweep them so an aborted run leaves the cache
 * directory exactly as a completed one would.
 * @return the number of files removed.
 */
size_t cacheCleanupTmp(const std::string &dir);

} // namespace driver
} // namespace longnail

#endif // LONGNAIL_DRIVER_CACHE_HH
