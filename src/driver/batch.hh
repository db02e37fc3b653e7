/**
 * @file
 * Parallel batch compilation (docs/batch-compilation.md).
 *
 * compileBatch() compiles independent ISAX x core units across a
 * work-stealing thread pool (support/threadpool.hh), with a
 * content-addressed artifact cache (driver/cache.hh) underneath and
 * shared read-only inputs -- parsed datasheets, the technology
 * characterization -- memoized once per batch instead of once per
 * unit.
 *
 * Determinism guarantee: the result vector is sorted by unit name and
 * each unit's outcome (summary, diagnostics, artifacts) depends only
 * on its own inputs, never on scheduling order. A batch run with any
 * `jobs` value produces byte-identical artifacts and diagnostic
 * streams. Wall-clock metrics are the only nondeterministic output,
 * and they are kept out of CompileSummary by construction.
 */

#ifndef LONGNAIL_DRIVER_BATCH_HH
#define LONGNAIL_DRIVER_BATCH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "driver/cache.hh"
#include "driver/longnail.hh"

namespace longnail {
namespace driver {

/** One independent compilation unit of a batch. */
struct BatchRequest
{
    /** Unique display/sort key, e.g. "dotp@VexRiscv". */
    std::string unitName;
    std::string source;
    std::string target;
    CompileOptions options;
};

/** Batch-wide knobs. */
struct BatchOptions
{
    /** Worker threads; 0 = one per hardware thread, 1 = inline
     * (no pool). */
    unsigned jobs = 1;
    /** Artifact cache directory; empty disables caching. */
    std::string cacheDir;
    /** LRU eviction limit for the cache; 0 = unlimited. */
    size_t cacheMaxEntries = 0;
    /**
     * Cooperative cancellation (Ctrl-C, server drain): units not yet
     * started are skipped with an LN3011 outcome, in-flight compiles
     * stop at their next phase boundary. Null = never cancelled.
     */
    const CancelToken *cancel = nullptr;
};

/** Outcome of one unit. */
struct BatchUnitOutcome
{
    std::string unitName;
    bool ok = false;
    bool fromCache = false;
    /** Cache bookkeeping for stats (deterministic aggregation). */
    bool cacheCorrupt = false;
    bool cacheInjected = false;
    bool cacheStored = false;
    /** The deterministic compile essence; always populated. Both fresh
     * and replayed units render their output from this alone. */
    CompileSummary summary;
    /** The full compile result; null when replayed from the cache. */
    std::shared_ptr<CompiledIsax> full;
};

struct BatchStats
{
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0; ///< includes corrupt/injected lookups
    uint64_t cacheStores = 0;
    uint64_t cacheCorrupt = 0;
    double wallMs = 0.0;
};

struct BatchResult
{
    /** Sorted by unitName, independent of jobs and execution order. */
    std::vector<BatchUnitOutcome> units;
    BatchStats stats;

    bool allOk() const;
    size_t okCount() const;
};

/**
 * Compile every request, cache-aware and in parallel. Never throws;
 * per-unit failures land in the respective outcome. Safe to call from
 * one thread at a time (the underlying compiles run concurrently).
 *
 * Caveat (docs/failure-model.md): failpoint hit counters are
 * process-global, so with jobs > 1 which unit takes a transient
 * failure depends on scheduling; fault-injection runs should use
 * jobs = 1.
 */
BatchResult compileBatch(std::vector<BatchRequest> requests,
                         const BatchOptions &options = {});

/**
 * The full evaluation matrix: every catalog ISAX crossed with
 * @p cores, named "<isax>@<core>". @p base supplies all options except
 * coreName.
 */
std::vector<BatchRequest>
catalogBatchRequests(const std::vector<std::string> &cores,
                     const CompileOptions &base = {});

/** The four built-in evaluation cores (Table 2 order). */
const std::vector<std::string> &builtinCores();

/**
 * Batch-scoped memoization of shared read-only inputs. Thread-safe;
 * the returned pointers stay valid for the SharedInputs lifetime.
 */
class SharedInputs
{
  public:
    /** Datasheet for @p core (built-in registry); null if unknown. */
    std::shared_ptr<const scaiev::Datasheet>
    datasheetFor(const std::string &core);

    /** One TechLibrary per timing mode, constructed on first use. */
    std::shared_ptr<const sched::TechLibrary>
    techlibFor(sched::TimingMode mode);

  private:
    std::mutex mutex_;
    std::map<std::string, std::shared_ptr<const scaiev::Datasheet>>
        sheets_;
    std::map<int, std::shared_ptr<const sched::TechLibrary>> techs_;
};

} // namespace driver
} // namespace longnail

#endif // LONGNAIL_DRIVER_BATCH_HH
