#include "driver/batch.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "driver/isax_catalog.hh"
#include "obs/log.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"

namespace longnail {
namespace driver {

namespace {

/** Render a cache-event advisory in the standard diagnostic format
 * (a scratch engine keeps the formatting in one place). Cache events
 * are environment-dependent, so they bypass the unit's --Werror
 * policy: a flaky disk must never fail a --Werror build. */
CompileSummary::DiagLine
cacheEventWarning(const std::string &code, const std::string &message)
{
    DiagnosticEngine engine;
    DiagnosticEngine::ContextScope scope(engine, Phase::Driver, code);
    engine.warning({}, code, message);
    return {Severity::Warning, code, engine.all().front().str()};
}

} // namespace

bool
BatchResult::allOk() const
{
    return okCount() == units.size();
}

size_t
BatchResult::okCount() const
{
    size_t n = 0;
    for (const auto &unit : units)
        if (unit.ok)
            ++n;
    return n;
}

const std::vector<std::string> &
builtinCores()
{
    static const std::vector<std::string> cores = {
        "ORCA", "Piccolo", "PicoRV32", "VexRiscv"};
    return cores;
}

std::vector<BatchRequest>
catalogBatchRequests(const std::vector<std::string> &cores,
                     const CompileOptions &base)
{
    std::vector<BatchRequest> requests;
    for (const auto &isax : catalog::allIsaxes()) {
        for (const auto &core : cores) {
            BatchRequest req;
            req.unitName = isax.name + "@" + core;
            req.source = isax.source;
            req.target = isax.target;
            req.options = base;
            req.options.coreName = core;
            requests.push_back(std::move(req));
        }
    }
    return requests;
}

BatchResult
compileBatch(std::vector<BatchRequest> requests,
             const BatchOptions &options)
{
    auto batch_start = std::chrono::steady_clock::now();
    obs::TraceSpan batch_span("batch");

    // Deterministic processing and result order: sort by unit name up
    // front (stable, so duplicate names keep their submission order).
    // Every worker writes only its own pre-sized slot; the final
    // vector is identical for any jobs value.
    std::stable_sort(requests.begin(), requests.end(),
                     [](const BatchRequest &a, const BatchRequest &b) {
                         return a.unitName < b.unitName;
                     });

    BatchResult result;
    result.units.resize(requests.size());

    auto compile_one = [&](size_t i) {
        const BatchRequest &req = requests[i];
        BatchUnitOutcome &out = result.units[i];
        out.unitName = req.unitName;

        // Request id per sorted slot: "r1" is the first unit in name
        // order no matter which worker runs it or how many jobs there
        // are, so log records correlate deterministically across runs.
        obs::RequestScope rid_scope("r" + std::to_string(i + 1));
        obs::logEvent(obs::LogLevel::Info, "batch.unit",
                      {{"name", req.unitName}});
        struct DoneLog
        {
            const BatchUnitOutcome &out;
            ~DoneLog()
            {
                obs::logEvent(
                    obs::LogLevel::Info, "batch.unit.done",
                    {{"name", out.unitName},
                     {"outcome", out.ok ? "ok" : "compile-error"},
                     {"fromCache", out.fromCache ? "yes" : "no"}});
            }
        } done_log{out};

        // Cancellation (Ctrl-C / drain): units that have not started
        // yet are settled with a deterministic LN3011 outcome instead
        // of compiling -- every unit still gets exactly one outcome.
        if (options.cancel && options.cancel->stopRequested()) {
            DiagnosticEngine engine;
            DiagnosticEngine::ContextScope scope(engine, Phase::Driver,
                                                 "LN3011");
            engine.error({}, "LN3011",
                         std::string("batch unit ") +
                             options.cancel->reason() +
                             " before compilation started");
            out.summary.isaxName = req.unitName;
            out.summary.ok = false;
            for (const auto &d : engine.all())
                out.summary.diags.push_back(
                    {d.severity, d.code, d.str()});
            out.summary.errorsText = engine.str();
            return;
        }

        std::string key;
        if (!options.cacheDir.empty()) {
            key = cacheKey(req.source, req.target, req.options);
            CompileSummary cached;
            switch (cacheLoad(options.cacheDir, key, cached)) {
            case CacheLookup::Hit:
                out.summary = std::move(cached);
                out.ok = out.summary.ok;
                out.fromCache = true;
                return;
            case CacheLookup::Miss:
                break;
            case CacheLookup::Corrupt:
                out.cacheCorrupt = true;
                break;
            case CacheLookup::Injected:
                out.cacheInjected = true;
                break;
            }
        }

        CompileOptions opts = req.options;
        if (options.cancel && !opts.cancel)
            opts.cancel = options.cancel;
        out.summary = summarize(compile(req.source, req.target, opts));
        out.ok = out.summary.ok;

        // Store before decorating: cache events describe THIS run's
        // lookup, so they must never be replayed from the cache.
        if (out.ok && !options.cacheDir.empty())
            out.cacheStored = cacheStore(options.cacheDir, key,
                                         out.summary,
                                         options.cacheMaxEntries);

        // Fail-soft cache events surface as LN-coded advisories at the
        // front of the unit's diagnostics (they happened first).
        if (out.cacheCorrupt)
            out.summary.diags.insert(
                out.summary.diags.begin(),
                cacheEventWarning(
                    "LN3010", "corrupted cache entry for '" +
                                  req.unitName + "': recompiled"));
        if (out.cacheInjected)
            out.summary.diags.insert(
                out.summary.diags.begin(),
                cacheEventWarning(
                    "LN3903", "injected fault at failpoint 'cache': "
                              "treated as a miss for '" +
                                  req.unitName + "'"));
    };

    unsigned jobs = options.jobs;
    if (jobs == 0) {
        jobs = std::thread::hardware_concurrency();
        if (jobs == 0)
            jobs = 1;
    }
    jobs = unsigned(std::min<size_t>(jobs, std::max<size_t>(
                                               requests.size(), 1)));

    // Each worker takes the next unit in sorted order until none is
    // left; with one job the calling thread runs the same loop.
    std::atomic<size_t> next{0};
    auto work = [&] {
        for (size_t i = next++; i < requests.size(); i = next++)
            compile_one(i);
    };
    if (jobs <= 1) {
        work();
    } else {
        // Joined when the vector goes out of scope.
        std::vector<std::jthread> workers;
        for (unsigned t = 0; t < jobs; ++t)
            workers.emplace_back(work);
    }

    // Deterministic stats, aggregated from the outcomes after the
    // join (no racy increments during the run).
    for (const auto &unit : result.units) {
        if (unit.fromCache) {
            ++result.stats.cacheHits;
        } else if (!options.cacheDir.empty()) {
            ++result.stats.cacheMisses;
            if (unit.cacheCorrupt)
                ++result.stats.cacheCorrupt;
        }
        if (unit.cacheStored)
            ++result.stats.cacheStores;
    }
    result.stats.wallMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - batch_start)
            .count();

    if (obs::enabled()) {
        obs::count("batch.units", result.units.size());
        obs::gauge("batch.jobs", double(jobs));
        obs::count("cache.hits", result.stats.cacheHits);
        obs::count("cache.misses", result.stats.cacheMisses);
        obs::count("cache.stores", result.stats.cacheStores);
        obs::count("cache.corrupt", result.stats.cacheCorrupt);
    }
    batch_span.arg("units", std::to_string(result.units.size()));
    batch_span.arg("jobs", std::to_string(jobs));
    return result;
}

} // namespace driver
} // namespace longnail
