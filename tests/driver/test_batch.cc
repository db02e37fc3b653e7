/**
 * @file
 * Tests for parallel batch compilation (docs/batch-compilation.md):
 * jobs-count determinism, the worker loop (never more workers than
 * units, one compile per unit under its sorted-slot rid), the
 * content-addressed artifact cache (hit/miss/invalidation, fail-soft
 * corruption handling, the `cache` failpoint), and cooperative
 * cancellation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <thread>

#include "driver/batch.hh"
#include "driver/isax_catalog.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "support/failpoint.hh"

using namespace longnail;
using namespace longnail::driver;
namespace fs = std::filesystem;

namespace {

/** A fresh, empty per-test scratch directory. */
std::string
scratchDir(const std::string &name)
{
    std::string path = ::testing::TempDir() + "/ln_batch_" + name;
    fs::remove_all(path);
    fs::create_directories(path);
    return path;
}

/** A small 2 ISAX x 2 core batch from the built-in catalog. */
std::vector<BatchRequest>
smallBatch()
{
    std::vector<BatchRequest> requests;
    for (const char *isax : {"zol", "bitmanip"}) {
        const auto *entry = catalog::findIsax(isax);
        EXPECT_NE(entry, nullptr);
        for (const char *core : {"VexRiscv", "ORCA"}) {
            BatchRequest req;
            req.unitName = std::string(isax) + "@" + core;
            req.source = entry->source;
            req.target = entry->target;
            req.options.coreName = core;
            requests.push_back(std::move(req));
        }
    }
    return requests;
}

/** Every deterministic field of a summary, flattened for comparison. */
std::string
fingerprint(const CompileSummary &summary)
{
    std::ostringstream os;
    os << summary.isaxName << '|' << summary.coreName << '|'
       << summary.ok << '|' << summary.chosenScheduler << '|'
       << summary.lpWorkUnits << '|' << summary.fallbackEvents << '\n';
    for (const auto &d : summary.diags)
        os << d.code << '|' << d.rendered << '\n';
    os << summary.errorsText << '\n';
    for (const auto &u : summary.units)
        os << u.name << '|' << u.isAlways << '|' << u.makespan << '|'
           << u.objective << '|' << u.quality << '|' << u.firstStage
           << '|' << u.lastStage << '|' << u.numRegisters << '\n'
           << u.systemVerilog << '\n';
    os << summary.configYaml;
    return os.str();
}

std::string
fingerprint(const BatchResult &result)
{
    std::ostringstream os;
    for (const auto &unit : result.units)
        os << unit.unitName << '=' << unit.ok << '\n'
           << fingerprint(unit.summary) << '\n';
    return os.str();
}

} // namespace

// ---------------------------------------------------------------------------
// Batch determinism
// ---------------------------------------------------------------------------

TEST(Batch, ResultIsSortedByUnitName)
{
    BatchResult result = compileBatch(smallBatch());
    ASSERT_EQ(result.units.size(), 4u);
    for (size_t i = 1; i < result.units.size(); ++i)
        EXPECT_LT(result.units[i - 1].unitName,
                  result.units[i].unitName);
    EXPECT_TRUE(result.allOk());
}

TEST(Batch, IdenticalForAnyJobsCount)
{
    BatchOptions serial;
    serial.jobs = 1;
    std::string base = fingerprint(compileBatch(smallBatch(), serial));
    for (unsigned jobs : {2u, 4u, 8u}) {
        BatchOptions options;
        options.jobs = jobs;
        EXPECT_EQ(base, fingerprint(compileBatch(smallBatch(), options)))
            << "jobs=" << jobs;
    }
}

TEST(Batch, NeverStartsMoreWorkersThanUnits)
{
    obs::ScopedEnable on;
    obs::Registry::instance().clear();
    BatchOptions options;
    options.jobs = 32;
    BatchResult result = compileBatch(smallBatch(), options);
    ASSERT_EQ(result.units.size(), 4u);
    EXPECT_TRUE(result.allOk());
    EXPECT_EQ(obs::Registry::instance().gauges().at("batch.jobs"), 4.0);

    // jobs = 0 means one per hardware thread, still capped by units.
    obs::Registry::instance().clear();
    options.jobs = 0;
    result = compileBatch(smallBatch(), options);
    EXPECT_TRUE(result.allOk());
    unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
    EXPECT_EQ(obs::Registry::instance().gauges().at("batch.jobs"),
              double(std::min(hardware, 4u)));
    obs::Registry::instance().clear();
}

TEST(Batch, EachUnitCompilesOnceUnderItsSortedSlotRid)
{
    // Submitted in reverse: the rid is the unit's slot in name order,
    // whichever worker takes it.
    std::vector<BatchRequest> requests = smallBatch();
    std::reverse(requests.begin(), requests.end());
    std::vector<std::string> sorted;
    for (const auto &req : requests)
        sorted.push_back(req.unitName);
    std::sort(sorted.begin(), sorted.end());

    obs::ScopedEnable on;
    for (unsigned jobs : {1u, 4u}) {
        obs::Tracer::instance().clear();
        BatchOptions options;
        options.jobs = jobs;
        BatchResult result = compileBatch(requests, options);
        ASSERT_TRUE(result.allOk()) << "jobs=" << jobs;

        std::map<std::string, std::string> unit_by_rid;
        for (const auto &e : obs::Tracer::instance().events()) {
            if (e.name != "compile")
                continue;
            std::map<std::string, std::string> args(e.args.begin(),
                                                    e.args.end());
            EXPECT_TRUE(unit_by_rid
                            .emplace(args["rid"],
                                     args["isax"] + "@" + args["core"])
                            .second)
                << "rid " << args["rid"] << " compiled twice, jobs="
                << jobs;
        }
        ASSERT_EQ(unit_by_rid.size(), sorted.size()) << "jobs=" << jobs;
        for (size_t i = 0; i < sorted.size(); ++i)
            EXPECT_EQ(unit_by_rid["r" + std::to_string(i + 1)], sorted[i])
                << "jobs=" << jobs;
    }
    obs::Tracer::instance().clear();
}

TEST(Batch, WorkerSpansNestPerThreadAndCarryTheirUnitRid)
{
    // Every unit runs start to finish on one worker, so one thread's
    // spans nest or are disjoint, and every span inside a unit's
    // `compile` span belongs to that unit.
    obs::ScopedEnable on;
    obs::Tracer::instance().clear();
    BatchOptions options;
    options.jobs = 4;
    ASSERT_TRUE(compileBatch(smallBatch(), options).allOk());
    std::vector<obs::TraceEvent> events = obs::Tracer::instance().events();
    obs::Tracer::instance().clear();

    auto rid_of = [](const obs::TraceEvent &e) {
        for (const auto &[key, value] : e.args)
            if (key == "rid")
                return value;
        return std::string();
    };
    // Same tolerance as tests/obs/check_trace.py.
    constexpr double eps = 1e-6;
    auto inside = [](const obs::TraceEvent &inner,
                     const obs::TraceEvent &outer) {
        return inner.startUs >= outer.startUs - eps &&
               inner.startUs + inner.durUs <=
                   outer.startUs + outer.durUs + eps;
    };
    size_t compiles = 0;
    for (size_t a = 0; a < events.size(); ++a) {
        const obs::TraceEvent &x = events[a];
        if (x.name == "compile") {
            ++compiles;
            EXPECT_FALSE(rid_of(x).empty());
        }
        for (size_t b = a + 1; b < events.size(); ++b) {
            const obs::TraceEvent &y = events[b];
            if (x.tid != y.tid)
                continue;
            bool disjoint = y.startUs >= x.startUs + x.durUs - eps ||
                            x.startUs >= y.startUs + y.durUs - eps;
            EXPECT_TRUE(disjoint || inside(x, y) || inside(y, x))
                << "spans '" << x.name << "' and '" << y.name
                << "' partially overlap on thread " << x.tid;
            if (x.name == "compile" && inside(y, x)) {
                EXPECT_EQ(rid_of(y), rid_of(x)) << y.name;
            }
            if (y.name == "compile" && inside(x, y)) {
                EXPECT_EQ(rid_of(x), rid_of(y)) << x.name;
            }
        }
    }
    EXPECT_EQ(compiles, 4u);
}

TEST(Batch, FailedUnitKeepsDiagnosticsAndBatchContinues)
{
    std::vector<BatchRequest> requests = smallBatch();
    BatchRequest broken;
    broken.unitName = "broken@VexRiscv";
    broken.source = "InstructionSet Broken {";
    requests.push_back(broken);

    BatchOptions options;
    options.jobs = 4;
    BatchResult result = compileBatch(std::move(requests), options);
    ASSERT_EQ(result.units.size(), 5u);
    EXPECT_EQ(result.okCount(), 4u);
    EXPECT_FALSE(result.allOk());
    // Sorted order puts the broken unit first ('b' < 'z').
    EXPECT_EQ(result.units.front().unitName, "bitmanip@ORCA");
    const BatchUnitOutcome *broken_out = nullptr;
    for (const auto &unit : result.units)
        if (unit.unitName == "broken@VexRiscv")
            broken_out = &unit;
    ASSERT_NE(broken_out, nullptr);
    EXPECT_FALSE(broken_out->ok);
    EXPECT_FALSE(broken_out->summary.errorsText.empty());
}

// ---------------------------------------------------------------------------
// Content-addressed cache
// ---------------------------------------------------------------------------

TEST(Cache, KeyCoversInputClosure)
{
    const auto *entry = catalog::findIsax("zol");
    ASSERT_NE(entry, nullptr);
    CompileOptions options;
    std::string base = cacheKey(entry->source, entry->target, options);
    EXPECT_EQ(base.size(), 64u);
    EXPECT_EQ(base, cacheKey(entry->source, entry->target, options));

    EXPECT_NE(base,
              cacheKey(entry->source + " ", entry->target, options));
    EXPECT_NE(base, cacheKey(entry->source, "", options));

    CompileOptions changed = options;
    changed.coreName = "ORCA";
    EXPECT_NE(base, cacheKey(entry->source, entry->target, changed));
    changed = options;
    changed.cycleTimeNs = 99.0;
    EXPECT_NE(base, cacheKey(entry->source, entry->target, changed));
    changed = options;
    changed.warningsAsErrors = true;
    EXPECT_NE(base, cacheKey(entry->source, entry->target, changed));
    changed = options;
    changed.schedBudget.lpWorkLimit = 7;
    EXPECT_NE(base, cacheKey(entry->source, entry->target, changed));
}

TEST(Cache, HitMissStoreRoundTrip)
{
    std::string dir = scratchDir("roundtrip");
    BatchOptions options;
    options.cacheDir = dir;

    BatchResult cold = compileBatch(smallBatch(), options);
    EXPECT_EQ(cold.stats.cacheMisses, 4u);
    EXPECT_EQ(cold.stats.cacheHits, 0u);
    EXPECT_EQ(cold.stats.cacheStores, 4u);
    EXPECT_EQ(cacheEntryCount(dir), 4u);
    for (const auto &unit : cold.units)
        EXPECT_FALSE(unit.fromCache);

    BatchResult warm = compileBatch(smallBatch(), options);
    EXPECT_EQ(warm.stats.cacheHits, 4u);
    EXPECT_EQ(warm.stats.cacheMisses, 0u);
    EXPECT_EQ(warm.stats.cacheStores, 0u);
    for (const auto &unit : warm.units)
        EXPECT_TRUE(unit.fromCache);

    // A replayed unit is indistinguishable from a recompiled one.
    EXPECT_EQ(fingerprint(cold), fingerprint(warm));
}

TEST(Cache, SourceChangeInvalidates)
{
    std::string dir = scratchDir("invalidate");
    BatchOptions options;
    options.cacheDir = dir;
    compileBatch(smallBatch(), options);

    std::vector<BatchRequest> edited = smallBatch();
    for (auto &req : edited)
        req.source += "\n// edited\n";
    BatchResult result = compileBatch(std::move(edited), options);
    EXPECT_EQ(result.stats.cacheHits, 0u);
    EXPECT_EQ(result.stats.cacheMisses, 4u);

    std::vector<BatchRequest> retimed = smallBatch();
    for (auto &req : retimed)
        req.options.cycleTimeNs = 42.0;
    result = compileBatch(std::move(retimed), options);
    EXPECT_EQ(result.stats.cacheHits, 0u);
    EXPECT_EQ(result.stats.cacheMisses, 4u);
}

TEST(Cache, LruEvictionKeepsNewestEntries)
{
    std::string dir = scratchDir("evict");
    BatchOptions options;
    options.cacheDir = dir;
    options.cacheMaxEntries = 2;
    compileBatch(smallBatch(), options);
    EXPECT_EQ(cacheEntryCount(dir), 2u);
}

TEST(Cache, CorruptEntryFailsSoft)
{
    std::string dir = scratchDir("corrupt");
    BatchOptions options;
    options.cacheDir = dir;
    compileBatch(smallBatch(), options);

    // Garble every entry; the batch must recompile everything, warn
    // with LN3010, and still succeed.
    for (const auto &file : fs::directory_iterator(dir)) {
        std::ofstream out(file.path(), std::ios::trunc);
        out << "{\"isax\": this is not a cache entry\n";
    }
    BatchResult result = compileBatch(smallBatch(), options);
    EXPECT_TRUE(result.allOk());
    EXPECT_EQ(result.stats.cacheHits, 0u);
    EXPECT_EQ(result.stats.cacheMisses, 4u);
    EXPECT_EQ(result.stats.cacheCorrupt, 4u);
    for (const auto &unit : result.units) {
        EXPECT_FALSE(unit.fromCache);
        ASSERT_FALSE(unit.summary.diags.empty());
        EXPECT_EQ(unit.summary.diags.front().code, "LN3010");
    }

    // The recompiled entries were re-stored clean: a third run replays
    // them without the (run-local) LN3010 advisory.
    BatchResult replay = compileBatch(smallBatch(), options);
    EXPECT_EQ(replay.stats.cacheHits, 4u);
    for (const auto &unit : replay.units)
        for (const auto &diag : unit.summary.diags)
            EXPECT_NE(diag.code, "LN3010");
}

TEST(Cache, FailpointForcesMiss)
{
    std::string dir = scratchDir("failpoint");
    BatchOptions options;
    options.cacheDir = dir;
    options.jobs = 1; // failpoint state is process-global
    compileBatch(smallBatch(), options);

    {
        failpoint::Scoped scoped("cache", failpoint::Mode::Fail);
        BatchResult result = compileBatch(smallBatch(), options);
        EXPECT_TRUE(result.allOk());
        EXPECT_EQ(result.stats.cacheHits, 0u);
        EXPECT_EQ(result.stats.cacheMisses, 4u);
        for (const auto &unit : result.units) {
            EXPECT_FALSE(unit.fromCache);
            ASSERT_FALSE(unit.summary.diags.empty());
            EXPECT_EQ(unit.summary.diags.front().code, "LN3903");
        }
    }

    // Disarmed again: entries are intact and replay normally.
    BatchResult result = compileBatch(smallBatch(), options);
    EXPECT_EQ(result.stats.cacheHits, 4u);
}

TEST(Cache, HugeIntegerEntryIsCorrupt)
{
    std::string dir = scratchDir("hugeint");
    const auto *entry = catalog::findIsax("zol");
    ASSERT_NE(entry, nullptr);
    CompileOptions options;
    std::string key = cacheKey(entry->source, entry->target, options);
    CompileSummary summary = summarize(compileCatalogIsax("zol", options));
    ASSERT_TRUE(summary.ok) << summary.errorsText;
    {
        // 2^64 - 1 reads back as the double 2^64, one past the range of
        // lpWorkUnits: the entry must classify as corrupt instead of
        // wrapping to some other count.
        json::Value doc = toJson(summary);
        doc.set("lpWorkUnits", std::numeric_limits<uint64_t>::max());
        std::ofstream out(dir + "/" + key + ".lnc", std::ios::binary);
        out << doc.emit();
    }
    CompileSummary out;
    EXPECT_EQ(cacheLoad(dir, key, out), CacheLookup::Corrupt);
}

TEST(Cache, EntryIsTheSummaryJsonDocument)
{
    std::string dir = scratchDir("jsonentry");
    CompileSummary summary = summarize(compileCatalogIsax("zol"));
    ASSERT_TRUE(summary.ok) << summary.errorsText;
    ASSERT_TRUE(cacheStore(dir, "entry", summary));
    std::ifstream in(dir + "/entry.lnc", std::ios::binary);
    std::stringstream bytes;
    bytes << in.rdbuf();
    EXPECT_EQ(bytes.str(), toJson(summary).emit());
}

TEST(Cache, FaultInjectionBypassesCache)
{
    std::string dir = scratchDir("faultbypass");
    BatchOptions options;
    options.cacheDir = dir;
    options.jobs = 1; // failpoint state is process-global

    std::string clean = fingerprint(compileBatch(smallBatch(), options));
    ASSERT_EQ(cacheEntryCount(dir), 4u);

    {
        // With a scheduler failpoint armed, compiles succeed fail-soft
        // with degraded fallback artifacts. Those must neither be
        // served from the clean cache nor stored under the clean key.
        failpoint::Scoped scoped("sched-optimal",
                                 failpoint::Mode::Fail);
        BatchResult injected = compileBatch(smallBatch(), options);
        EXPECT_TRUE(injected.allOk());
        EXPECT_EQ(injected.stats.cacheHits, 0u);
        EXPECT_EQ(injected.stats.cacheStores, 0u);
        for (const auto &unit : injected.units)
            EXPECT_FALSE(unit.fromCache);
        EXPECT_NE(fingerprint(injected), clean);
    }

    // The clean entries survived untouched and replay clean artifacts.
    EXPECT_EQ(cacheEntryCount(dir), 4u);
    BatchResult warm = compileBatch(smallBatch(), options);
    EXPECT_EQ(warm.stats.cacheHits, 4u);
    EXPECT_EQ(fingerprint(warm), clean);
}

// ---------------------------------------------------------------------------
// Cooperative cancellation (docs/compile-server.md)
// ---------------------------------------------------------------------------

TEST(Cancel, PreCancelledTokenFailsSoftWithLN3011)
{
    const auto *entry = catalog::findIsax("autoinc");
    ASSERT_NE(entry, nullptr);
    CancelToken token;
    token.cancel();
    CompileOptions options;
    options.cancel = &token;
    CompiledIsax result = compile(entry->source, entry->target, options);
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.errors.find("LN3011"), std::string::npos);
    EXPECT_NE(result.errors.find("cancelled"), std::string::npos);
}

TEST(Cancel, ExpiredDeadlineReportsDeadlineExceeded)
{
    const auto *entry = catalog::findIsax("autoinc");
    ASSERT_NE(entry, nullptr);
    CancelToken token;
    token.setDeadlineAfterMs(0);
    CompileOptions options;
    options.cancel = &token;
    CompiledIsax result = compile(entry->source, entry->target, options);
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.errors.find("LN3011"), std::string::npos);
    EXPECT_NE(result.errors.find("deadline exceeded"),
              std::string::npos);
}

TEST(Cancel, BatchCancelSettlesEveryUnitWithLN3011)
{
    CancelToken token;
    token.cancel();
    BatchOptions options;
    options.jobs = 2;
    options.cancel = &token;
    BatchResult result = compileBatch(smallBatch(), options);
    ASSERT_EQ(result.units.size(), 4u);
    for (const auto &unit : result.units) {
        EXPECT_FALSE(unit.ok) << unit.unitName;
        EXPECT_NE(unit.summary.errorsText.find("LN3011"),
                  std::string::npos)
            << unit.unitName;
    }
}
