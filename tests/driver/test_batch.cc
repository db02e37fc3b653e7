/**
 * @file
 * Tests for parallel batch compilation (docs/batch-compilation.md):
 * the work-stealing thread pool, jobs-count determinism, the
 * content-addressed artifact cache (hit/miss/invalidation, fail-soft
 * corruption handling, the `cache` failpoint), and the LP warm-start
 * used on the scheduler fallback path.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "driver/batch.hh"
#include "driver/isax_catalog.hh"
#include "sched/lpsolver.hh"
#include "sched/scheduler.hh"
#include "support/failpoint.hh"
#include "support/threadpool.hh"

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
// Thread pool
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsEveryTask)
{
    ThreadPool pool(4);
    std::atomic<int> sum{0};
    for (int i = 0; i < 1000; ++i)
        pool.submit([&sum, i] { sum.fetch_add(i); });
    pool.wait();
    EXPECT_EQ(sum.load(), 999 * 1000 / 2);
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int round = 0; round < 5; ++round) {
        for (int i = 0; i < 50; ++i)
            pool.submit([&count] { count.fetch_add(1); });
        pool.wait();
        EXPECT_EQ(count.load(), (round + 1) * 50);
    }
}

TEST(ThreadPool, TasksMaySubmitTasks)
{
    ThreadPool pool(3);
    std::atomic<int> count{0};
    for (int i = 0; i < 20; ++i)
        pool.submit([&pool, &count] {
            count.fetch_add(1);
            pool.submit([&count] { count.fetch_add(1); });
        });
    // wait() covers tasks spawned by tasks: outstanding_ is bumped
    // before the child is queued.
    pool.wait();
    EXPECT_EQ(count.load(), 40);
}

TEST(ThreadPool, SingleTaskSubmitWaitNeverHangs)
{
    // Regression: submit() used to publish the wake-up generation
    // before enqueuing the task, so a worker could observe the new
    // generation, miss the task on its scan, and sleep through the
    // notify -- hanging wait() forever. A lone task per round is the
    // worst case (no second submit to rescue the sleeper).
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int round = 0; round < 2000; ++round) {
        pool.submit([&count] { count.fetch_add(1); });
        pool.wait();
    }
    EXPECT_EQ(count.load(), 2000);
}

TEST(ThreadPool, SwallowsExceptions)
{
    ThreadPool pool(2);
    std::atomic<int> after{0};
    for (int i = 0; i < 10; ++i)
        pool.submit([] { throw std::runtime_error("boom"); });
    pool.submit([&after] { after.store(1); });
    pool.wait();
    EXPECT_EQ(after.load(), 1);
}

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
// Shared input memoization
// ---------------------------------------------------------------------------

TEST(SharedInputs, MemoizesDatasheetAndTechlib)
{
    SharedInputs shared;
    auto a = shared.datasheetFor("VexRiscv");
    auto b = shared.datasheetFor("VexRiscv");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(shared.datasheetFor("no-such-core"), nullptr);

    auto t1 = shared.techlibFor(sched::TimingMode::Uniform);
    auto t2 = shared.techlibFor(sched::TimingMode::Uniform);
    auto t3 = shared.techlibFor(sched::TimingMode::Library);
    EXPECT_EQ(t1.get(), t2.get());
    EXPECT_NE(t1.get(), t3.get());
}

// ---------------------------------------------------------------------------
// LP warm-starts
// ---------------------------------------------------------------------------

TEST(WarmStart, FeasibleHintSkipsBellmanFord)
{
    // t1 >= t0 + 2, t2 >= t1 + 3, minimize the sum.
    sched::DifferenceLP lp(3);
    lp.weights = {1, 1, 1};
    lp.addConstraint(0, 1, 2);
    lp.addConstraint(1, 2, 3);

    sched::LPResult cold = sched::solveDifferenceLP(lp);
    ASSERT_EQ(cold.status, sched::LPResult::Status::Optimal);
    EXPECT_FALSE(cold.warmStarted);
    ASSERT_EQ(cold.feasiblePoint.size(), 3u);

    sched::LPResult warm =
        sched::solveDifferenceLP(lp, 0, &cold.feasiblePoint);
    ASSERT_EQ(warm.status, sched::LPResult::Status::Optimal);
    EXPECT_TRUE(warm.warmStarted);
    EXPECT_EQ(warm.values, cold.values);
    EXPECT_EQ(warm.objective, cold.objective);
    // Validating the hint costs one work unit and replaces the
    // Bellman-Ford feasibility pass.
    EXPECT_LT(warm.workUnits, cold.workUnits);
}

TEST(WarmStart, InfeasibleHintIsIgnored)
{
    sched::DifferenceLP lp(2);
    lp.weights = {1, 1};
    lp.addConstraint(0, 1, 5);

    std::vector<int> bogus = {0, 0}; // violates t1 >= t0 + 5
    sched::LPResult r = sched::solveDifferenceLP(lp, 0, &bogus);
    ASSERT_EQ(r.status, sched::LPResult::Status::Optimal);
    EXPECT_FALSE(r.warmStarted);
    EXPECT_EQ(r.values[1] - r.values[0], 5);

    std::vector<int> wrong_size = {0};
    r = sched::solveDifferenceLP(lp, 0, &wrong_size);
    ASSERT_EQ(r.status, sched::LPResult::Status::Optimal);
    EXPECT_FALSE(r.warmStarted);
}

TEST(WarmStart, AsapLPMatchesListAsap)
{
    using namespace longnail::sched;
    auto build = [] {
        LongnailProblem p;
        unsigned src = p.addOperatorType({"src", 0, 0, 0, 0,
                                          noUpperBound});
        unsigned mid = p.addOperatorType({"mid", 2, 0, 0, 0,
                                          noUpperBound});
        unsigned snk = p.addOperatorType({"snk", 1, 0, 0, 1,
                                          noUpperBound});
        unsigned a = p.addOperation({"a", src, {}, {}});
        unsigned b = p.addOperation({"b", mid, {}, {}});
        unsigned c = p.addOperation({"c", mid, {}, {}});
        unsigned d = p.addOperation({"d", snk, {}, {}});
        p.addDependence(a, b);
        p.addDependence(a, c);
        p.addDependence(b, d);
        p.addDependence(c, d);
        return p;
    };

    LongnailProblem list = build();
    ASSERT_EQ(scheduleAsap(list), "");
    LongnailProblem lp = build();
    ASSERT_EQ(scheduleAsapLP(lp), "");
    for (size_t i = 0; i < list.numOperations(); ++i)
        EXPECT_EQ(list.operation(i).startTime, lp.operation(i).startTime)
            << "operation " << i;

    // Warm-started from the optimal attempt's feasible point, the LP
    // path still lands on the identical least solution.
    LongnailProblem opt = build();
    std::vector<int> warm;
    ASSERT_EQ(scheduleOptimal(opt, 0, nullptr, &warm), "");
    ASSERT_FALSE(warm.empty());
    LongnailProblem warmed = build();
    ASSERT_EQ(scheduleAsapLP(warmed, true, &warm), "");
    for (size_t i = 0; i < list.numOperations(); ++i)
        EXPECT_EQ(list.operation(i).startTime,
                  warmed.operation(i).startTime)
            << "operation " << i;
}

// ---------------------------------------------------------------------------
// Pool drain & cooperative cancellation (docs/compile-server.md)
// ---------------------------------------------------------------------------

TEST(ThreadPool, DrainRunsQueuedTasksThenRejectsSubmits)
{
    ThreadPool pool(1);
    std::atomic<bool> release{false};
    std::atomic<int> ran{0};
    // The blocker pins the sole worker so the follow-up tasks are
    // still queued when drain() starts.
    ASSERT_TRUE(pool.submit([&] {
        while (!release.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }));
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(pool.submit([&] { ran.fetch_add(1); }));

    std::thread releaser([&] {
        while (!pool.draining())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        release.store(true);
    });
    size_t discarded = pool.drain(ThreadPool::DrainPolicy::RunQueued);
    releaser.join();

    EXPECT_EQ(discarded, 0u);
    EXPECT_EQ(ran.load(), 8);
    EXPECT_TRUE(pool.draining());
    EXPECT_FALSE(pool.submit([&] { ran.fetch_add(1); }));
    EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, DrainDiscardsQueuedTasksDeterministically)
{
    ThreadPool pool(1);
    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    std::atomic<int> ran{0};
    ASSERT_TRUE(pool.submit([&] {
        started.store(true);
        while (!release.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }));
    // Only queue the victims once the blocker is actually running, so
    // the worker is pinned and the sweep sees exactly 8 queued tasks.
    while (!started.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(pool.submit([&] { ran.fetch_add(1); }));

    std::thread releaser([&] {
        while (!pool.draining())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        release.store(true);
    });
    size_t discarded =
        pool.drain(ThreadPool::DrainPolicy::DiscardQueued);
    releaser.join();

    EXPECT_EQ(discarded, 8u);
    EXPECT_EQ(ran.load(), 0);
    // Idempotent: a second drain has nothing left to discard.
    EXPECT_EQ(pool.drain(ThreadPool::DrainPolicy::DiscardQueued), 0u);
}

TEST(ThreadPool, TaskSpawningTasksDuringDrainDoesNotHang)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    // A self-perpetuating chain: each run resubmits itself until the
    // pool starts draining and rejects the resubmit. drain() must
    // terminate even though running tasks keep trying to spawn work.
    auto chain = std::make_shared<std::function<void()>>();
    *chain = [&pool, &ran, chain] {
        ran.fetch_add(1);
        (void)pool.submit(*chain);
    };
    ASSERT_TRUE(pool.submit(*chain));
    while (ran.load() < 10)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    pool.drain(ThreadPool::DrainPolicy::RunQueued);
    int settled = ran.load();
    EXPECT_GE(settled, 10);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    // Nothing runs after drain() returned.
    EXPECT_EQ(ran.load(), settled);
}

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
