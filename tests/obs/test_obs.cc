/**
 * @file
 * Tests for the observability layer (docs/observability.md): span
 * nesting and JSON export, metrics registry semantics and determinism,
 * the per-compile PhaseReport, and the bench record round trip.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "bench/report.hh"
#include "driver/longnail.hh"
#include "obs/flightrec.hh"
#include "obs/log.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "support/json.hh"

using namespace longnail;

namespace {

/** Fresh global obs state for one test. */
struct ObsFixture : ::testing::Test
{
    void
    SetUp() override
    {
        obs::Tracer::instance().clear();
        obs::Registry::instance().clear();
    }
    void
    TearDown() override
    {
        obs::setEnabled(false);
        obs::Tracer::instance().clear();
        obs::Registry::instance().clear();
    }
};

using ObsTraceTest = ObsFixture;
using ObsMetricsTest = ObsFixture;
using ObsReportTest = ObsFixture;
using ObsBenchTest = ObsFixture;

TEST_F(ObsTraceTest, DisabledSpansRecordNothing)
{
    ASSERT_FALSE(obs::enabled());
    {
        obs::TraceSpan span("ghost");
        EXPECT_FALSE(span.active());
        span.arg("key", "value"); // must be a harmless no-op
    }
    EXPECT_TRUE(obs::Tracer::instance().events().empty());
}

TEST_F(ObsTraceTest, SpansNestAndRecordChildrenFirst)
{
    obs::ScopedEnable on;
    {
        obs::TraceSpan outer("outer");
        EXPECT_TRUE(outer.active());
        {
            obs::TraceSpan mid("mid");
            obs::TraceSpan inner("inner");
            (void)mid;
            (void)inner;
        }
    }
    auto events = obs::Tracer::instance().events();
    ASSERT_EQ(events.size(), 3u);
    // Children complete (and record) before their parents.
    EXPECT_EQ(events[0].name, "inner");
    EXPECT_EQ(events[1].name, "mid");
    EXPECT_EQ(events[2].name, "outer");
    EXPECT_EQ(events[0].depth, 2);
    EXPECT_EQ(events[1].depth, 1);
    EXPECT_EQ(events[2].depth, 0);
    // Containment: the outer interval covers both children.
    const auto &outer = events[2];
    for (int i = 0; i < 2; ++i) {
        EXPECT_GE(events[i].startUs, outer.startUs);
        EXPECT_LE(events[i].startUs + events[i].durUs,
                  outer.startUs + outer.durUs);
    }
    // All on the same (first) tracing thread.
    EXPECT_EQ(events[0].tid, events[2].tid);
}

TEST_F(ObsTraceTest, SpansCarryTheInnermostRequestScopeRid)
{
    obs::ScopedEnable on;
    EXPECT_EQ(obs::currentRid(), "");
    {
        obs::RequestScope outer("s1");
        {
            obs::RequestScope inner("s2");
            EXPECT_EQ(obs::currentRid(), "s2");
            obs::TraceSpan span("in.inner");
        }
        EXPECT_EQ(obs::currentRid(), "s1");
        obs::TraceSpan span("in.outer");
        std::thread other([] {
            // The rid is per thread: a new thread starts outside any
            // scope.
            EXPECT_EQ(obs::currentRid(), "");
            obs::TraceSpan span("other.thread");
        });
        other.join();
    }
    EXPECT_EQ(obs::currentRid(), "");
    {
        obs::TraceSpan span("after");
    }

    std::map<std::string, std::string> rid_by_span;
    for (const auto &e : obs::Tracer::instance().events()) {
        std::string rid;
        for (const auto &[key, value] : e.args)
            if (key == "rid")
                rid = value;
        rid_by_span[e.name] = rid;
    }
    ASSERT_EQ(rid_by_span.size(), 4u);
    EXPECT_EQ(rid_by_span.at("in.inner"), "s2");
    EXPECT_EQ(rid_by_span.at("in.outer"), "s1");
    EXPECT_EQ(rid_by_span.at("other.thread"), "");
    EXPECT_EQ(rid_by_span.at("after"), "");
}

TEST_F(ObsTraceTest, EscapeJsonHandlesSpecialCharacters)
{
    EXPECT_EQ(json::escape("plain"), "plain");
    EXPECT_EQ(json::escape("a\"b"), "a\\\"b");
    EXPECT_EQ(json::escape("a\\b"), "a\\\\b");
    EXPECT_EQ(json::escape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(json::escape("\r\b\f"), "\\r\\b\\f");
    EXPECT_EQ(json::escape(std::string(1, '\x01')), "\\u0001");
    EXPECT_EQ(json::escape(std::string(1, '\x1f')), "\\u001f");
}

TEST_F(ObsTraceTest, ChromeJsonEscapesNamesAndArgs)
{
    obs::ScopedEnable on;
    {
        obs::TraceSpan span("weird \"name\"");
        span.arg("note", "line1\nline2");
    }
    std::string json = obs::Tracer::instance().toChromeJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("weird \\\"name\\\""), std::string::npos);
    EXPECT_NE(json.find("line1\\nline2"), std::string::npos);
    // No raw control characters may survive into the document.
    for (char c : json)
        EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20)
            << "raw control character in JSON output";
}

TEST_F(ObsMetricsTest, CountersGaugesHistograms)
{
    obs::ScopedEnable on;
    obs::count("c.a");
    obs::count("c.a", 4);
    obs::gauge("g.x", 2.5);
    obs::gauge("g.x", 1.5);    // last write wins
    obs::gaugeMax("g.m", 3.0);
    obs::gaugeMax("g.m", 2.0); // max retained
    obs::observe("h.t", 1.0);
    obs::observe("h.t", 3.0);

    auto &reg = obs::Registry::instance();
    EXPECT_EQ(reg.counter("c.a"), 5u);
    EXPECT_EQ(reg.counter("c.missing"), 0u);
    EXPECT_DOUBLE_EQ(reg.gauges().at("g.x"), 1.5);
    EXPECT_DOUBLE_EQ(reg.gauges().at("g.m"), 3.0);
    auto h = reg.histograms().at("h.t");
    EXPECT_EQ(h.count, 2u);
    EXPECT_DOUBLE_EQ(h.sum, 4.0);
    EXPECT_DOUBLE_EQ(h.min, 1.0);
    EXPECT_DOUBLE_EQ(h.max, 3.0);
    EXPECT_DOUBLE_EQ(h.mean(), 2.0);

    reg.clear();
    EXPECT_TRUE(reg.counters().empty());
    EXPECT_TRUE(reg.gauges().empty());
    EXPECT_TRUE(reg.histograms().empty());
}

TEST_F(ObsMetricsTest, DisabledHelpersRecordNothing)
{
    ASSERT_FALSE(obs::enabled());
    obs::count("c.off");
    obs::gauge("g.off", 1.0);
    obs::observe("h.off", 1.0);
    EXPECT_TRUE(obs::Registry::instance().counters().empty());
    EXPECT_TRUE(obs::Registry::instance().gauges().empty());
    EXPECT_TRUE(obs::Registry::instance().histograms().empty());
}

TEST_F(ObsMetricsTest, YamlDumpIsSortedAndParsable)
{
    obs::ScopedEnable on;
    obs::count("b.second", 2);
    obs::count("a.first", 1);
    obs::gauge("g.v", 4.5);
    obs::observe("h.t", 2.0);
    std::string yaml = obs::Registry::instance().toYaml();
    EXPECT_NE(yaml.find("counters:\n  a.first: 1\n  b.second: 2\n"),
              std::string::npos);
    EXPECT_NE(yaml.find("gauges:\n  g.v: 4.5\n"), std::string::npos);
    EXPECT_NE(yaml.find("h.t: {count: 1, sum: 2, min: 2, max: 2, "
                        "mean: 2, p50: 2, p95: 2, p99: 2}"),
              std::string::npos);
}

/** Counters of one zol compile with a cleared registry. */
std::map<std::string, uint64_t>
compileZolCounters()
{
    obs::Registry::instance().clear();
    driver::CompileOptions options;
    options.coreName = "VexRiscv";
    driver::CompiledIsax compiled =
        driver::compileCatalogIsax("zol", options);
    EXPECT_TRUE(compiled.ok()) << compiled.errors;
    return obs::Registry::instance().counters();
}

TEST_F(ObsMetricsTest, CompileCountersAreDeterministic)
{
    obs::ScopedEnable on;
    auto first = compileZolCounters();
    auto second = compileZolCounters();
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

TEST_F(ObsMetricsTest, GoldenStatsForCatalogIsax)
{
    obs::ScopedEnable on;
    auto counters = compileZolCounters();
    // zol compiles to two units (setup + the always block), each solved
    // optimally; all of Fig. 9 is represented in the registry.
    EXPECT_EQ(counters.at("driver.compiles"), 1u);
    EXPECT_EQ(counters.at("sched.lp_solves"), 2u);
    EXPECT_EQ(counters.at("sched.quality.optimal"), 2u);
    EXPECT_EQ(counters.at("sched.fallback_events"), 0u);
    EXPECT_EQ(counters.at("hwgen.modules"), 2u);
    EXPECT_GT(counters.at("sched.lp_iterations"), 0u);
    EXPECT_GT(counters.at("sched.budget_consumed"), 0u);
    EXPECT_GT(counters.at("hwgen.interface_ports"), 0u);
    EXPECT_GT(counters.at("ir.nodes.hir.coredsl"), 0u);
    EXPECT_GT(counters.at("ir.nodes.lil.lil"), 0u);

    // The YAML dump must carry the headline counters verbatim.
    std::string yaml = obs::Registry::instance().toYaml();
    EXPECT_NE(yaml.find("sched.lp_iterations: "), std::string::npos);
    EXPECT_NE(yaml.find("sched.fallback_events: 0"), std::string::npos);
}

TEST_F(ObsReportTest, PhaseReportPopulatedWithoutGlobalObs)
{
    ASSERT_FALSE(obs::enabled());
    driver::CompileOptions options;
    options.coreName = "VexRiscv";
    driver::CompiledIsax compiled =
        driver::compileCatalogIsax("zol", options);
    ASSERT_TRUE(compiled.ok()) << compiled.errors;

    const driver::PhaseReport &report = compiled.report;
    // Phase entries in pipeline order, merged per phase name.
    ASSERT_GE(report.phases.size(), 7u);
    EXPECT_EQ(report.phases.front().name, "sema");
    for (const char *phase :
         {"sema", "astlower", "analysis", "canonicalize", "lil",
          "sched", "hwgen", "scaiev-config"})
        EXPECT_NE(report.findPhase(phase), nullptr)
            << "missing phase " << phase;
    EXPECT_EQ(report.findPhase("nonexistent"), nullptr);
    EXPECT_GT(report.totalWallMs(), 0.0);

    EXPECT_GT(report.hirOps, 0u);
    EXPECT_GT(report.lilOps, 0u);
    EXPECT_FALSE(report.hirOpsByDialect.empty());
    EXPECT_FALSE(report.lilOpsByDialect.empty());

    // Satellite: the chosen scheduler and its budget consumption are
    // part of the compile result.
    EXPECT_EQ(report.chosenScheduler, "optimal");
    EXPECT_GT(report.lpWorkUnits, 0u);
    EXPECT_EQ(report.fallbackEvents, 0u);
    for (const auto &unit : compiled.units) {
        EXPECT_EQ(unit.quality, sched::ScheduleQuality::Optimal);
        EXPECT_GT(unit.lpWorkUnits, 0u);
    }
}

TEST_F(ObsReportTest, CompileCountersReachTheRegistryWhenEnabled)
{
    obs::ScopedEnable on;
    driver::CompileOptions options;
    options.coreName = "VexRiscv";
    driver::CompiledIsax compiled =
        driver::compileCatalogIsax("zol", options);
    ASSERT_TRUE(compiled.ok()) << compiled.errors;
    // SetUp cleared the registry, so it holds this compile's counts.
    EXPECT_EQ(obs::Registry::instance().counter("sched.lp_solves"), 2u);
}

TEST_F(ObsReportTest, PhaseReportAddTimeMergesByName)
{
    driver::PhaseReport report;
    report.addTime("analysis", 1.0);
    report.addTime("sched", 2.0);
    report.addTime("analysis", 0.5);
    ASSERT_EQ(report.phases.size(), 2u);
    EXPECT_DOUBLE_EQ(report.findPhase("analysis")->wallMs, 1.5);
    EXPECT_DOUBLE_EQ(report.totalWallMs(), 3.5);
}

TEST_F(ObsBenchTest, RecordRoundTripsThroughJsonWriter)
{
    bench::Record record{"unit", "dotp/VexRiscv", "makespan", 3.25,
                         "stages", "abc1234"};
    std::string line = bench::renderRecordLine(record);
    bench::Record parsed;
    ASSERT_TRUE(bench::parseRecordLine(line, parsed)) << line;
    EXPECT_EQ(parsed.bench, record.bench);
    EXPECT_EQ(parsed.name, record.name);
    EXPECT_EQ(parsed.metric, record.metric);
    EXPECT_DOUBLE_EQ(parsed.value, record.value);
    EXPECT_EQ(parsed.unit, record.unit);
    EXPECT_EQ(parsed.commit, record.commit);

    // Escaping round-trips too.
    bench::Record odd{"unit", "name \"q\"", "metric", -1.5, "u", "c"};
    bench::Record odd_parsed;
    ASSERT_TRUE(bench::parseRecordLine(bench::renderRecordLine(odd),
                                       odd_parsed));
    EXPECT_EQ(odd_parsed.name, odd.name);
    EXPECT_DOUBLE_EQ(odd_parsed.value, -1.5);
}

TEST_F(ObsBenchTest, WriterWritesJsonLinesFile)
{
    std::string path = ::testing::TempDir() + "/ln_bench_report.json";
    ::setenv("LONGNAIL_BENCH_REPORT", path.c_str(), 1);
    ::setenv("LONGNAIL_COMMIT", "deadbee", 1);
    std::remove(path.c_str());
    {
        bench::ReportWriter writer("unit");
        writer.add("point", "metric", 42.0, "count");
        EXPECT_EQ(writer.path(), path);
    } // destructor flushes
    ::unsetenv("LONGNAIL_BENCH_REPORT");
    ::unsetenv("LONGNAIL_COMMIT");

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    bench::Record parsed;
    ASSERT_TRUE(bench::parseRecordLine(line, parsed)) << line;
    EXPECT_EQ(parsed.bench, "unit");
    EXPECT_EQ(parsed.name, "point");
    EXPECT_DOUBLE_EQ(parsed.value, 42.0);
    EXPECT_EQ(parsed.commit, "deadbee");
    EXPECT_FALSE(std::getline(in, line)); // exactly one record
    std::remove(path.c_str());
}

} // namespace

TEST_F(ObsMetricsTest, JsonDumpIsParsableAndComplete)
{
    obs::ScopedEnable on;
    obs::count("serve.requests", 3);
    obs::gauge("pool.jobs", 2.0);
    obs::observe("driver.compile_ms", 1.0);
    obs::observe("driver.compile_ms", 5.0);

    std::string text = obs::Registry::instance().toJson();
    std::string error;
    auto doc = json::parse(text, &error);
    ASSERT_TRUE(doc) << error << "\n" << text;
    const json::Value *counters = doc->find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_DOUBLE_EQ(counters->getNumber("serve.requests"), 3.0);
    const json::Value *gauges = doc->find("gauges");
    ASSERT_NE(gauges, nullptr);
    EXPECT_DOUBLE_EQ(gauges->getNumber("pool.jobs"), 2.0);
    const json::Value *hists = doc->find("histograms");
    ASSERT_NE(hists, nullptr);
    const json::Value *h = hists->find("driver.compile_ms");
    ASSERT_NE(h, nullptr);
    EXPECT_DOUBLE_EQ(h->getNumber("count"), 2.0);
    EXPECT_DOUBLE_EQ(h->getNumber("sum"), 6.0);
    EXPECT_DOUBLE_EQ(h->getNumber("mean"), 3.0);
    EXPECT_DOUBLE_EQ(h->getNumber("p50"), 1.0);
    EXPECT_DOUBLE_EQ(h->getNumber("p95"), 5.0);
    EXPECT_DOUBLE_EQ(h->getNumber("p99"), 5.0);
}

TEST_F(ObsMetricsTest, QuantilesUseNearestRank)
{
    obs::ScopedEnable on;
    // 1..100: nearest-rank p50 = 50th value, p95 = 95th, p99 = 99th.
    // Observed deliberately out of order -- quantile() must sort.
    for (int v = 100; v >= 1; --v)
        obs::observe("h.q", double(v));
    // histograms() returns a snapshot by value; keep it alive.
    auto hists = obs::Registry::instance().histograms();
    const auto &h = hists.at("h.q");
    EXPECT_DOUBLE_EQ(h.quantile(0.50), 50.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.95), 95.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 99.0);
    // Degenerate probabilities clamp to min/max sample.
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
    EXPECT_DOUBLE_EQ(h.quantile(-3.0), 1.0);
    EXPECT_DOUBLE_EQ(h.quantile(7.0), 100.0);

    // A single sample answers every quantile.
    obs::observe("h.one", 42.0);
    hists = obs::Registry::instance().histograms();
    const auto &one = hists.at("h.one");
    EXPECT_DOUBLE_EQ(one.quantile(0.5), 42.0);
    EXPECT_DOUBLE_EQ(one.quantile(0.99), 42.0);

    // An empty histogram reports 0 rather than reading past the end.
    obs::HistogramStats empty;
    EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
}

TEST_F(ObsMetricsTest, SampleReservoirIsCapped)
{
    obs::ScopedEnable on;
    for (size_t i = 0; i < obs::HistogramStats::sampleCapacity + 100;
         ++i)
        obs::observe("h.cap", double(i));
    auto hists = obs::Registry::instance().histograms();
    const auto &h = hists.at("h.cap");
    EXPECT_EQ(h.count, obs::HistogramStats::sampleCapacity + 100);
    EXPECT_EQ(h.samples.size(), obs::HistogramStats::sampleCapacity);
    // min/max/sum still track every observation past the cap.
    EXPECT_DOUBLE_EQ(
        h.max, double(obs::HistogramStats::sampleCapacity + 99));
}

TEST_F(ObsMetricsTest, JsonDumpEscapesHostileNames)
{
    obs::ScopedEnable on;
    obs::count("evil\"name\\with\ncontrol");
    obs::gauge("g\"\t", 1.0);
    obs::observe("h\x01:end", 2.0);

    std::string text = obs::Registry::instance().toJson();
    std::string error;
    auto doc = json::parse(text, &error);
    ASSERT_TRUE(doc) << error << "\n" << text;
    const json::Value *counters = doc->find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_DOUBLE_EQ(
        counters->getNumber("evil\"name\\with\ncontrol"), 1.0);
    // No raw control characters may survive into the document.
    for (char c : text)
        EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20)
            << "raw control character in JSON output";
}

TEST_F(ObsMetricsTest, ConcurrentEmissionIsRaceFree)
{
    obs::ScopedEnable on;
    // Hammer one counter and one histogram from several threads while
    // another thread repeatedly renders every export format. Run under
    // tsan (preset: tsan) this pins down the registry locking.
    std::atomic<bool> stop{false};
    std::thread reader([&] {
        while (!stop.load()) {
            (void)obs::Registry::instance().toJson();
            (void)obs::Registry::instance().toYaml();
            (void)obs::Registry::instance().toPrometheus();
        }
    });
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t)
        writers.emplace_back([] {
            for (int i = 0; i < 500; ++i) {
                obs::count("conc.c");
                obs::observe("conc.h", double(i));
                obs::gauge("conc.g", double(i));
            }
        });
    for (auto &w : writers)
        w.join();
    stop.store(true);
    reader.join();

    auto &reg = obs::Registry::instance();
    EXPECT_EQ(reg.counter("conc.c"), 2000u);
    EXPECT_EQ(reg.histograms().at("conc.h").count, 2000u);
}

TEST_F(ObsMetricsTest, PrometheusExpositionFormat)
{
    obs::ScopedEnable on;
    obs::count("serve.requests", 3);
    obs::gauge("pool.jobs", 2.0);
    obs::observe("serve.request_ms", 1.0);
    obs::observe("serve.request_ms", 5.0);

    std::string text = obs::Registry::instance().toPrometheus();
    // Counters: TYPE line plus a _total sample.
    EXPECT_NE(
        text.find("# TYPE longnail_serve_requests_total counter\n"
                  "longnail_serve_requests_total 3\n"),
        std::string::npos);
    // Gauges.
    EXPECT_NE(text.find("# TYPE longnail_pool_jobs gauge\n"
                        "longnail_pool_jobs 2"),
              std::string::npos);
    // Histograms exported as summaries with quantile labels.
    EXPECT_NE(
        text.find("# TYPE longnail_serve_request_ms summary\n"),
        std::string::npos);
    EXPECT_NE(
        text.find("longnail_serve_request_ms{quantile=\"0.5\"} 1"),
        std::string::npos);
    EXPECT_NE(
        text.find("longnail_serve_request_ms{quantile=\"0.99\"} 5"),
        std::string::npos);
    EXPECT_NE(text.find("longnail_serve_request_ms_sum 6"),
              std::string::npos);
    EXPECT_NE(text.find("longnail_serve_request_ms_count 2"),
              std::string::npos);
    // Exposition text must end with a newline (text-format rule).
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.back(), '\n');

    // Hostile metric names are sanitized to the allowed charset.
    obs::count("weird name{v=\"1\"}");
    text = obs::Registry::instance().toPrometheus();
    EXPECT_NE(text.find("longnail_weird_name_v__1___total 1"),
              std::string::npos);
    for (size_t i = text.find("longnail_weird");
         i < text.size() && text[i] != ' '; ++i) {
        char c = text[i];
        EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':')
            << "unsanitized character in metric name";
    }
}

// ---------------------------------------------------------------------------
// Structured event log (--log)
// ---------------------------------------------------------------------------

namespace {

/** Event-log fixture: a fresh temp log per test, closed on teardown so
 * later tests see an inactive log. */
struct ObsLogTest : ObsFixture
{
    std::string path;

    void
    SetUp() override
    {
        ObsFixture::SetUp();
        path = ::testing::TempDir() + "/ln_eventlog_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name() +
               ".jsonl";
        std::remove(path.c_str());
    }
    void
    TearDown() override
    {
        obs::EventLog::instance().close();
        obs::EventLog::instance().setRateLimit(1000);
        obs::EventLog::instance().setLevel(obs::LogLevel::Info);
        std::remove(path.c_str());
        ObsFixture::TearDown();
    }

    std::vector<std::string>
    lines() const
    {
        std::vector<std::string> out;
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line))
            out.push_back(line);
        return out;
    }
};

} // namespace

TEST_F(ObsLogTest, InactiveByDefaultAndWritesJsonlWhenOpen)
{
    auto &log = obs::EventLog::instance();
    ASSERT_FALSE(log.active());
    obs::logEvent(obs::LogLevel::Info, "dropped.before.open");

    std::string error;
    ASSERT_TRUE(log.open(path, error)) << error;
    EXPECT_TRUE(log.active());
    obs::logEvent(obs::LogLevel::Info, "compile.start",
                  {{"input", "a.core_desc"}});
    obs::logEvent(obs::LogLevel::Warn, "compile.cancelled",
                  {{"reason", "dead\"line"}});
    log.close();
    EXPECT_FALSE(log.active());

    auto all = lines();
    ASSERT_EQ(all.size(), 2u);
    // Every line is one self-contained JSON object.
    for (const auto &line : all) {
        std::string parse_error;
        auto doc = json::parse(line, &parse_error);
        ASSERT_TRUE(doc) << parse_error << "\n" << line;
        EXPECT_GE(doc->getNumber("ts"), 0.0);
    }
    auto first = json::parse(all[0], nullptr);
    EXPECT_EQ(first->getString("lvl"), "info");
    EXPECT_EQ(first->getString("ev"), "compile.start");
    EXPECT_EQ(first->getString("input"), "a.core_desc");
    auto second = json::parse(all[1], nullptr);
    EXPECT_EQ(second->getString("lvl"), "warn");
    EXPECT_EQ(second->getString("reason"), "dead\"line");
}

TEST_F(ObsLogTest, RecordsCarryTheRequestScopeRid)
{
    auto &log = obs::EventLog::instance();
    std::string error;
    ASSERT_TRUE(log.open(path, error)) << error;

    obs::logEvent(obs::LogLevel::Info, "outside.scope");
    {
        obs::RequestScope scope("r42");
        obs::logEvent(obs::LogLevel::Info, "inside.scope");
        std::thread worker([] {
            // rid is thread-local: another thread is outside the scope.
            obs::logEvent(obs::LogLevel::Info, "other.thread");
        });
        worker.join();
    }
    obs::logEvent(obs::LogLevel::Info, "after.scope");
    log.close();

    auto all = lines();
    ASSERT_EQ(all.size(), 4u);
    std::map<std::string, std::string> rid_by_event;
    for (const auto &line : all) {
        auto doc = json::parse(line, nullptr);
        ASSERT_TRUE(doc) << line;
        rid_by_event[doc->getString("ev")] = doc->getString("rid");
    }
    EXPECT_EQ(rid_by_event.at("outside.scope"), "");
    EXPECT_EQ(rid_by_event.at("inside.scope"), "r42");
    EXPECT_EQ(rid_by_event.at("other.thread"), "");
    EXPECT_EQ(rid_by_event.at("after.scope"), "");
}

TEST_F(ObsLogTest, LevelGateDropsBelowThreshold)
{
    auto &log = obs::EventLog::instance();
    std::string error;
    ASSERT_TRUE(log.open(path, error)) << error;
    log.setLevel(obs::LogLevel::Warn);
    obs::logEvent(obs::LogLevel::Debug, "nope.debug");
    obs::logEvent(obs::LogLevel::Info, "nope.info");
    obs::logEvent(obs::LogLevel::Warn, "yes.warn");
    obs::logEvent(obs::LogLevel::Error, "yes.error");
    log.close();

    auto all = lines();
    ASSERT_EQ(all.size(), 2u);
    EXPECT_NE(all[0].find("yes.warn"), std::string::npos);
    EXPECT_NE(all[1].find("yes.error"), std::string::npos);
}

TEST_F(ObsLogTest, RateLimiterSuppressesAndReportsDrops)
{
    auto &log = obs::EventLog::instance();
    std::string error;
    ASSERT_TRUE(log.open(path, error)) << error;
    log.setRateLimit(3);
    for (int i = 0; i < 10; ++i)
        obs::logEvent(obs::LogLevel::Info, "spam.event");
    obs::logEvent(obs::LogLevel::Info, "calm.event");
    EXPECT_EQ(log.linesSuppressed(), 7u);
    log.close(); // flushes the pending suppression summary

    auto all = lines();
    // 3 spam + 1 calm + 1 log.suppressed summary.
    ASSERT_EQ(all.size(), 5u);
    size_t spam = 0;
    bool summary_seen = false;
    for (const auto &line : all) {
        auto doc = json::parse(line, nullptr);
        ASSERT_TRUE(doc) << line;
        if (doc->getString("ev") == "spam.event")
            ++spam;
        if (doc->getString("ev") == "log.suppressed") {
            summary_seen = true;
            EXPECT_EQ(doc->getString("event"), "spam.event");
            EXPECT_DOUBLE_EQ(doc->getNumber("dropped"), 7.0);
        }
    }
    EXPECT_EQ(spam, 3u);
    EXPECT_TRUE(summary_seen);
}

TEST_F(ObsLogTest, OpenFailureReportsAndStaysInactive)
{
    auto &log = obs::EventLog::instance();
    std::string error;
    EXPECT_FALSE(
        log.open("/nonexistent-dir-xyz/event.jsonl", error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(log.active());
}

// ---------------------------------------------------------------------------
// Flight recorder (always-on ring buffer + postmortems)
// ---------------------------------------------------------------------------

namespace {

struct ObsFlightRecTest : ObsFixture
{
    std::string dir;

    void
    SetUp() override
    {
        ObsFixture::SetUp();
        dir = ::testing::TempDir() + "/ln_flightrec_" +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name();
        std::string cmd = "rm -rf '" + dir + "' && mkdir -p '" + dir +
                          "'";
        ASSERT_EQ(std::system(cmd.c_str()), 0);
        obs::flightrec::resetForTests();
        obs::flightrec::setPostmortemDir(dir);
    }
    void
    TearDown() override
    {
        obs::flightrec::setPostmortemDir("");
        obs::flightrec::resetForTests();
        std::string cmd = "rm -rf '" + dir + "'";
        (void)std::system(cmd.c_str());
        ObsFixture::TearDown();
    }
};

} // namespace

TEST_F(ObsFlightRecTest, NotesAreRecordedInSequenceOrder)
{
    obs::flightrec::note("phase", "sema");
    {
        obs::RequestScope scope("r7");
        obs::flightrec::note("cancel", "deadline at sched");
    }
    obs::flightrec::note("phase", "hwgen");

    auto events = obs::flightrec::snapshot();
    ASSERT_EQ(events.size(), 3u);
    for (size_t i = 1; i < events.size(); ++i)
        EXPECT_GT(events[i].seq, events[i - 1].seq);
    EXPECT_STREQ(events[0].kind, "phase");
    EXPECT_STREQ(events[0].msg, "sema");
    EXPECT_STREQ(events[0].rid, "");
    EXPECT_STREQ(events[1].kind, "cancel");
    EXPECT_STREQ(events[1].rid, "r7");
    EXPECT_STREQ(events[2].msg, "hwgen");

    std::string text = obs::flightrec::renderEvents(events);
    EXPECT_NE(text.find("[cancel] rid=r7 deadline at sched"),
              std::string::npos);
    EXPECT_NE(text.find("[phase] sema"), std::string::npos);
}

TEST_F(ObsFlightRecTest, RingKeepsOnlyTheNewestEvents)
{
    const size_t total = obs::flightrec::ringCapacity + 50;
    for (size_t i = 0; i < total; ++i)
        obs::flightrec::note("tick", std::to_string(i));
    auto events = obs::flightrec::snapshot();
    // Only this thread has recorded since the reset.
    ASSERT_EQ(events.size(), obs::flightrec::ringCapacity);
    // The oldest 50 fell off the ring; the newest survives.
    EXPECT_STREQ(events.back().msg, std::to_string(total - 1).c_str());
    EXPECT_STREQ(events.front().msg, "50");
}

TEST_F(ObsFlightRecTest, ExitedThreadsFoldIntoOneBoundedRing)
{
    // More events than the retired ring holds, each thread's fitting
    // in its own ring.
    const size_t threads = 8, per_thread = 200;
    for (size_t t = 0; t < threads; ++t)
        std::thread([t] {
            for (size_t i = 0; i < per_thread; ++i)
                obs::flightrec::note("exited", std::to_string(t) + "." +
                                                   std::to_string(i));
        }).join();
    obs::flightrec::note("live", "main");

    auto events = obs::flightrec::snapshot();
    // The newest retiredCapacity events of the exited threads, then
    // this thread's one.
    ASSERT_EQ(events.size(), obs::flightrec::retiredCapacity + 1);
    const size_t first = threads * per_thread -
                         obs::flightrec::retiredCapacity;
    EXPECT_STREQ(events.front().msg,
                 (std::to_string(first / per_thread) + "." +
                  std::to_string(first % per_thread))
                     .c_str());
    EXPECT_STREQ(events[events.size() - 2].msg,
                 (std::to_string(threads - 1) + "." +
                  std::to_string(per_thread - 1))
                     .c_str());
    EXPECT_STREQ(events.back().kind, "live");
}

TEST_F(ObsFlightRecTest, PostmortemWritesFileNamingTheRid)
{
    obs::RequestScope scope("r99");
    obs::flightrec::note("cancel", "deadline exceeded");
    std::string path = obs::flightrec::writePostmortem("deadline");
    ASSERT_FALSE(path.empty());
    EXPECT_NE(path.find("longnail-postmortem-deadline-"),
              std::string::npos);

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::stringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    EXPECT_NE(text.find("# reason: deadline"), std::string::npos);
    EXPECT_NE(text.find("# rid: r99"), std::string::npos);
    EXPECT_NE(text.find("[cancel] rid=r99 deadline exceeded"),
              std::string::npos);
}

TEST_F(ObsFlightRecTest, PostmortemsAreCappedPerReason)
{
    obs::flightrec::note("k", "m");
    int written = 0;
    for (int i = 0; i < 10; ++i)
        if (!obs::flightrec::writePostmortem("deadline").empty())
            ++written;
    EXPECT_EQ(written, 4); // maxPerReason
    // A different reason has its own budget.
    EXPECT_FALSE(obs::flightrec::writePostmortem("crash").empty());
}

TEST_F(ObsFlightRecTest, NoDirMeansNoFiles)
{
    obs::flightrec::setPostmortemDir("");
    obs::flightrec::note("k", "m");
    EXPECT_TRUE(obs::flightrec::writePostmortem("deadline").empty());
}

