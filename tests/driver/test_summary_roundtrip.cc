/**
 * @file
 * A compile's summary survives both of its encodings field for field:
 * the disk cache (cacheStore -> cacheLoad) and the compile server's
 * result reply (emitResultReply -> parseReply). Covers every catalog
 * ISAX on every built-in core at -O0 and -O1 --validate, a hand-built
 * summary with hostile strings and boundary numbers, and the damaged
 * entries the cache must classify as corrupt (docs/batch-compilation.md).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "driver/batch.hh"
#include "driver/cache.hh"
#include "driver/isax_catalog.hh"
#include "serve/protocol.hh"
#include "support/json.hh"

using namespace longnail;
using namespace longnail::driver;
namespace fs = std::filesystem;

namespace {

uint64_t
bitsOf(double value)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

void
expectSameSummary(const CompileSummary &want, const CompileSummary &got,
                  const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(got.isaxName, want.isaxName);
    EXPECT_EQ(got.coreName, want.coreName);
    EXPECT_EQ(got.ok, want.ok);
    ASSERT_EQ(got.diags.size(), want.diags.size());
    for (size_t i = 0; i < want.diags.size(); ++i) {
        EXPECT_EQ(got.diags[i].severity, want.diags[i].severity) << i;
        EXPECT_EQ(got.diags[i].code, want.diags[i].code) << i;
        EXPECT_EQ(got.diags[i].rendered, want.diags[i].rendered) << i;
    }
    EXPECT_EQ(got.errorsText, want.errorsText);
    EXPECT_EQ(got.chosenScheduler, want.chosenScheduler);
    EXPECT_EQ(got.lpWorkUnits, want.lpWorkUnits);
    EXPECT_EQ(got.fallbackEvents, want.fallbackEvents);
    ASSERT_EQ(got.units.size(), want.units.size());
    for (size_t i = 0; i < want.units.size(); ++i) {
        const CompileSummary::UnitSummary &w = want.units[i];
        const CompileSummary::UnitSummary &g = got.units[i];
        EXPECT_EQ(g.name, w.name) << i;
        EXPECT_EQ(g.isAlways, w.isAlways) << i;
        EXPECT_EQ(g.makespan, w.makespan) << i;
        EXPECT_EQ(bitsOf(g.objective), bitsOf(w.objective)) << i;
        EXPECT_EQ(g.quality, w.quality) << i;
        EXPECT_EQ(g.fallbackReason, w.fallbackReason) << i;
        EXPECT_EQ(g.lpWorkUnits, w.lpWorkUnits) << i;
        EXPECT_EQ(g.firstStage, w.firstStage) << i;
        EXPECT_EQ(g.lastStage, w.lastStage) << i;
        EXPECT_EQ(g.numRegisters, w.numRegisters) << i;
        EXPECT_EQ(g.systemVerilog, w.systemVerilog) << i;
    }
    EXPECT_EQ(got.configYaml, want.configYaml);
}

std::string
scratchDir(const std::string &name)
{
    fs::path dir =
        fs::path(::testing::TempDir()) / ("ln_roundtrip_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), std::streamsize(bytes.size()));
}

/** @p summary after cacheStore -> cacheLoad. */
CompileSummary
viaCache(const CompileSummary &summary, const std::string &dir)
{
    const std::string key = "roundtrip";
    EXPECT_TRUE(cacheStore(dir, key, summary));
    CompileSummary out;
    EXPECT_EQ(cacheLoad(dir, key, out), CacheLookup::Hit);
    return out;
}

/** @p summary after emitResultReply -> parseReply. */
CompileSummary
viaReply(const CompileSummary &summary)
{
    std::string error;
    auto reply = serve::parseReply(
        serve::emitResultReply(summary, "id-7", "disk", "r7"), error);
    EXPECT_TRUE(reply) << error;
    if (!reply)
        return {};
    EXPECT_EQ(reply->type, "result");
    EXPECT_EQ(reply->id, "id-7");
    EXPECT_EQ(reply->rid, "r7");
    EXPECT_EQ(reply->cacheTier, "disk");
    return reply->summary;
}

std::vector<std::string>
catalogNames()
{
    std::vector<std::string> names;
    for (const auto &entry : catalog::allIsaxes())
        names.push_back(entry.name);
    return names;
}

class CatalogRoundTrip : public ::testing::TestWithParam<std::string>
{
};

TEST_P(CatalogRoundTrip, SummarySurvivesCacheAndReply)
{
    const std::string &isax = GetParam();
    std::string dir = scratchDir(isax);
    for (const std::string &core : builtinCores()) {
        for (bool optimized : {false, true}) {
            CompileOptions options;
            options.coreName = core;
            options.optLevel = optimized ? 1 : 0;
            options.validate = optimized;
            CompileSummary summary =
                summarize(compileCatalogIsax(isax, options));
            ASSERT_TRUE(summary.ok) << summary.errorsText;
            std::string what = isax + "@" + core +
                               (optimized ? " -O1 --validate" : " -O0");
            expectSameSummary(summary, viaCache(summary, dir),
                              what + " via the cache");
            expectSameSummary(summary, viaReply(summary),
                              what + " via the reply");
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Catalog, CatalogRoundTrip,
                         ::testing::ValuesIn(catalogNames()),
                         [](const auto &info) { return info.param; });

/** Every member non-default; every string holds all 256 byte values. */
CompileSummary
hostileSummary()
{
    std::string all_bytes;
    for (int b = 0; b < 256; ++b)
        all_bytes += char(b);

    CompileSummary s;
    s.isaxName = "hostile" + all_bytes;
    s.coreName = "core" + all_bytes;
    s.ok = false;
    s.diags.push_back({Severity::Note, "LN0000", all_bytes});
    s.diags.push_back({Severity::Warning, "LN2001", "w" + all_bytes});
    s.diags.push_back({Severity::Error, all_bytes, "e"});
    s.errorsText = all_bytes;
    s.chosenScheduler = "fallback-relaxed";
    // 2^53: the largest integer a JSON number holds exactly.
    s.lpWorkUnits = uint64_t(1) << 53;
    s.fallbackEvents = std::numeric_limits<unsigned>::max();

    CompileSummary::UnitSummary u;
    u.name = all_bytes;
    u.isAlways = true;
    u.makespan = std::numeric_limits<int>::max();
    u.objective = 0.1 + 0.2; // 0.30000000000000004: 17 digits
    u.quality = "fallback";
    u.fallbackReason = all_bytes;
    u.lpWorkUnits = uint64_t(1) << 53;
    u.firstStage = -1;
    u.lastStage = std::numeric_limits<int>::min();
    u.numRegisters = std::numeric_limits<unsigned>::max();
    u.systemVerilog = all_bytes;
    s.units.push_back(u);
    u.name = "second";
    u.isAlways = false;
    u.objective = -1234.5678901234567;
    s.units.push_back(u);
    s.configYaml = all_bytes;
    return s;
}

TEST(SummaryRoundTrip, HostileSummarySurvivesCacheAndReply)
{
    CompileSummary summary = hostileSummary();
    ASSERT_EQ(bitsOf(summary.units[0].objective),
              bitsOf(0.30000000000000004));
    expectSameSummary(summary, viaCache(summary, scratchDir("hostile")),
                      "hostile via the cache");
    expectSameSummary(summary, viaReply(summary), "hostile via the reply");
}

/** @p obj with member @p key dropped (@p value null) or replaced. */
json::Value
withMember(const json::Value &obj, const std::string &key,
           const json::Value *value)
{
    json::Value out = json::Value::object();
    for (const auto &[k, v] : obj.members()) {
        if (k != key)
            out.set(k, v);
        else if (value)
            out.set(k, *value);
    }
    return out;
}

/** A value of the wrong kind for whatever @p v is. */
json::Value
wrongKind(const json::Value &v)
{
    return v.isString() ? json::Value(7) : json::Value("7");
}

/** @p doc with its first "units" (or "diags") element replaced. */
json::Value
withFirstElement(const json::Value &doc, const std::string &array,
                 const json::Value &element)
{
    json::Value items = json::Value::array();
    const json::Value *old = doc.find(array);
    for (size_t i = 0; old && i < old->items().size(); ++i)
        items.push(i == 0 ? element : old->items()[i]);
    return withMember(doc, array, &items);
}

TEST(SummaryRoundTrip, DamagedEntriesLoadAsCorrupt)
{
    std::string dir = scratchDir("corrupt");
    const std::string key = "damaged";
    const std::string path = dir + "/" + key + ".lnc";
    auto expectCorrupt = [&](const std::string &bytes,
                             const std::string &what) {
        writeBytes(path, bytes);
        CompileSummary out;
        EXPECT_EQ(cacheLoad(dir, key, out), CacheLookup::Corrupt) << what;
    };

    CompileSummary dotp = summarize(compileCatalogIsax("dotp"));
    ASSERT_TRUE(dotp.ok) << dotp.errorsText;
    ASSERT_TRUE(cacheStore(dir, key, dotp));
    const std::string good = readBytes(path);
    ASSERT_GT(good.size(), 2u);
    expectCorrupt("", "empty");
    expectCorrupt(good.substr(0, good.size() / 2), "truncated to half");
    expectCorrupt(good.substr(0, good.size() - 1), "last byte cut");
    expectCorrupt(std::string(good.rbegin(), good.rend()), "garbled");
    expectCorrupt(std::string(good.size(), '#'), "overwritten");

    // A JSON summary document with one member missing or mistyped. The
    // reply's result object carries every summary member of this
    // summary, plus the envelope (type, id, rid, cacheTier).
    std::string error;
    auto doc = json::parse(
        serve::emitResultReply(hostileSummary(), "id", "fresh", "r"),
        &error);
    ASSERT_TRUE(doc) << error;
    auto isEnvelope = [](const std::string &k) {
        return k == "type" || k == "id" || k == "rid" || k == "cacheTier";
    };
    for (const auto &[k, v] : doc->members()) {
        if (isEnvelope(k))
            continue;
        expectCorrupt(withMember(*doc, k, nullptr).emit(), "no " + k);
        json::Value bad = wrongKind(v);
        expectCorrupt(withMember(*doc, k, &bad).emit(), "mistyped " + k);
    }
    for (const char *array : {"units", "diags"}) {
        const json::Value *items = doc->find(array);
        ASSERT_TRUE(items && !items->items().empty()) << array;
        const json::Value &first = items->items()[0];
        for (const auto &[k, v] : first.members()) {
            std::string what = std::string(array) + "[0]." + k;
            expectCorrupt(withFirstElement(
                              *doc, array, withMember(first, k, nullptr))
                              .emit(),
                          "no " + what);
            json::Value bad = wrongKind(v);
            expectCorrupt(
                withFirstElement(*doc, array, withMember(first, k, &bad))
                    .emit(),
                "mistyped " + what);
        }
    }

    // Numbers of the right kind but outside their field's domain.
    const json::Value &unit = doc->find("units")->items()[0];
    const std::pair<const char *, json::Value> out_of_domain[] = {
        {"makespan", json::Value(2.5)},
        {"numRegisters", json::Value(-1)},
        {"lpWorkUnits", json::Value(1e300)},
        {"firstStage", json::Value(4294967296.0)},
    };
    for (const auto &[k, v] : out_of_domain)
        expectCorrupt(
            withFirstElement(*doc, "units", withMember(unit, k, &v))
                .emit(),
            std::string("out-of-domain units[0].") + k);
    json::Value many = json::Value(4294967296.0);
    expectCorrupt(withMember(*doc, "fallbackEvents", &many).emit(),
                  "fallbackEvents above unsigned range");
    const json::Value &diag = doc->find("diags")->items()[0];
    json::Value fatal("fatal");
    expectCorrupt(
        withFirstElement(*doc, "diags", withMember(diag, "severity", &fatal))
            .emit(),
        "unnamed severity");
}

} // namespace
