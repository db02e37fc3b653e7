#include "driver/cache.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <concepts>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "support/failpoint.hh"
#include "support/hash.hh"

namespace longnail {
namespace driver {

namespace fs = std::filesystem;

namespace {

constexpr const char *entrySuffix = ".lnc";

/** Strict member access for fromJson(): the first failure names the
 * member and stops decoding. */
struct StrictReader
{
    std::string &error;

    const json::Value *
    member(const json::Value &obj, const char *key, json::Value::Kind kind)
    {
        const json::Value *v = obj.find(key);
        if (v && v->kind() == kind)
            return v;
        error = std::string("member '") + key +
                "' is missing or of the wrong kind";
        return nullptr;
    }

    bool
    get(const json::Value &obj, const char *key, std::string &out)
    {
        const json::Value *v = member(obj, key, json::Value::Kind::String);
        if (v)
            out = v->str();
        return v != nullptr;
    }

    bool
    get(const json::Value &obj, const char *key, bool &out)
    {
        const json::Value *v = member(obj, key, json::Value::Kind::Bool);
        if (v)
            out = v->boolean();
        return v != nullptr;
    }

    bool
    get(const json::Value &obj, const char *key, double &out)
    {
        const json::Value *v = member(obj, key, json::Value::Kind::Number);
        if (v)
            out = v->number();
        return v != nullptr;
    }

    /** An integral number within Int's range (both bounds are exact
     * doubles: the minimum, and the maximum plus one as 2^digits). */
    template <std::integral Int>
    bool
    get(const json::Value &obj, const char *key, Int &out)
    {
        double d = 0.0;
        if (!get(obj, key, d))
            return false;
        if (d != std::floor(d) ||
            d < double(std::numeric_limits<Int>::min()) ||
            d >= std::ldexp(1.0, std::numeric_limits<Int>::digits)) {
            error = std::string("member '") + key +
                    "' is not an integer in range";
            return false;
        }
        out = Int(d);
        return true;
    }

    bool
    get(const json::Value &obj, const char *key, Severity &out)
    {
        std::string name;
        if (!get(obj, key, name))
            return false;
        if (!severityFromName(name, out)) {
            error = "unknown severity '" + name + "'";
            return false;
        }
        return true;
    }
};

/** Read a string-array member into @p out; absent = leave empty. */
bool
readStringArray(const json::Value &obj, const std::string &key,
                std::vector<std::string> &out, std::string &error)
{
    const json::Value *v = obj.find(key);
    if (!v)
        return true;
    if (!v->isArray()) {
        error = "'" + key + "' must be an array of strings";
        return false;
    }
    for (const auto &item : v->items()) {
        if (!item.isString()) {
            error = "'" + key + "' must be an array of strings";
            return false;
        }
        out.push_back(item.str());
    }
    return true;
}

json::Value
stringArray(const std::vector<std::string> &items)
{
    json::Value arr = json::Value::array();
    for (const auto &s : items)
        arr.push(s);
    return arr;
}

fs::path
entryPath(const std::string &dir, const std::string &key)
{
    return fs::path(dir) / (key + entrySuffix);
}

/**
 * True when any failpoint other than the cache harness's own "cache"
 * site is armed. Such compiles may succeed fail-soft with degraded
 * artifacts (e.g. a fallback schedule), which must neither be stored
 * nor replayed: a later clean run would silently get the degraded
 * SystemVerilog (and vice versa), breaking the byte-identical-artifacts
 * guarantee (docs/batch-compilation.md).
 */
bool
faultInjectionActive()
{
    for (const std::string &name : failpoint::armedNames())
        if (name != "cache")
            return true;
    return false;
}

/** Remove least-recently-used entries until at most @p max remain. */
void
evictLRU(const std::string &dir, size_t max)
{
    if (max == 0)
        return;
    std::vector<std::pair<fs::file_time_type, fs::path>> entries;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(dir, ec)) {
        if (!de.is_regular_file(ec))
            continue;
        if (de.path().extension() != entrySuffix)
            continue;
        entries.emplace_back(de.last_write_time(ec), de.path());
    }
    if (entries.size() <= max)
        return;
    // Oldest first; ties broken by path for determinism.
    std::sort(entries.begin(), entries.end());
    for (size_t i = 0; i + max < entries.size(); ++i)
        fs::remove(entries[i].second, ec);
}

} // namespace

CompileSummary
summarize(const CompiledIsax &compiled)
{
    CompileSummary summary;
    summary.isaxName = compiled.name;
    summary.coreName = compiled.coreName;
    summary.ok = compiled.ok();
    summary.errorsText = compiled.errors;
    for (const auto &d : compiled.diags.all())
        summary.diags.push_back({d.severity, d.code, d.str()});
    summary.chosenScheduler = compiled.report.chosenScheduler;
    summary.lpWorkUnits = compiled.report.lpWorkUnits;
    summary.fallbackEvents = compiled.report.fallbackEvents;
    for (const auto &unit : compiled.units) {
        CompileSummary::UnitSummary u;
        u.name = unit.name;
        u.isAlways = unit.isAlways;
        u.makespan = unit.makespan;
        u.objective = unit.objective;
        u.quality = sched::scheduleQualityName(unit.quality);
        u.fallbackReason = unit.fallbackReason;
        u.lpWorkUnits = unit.lpWorkUnits;
        u.firstStage = unit.module.firstStage;
        u.lastStage = unit.module.lastStage;
        u.numRegisters = unit.module.module.numRegisters();
        u.systemVerilog = unit.systemVerilog;
        summary.units.push_back(std::move(u));
    }
    if (summary.ok)
        summary.configYaml = compiled.config.emit();
    return summary;
}

json::Value
toJson(const CompileSummary &summary)
{
    json::Value diags = json::Value::array();
    for (const auto &d : summary.diags) {
        json::Value line = json::Value::object();
        line.set("severity", severityName(d.severity));
        line.set("code", d.code);
        line.set("text", d.rendered);
        diags.push(std::move(line));
    }
    json::Value units = json::Value::array();
    for (const auto &u : summary.units) {
        json::Value unit = json::Value::object();
        unit.set("name", u.name);
        unit.set("isAlways", u.isAlways);
        unit.set("makespan", int64_t(u.makespan));
        unit.set("objective", u.objective);
        unit.set("quality", u.quality);
        unit.set("fallbackReason", u.fallbackReason);
        unit.set("lpWorkUnits", u.lpWorkUnits);
        unit.set("firstStage", int64_t(u.firstStage));
        unit.set("lastStage", int64_t(u.lastStage));
        unit.set("numRegisters", uint64_t(u.numRegisters));
        unit.set("sv", u.systemVerilog);
        units.push(std::move(unit));
    }
    json::Value obj = json::Value::object();
    obj.set("isax", summary.isaxName);
    obj.set("core", summary.coreName);
    obj.set("ok", summary.ok);
    obj.set("diags", std::move(diags));
    obj.set("errors", summary.errorsText);
    obj.set("scheduler", summary.chosenScheduler);
    obj.set("lpWorkUnits", summary.lpWorkUnits);
    obj.set("fallbackEvents", uint64_t(summary.fallbackEvents));
    obj.set("units", std::move(units));
    obj.set("configYaml", summary.configYaml);
    return obj;
}

bool
fromJson(const json::Value &doc, CompileSummary &out, std::string &error)
{
    StrictReader r{error};
    CompileSummary s;
    const json::Value *diags = nullptr;
    const json::Value *units = nullptr;
    if (!r.get(doc, "isax", s.isaxName) ||
        !r.get(doc, "core", s.coreName) || !r.get(doc, "ok", s.ok) ||
        !(diags = r.member(doc, "diags", json::Value::Kind::Array)) ||
        !r.get(doc, "errors", s.errorsText) ||
        !r.get(doc, "scheduler", s.chosenScheduler) ||
        !r.get(doc, "lpWorkUnits", s.lpWorkUnits) ||
        !r.get(doc, "fallbackEvents", s.fallbackEvents) ||
        !(units = r.member(doc, "units", json::Value::Kind::Array)) ||
        !r.get(doc, "configYaml", s.configYaml))
        return false;
    for (const json::Value &item : diags->items()) {
        CompileSummary::DiagLine d;
        if (!r.get(item, "severity", d.severity) ||
            !r.get(item, "code", d.code) ||
            !r.get(item, "text", d.rendered))
            return false;
        s.diags.push_back(std::move(d));
    }
    for (const json::Value &item : units->items()) {
        CompileSummary::UnitSummary u;
        if (!r.get(item, "name", u.name) ||
            !r.get(item, "isAlways", u.isAlways) ||
            !r.get(item, "makespan", u.makespan) ||
            !r.get(item, "objective", u.objective) ||
            !r.get(item, "quality", u.quality) ||
            !r.get(item, "fallbackReason", u.fallbackReason) ||
            !r.get(item, "lpWorkUnits", u.lpWorkUnits) ||
            !r.get(item, "firstStage", u.firstStage) ||
            !r.get(item, "lastStage", u.lastStage) ||
            !r.get(item, "numRegisters", u.numRegisters) ||
            !r.get(item, "sv", u.systemVerilog))
            return false;
        s.units.push_back(std::move(u));
    }
    out = std::move(s);
    return true;
}

json::Value
toJson(const CompileOptions &options)
{
    json::Value obj = json::Value::object();
    obj.set("core", options.coreName);
    obj.set("timing", options.timingMode == sched::TimingMode::Library
                          ? "library"
                          : "uniform");
    if (options.cycleTimeNs != 0.0)
        obj.set("cycleTimeNs", options.cycleTimeNs);
    if (options.baseSetName != "RV32I")
        obj.set("baseSet", options.baseSetName);
    if (options.maxErrors != 0)
        obj.set("maxErrors", uint64_t(options.maxErrors));
    if (options.schedBudget.lpWorkLimit != 0)
        obj.set("lpWorkLimit", options.schedBudget.lpWorkLimit);
    if (options.optLevel != 0)
        obj.set("optLevel", uint64_t(options.optLevel));
    if (options.lintOnly)
        obj.set("lintOnly", true);
    if (options.verifyIr)
        obj.set("verifyIr", true);
    if (options.validate)
        obj.set("validate", true);
    if (options.warningsAsErrors)
        obj.set("werror", true);
    if (!options.warningsAsErrorCodes.empty())
        obj.set("werrorCodes", stringArray(options.warningsAsErrorCodes));
    if (!options.suppressedWarningCodes.empty())
        obj.set("noWarnCodes",
                stringArray(options.suppressedWarningCodes));
    return obj;
}

bool
fromJson(const json::Value &obj, CompileOptions &options,
         std::string &error)
{
    if (!obj.isObject()) {
        error = "'options' must be an object";
        return false;
    }
    options.coreName = obj.getString("core", options.coreName);
    std::string timing = obj.getString("timing", "uniform");
    if (timing == "uniform") {
        options.timingMode = sched::TimingMode::Uniform;
    } else if (timing == "library") {
        options.timingMode = sched::TimingMode::Library;
    } else {
        error = "unknown timing mode '" + timing + "'";
        return false;
    }
    options.cycleTimeNs = obj.getNumber("cycleTimeNs", 0.0);
    if (options.cycleTimeNs < 0.0) {
        error = "'cycleTimeNs' must be >= 0";
        return false;
    }
    options.baseSetName = obj.getString("baseSet", "RV32I");
    options.maxErrors = size_t(obj.getNumber("maxErrors", 0.0));
    options.schedBudget.lpWorkLimit =
        uint64_t(obj.getNumber("lpWorkLimit", 0.0));
    double opt_level = obj.getNumber("optLevel", 0.0);
    if (opt_level < 0.0 || opt_level > 1.0) {
        error = "'optLevel' must be 0 or 1";
        return false;
    }
    options.optLevel = unsigned(opt_level);
    options.lintOnly = obj.getBool("lintOnly", false);
    options.verifyIr = obj.getBool("verifyIr", false);
    options.validate = obj.getBool("validate", false);
    options.warningsAsErrors = obj.getBool("werror", false);
    if (!readStringArray(obj, "werrorCodes",
                         options.warningsAsErrorCodes, error))
        return false;
    if (!readStringArray(obj, "noWarnCodes",
                         options.suppressedWarningCodes, error))
        return false;
    return true;
}

std::string
compilerVersion()
{
    // Bump on every change that can alter artifacts for unchanged
    // inputs (scheduler tweaks, codegen changes, diagnostics wording),
    // the entry format or the key's encoding.
    return "longnail-json3";
}

std::string
cacheKey(const std::string &source, const std::string &target,
         const CompileOptions &options)
{
    // Resolve the datasheet exactly like compile() does; an unknown
    // core hashes an empty sheet (the compile fails and is not cached).
    const scaiev::Datasheet *sheet = options.datasheet;
    if (!sheet)
        sheet = scaiev::Datasheet::findCore(options.coreName);
    // The warning-code lists act as sets: their order must not split
    // the cache.
    CompileOptions identity = options;
    std::sort(identity.warningsAsErrorCodes.begin(),
              identity.warningsAsErrorCodes.end());
    std::sort(identity.suppressedWarningCodes.begin(),
              identity.suppressedWarningCodes.end());
    hash::Sha256 h;
    h.updateField(compilerVersion());
    h.updateField(source);
    h.updateField(target);
    h.updateField(sheet ? sheet->toYaml().emit() : std::string());
    h.updateField(toJson(identity).emit());
    return h.hexDigest();
}

CacheLookup
cacheLoad(const std::string &dir, const std::string &key,
          CompileSummary &out)
{
    if (dir.empty() || faultInjectionActive())
        return CacheLookup::Miss;
    if (failpoint::fire("cache") != failpoint::Mode::Off)
        return CacheLookup::Injected;

    fs::path path = entryPath(dir, key);
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return CacheLookup::Miss;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (!in.good() && !in.eof())
        return CacheLookup::Corrupt;
    std::string error;
    std::optional<json::Value> doc = json::parse(buffer.str(), &error);
    if (!doc || !fromJson(*doc, out, error))
        return CacheLookup::Corrupt;

    // Refresh the eviction clock; best-effort.
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
    return CacheLookup::Hit;
}

bool
cacheStore(const std::string &dir, const std::string &key,
           const CompileSummary &summary, size_t max_entries)
{
    if (dir.empty() || faultInjectionActive())
        return false;
    std::error_code ec;
    fs::create_directories(dir, ec);

    // Unique tmp name per store so concurrent workers writing the same
    // key cannot interleave; the final rename is atomic.
    static std::atomic<uint64_t> storeCounter{0};
    uint64_t serial = storeCounter.fetch_add(1);
    fs::path tmp = fs::path(dir) /
                   (key + ".tmp" + std::to_string(serial));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        std::string bytes = toJson(summary).emit();
        out.write(bytes.data(), std::streamsize(bytes.size()));
        if (!out.good()) {
            out.close();
            fs::remove(tmp, ec);
            return false;
        }
    }
    fs::rename(tmp, entryPath(dir, key), ec);
    if (ec) {
        fs::remove(tmp, ec);
        return false;
    }
    evictLRU(dir, max_entries);
    return true;
}

size_t
cacheCleanupTmp(const std::string &dir)
{
    size_t removed = 0;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(dir, ec)) {
        if (!de.is_regular_file(ec))
            continue;
        // Store temps are named "<key>.tmp<serial>" (see cacheStore).
        if (de.path().filename().string().find(".tmp") ==
            std::string::npos)
            continue;
        if (fs::remove(de.path(), ec))
            ++removed;
    }
    return removed;
}

size_t
cacheEntryCount(const std::string &dir)
{
    size_t count = 0;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(dir, ec))
        if (de.is_regular_file(ec) && de.path().extension() == entrySuffix)
            ++count;
    return count;
}

} // namespace driver
} // namespace longnail
