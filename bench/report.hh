/**
 * @file
 * Machine-readable benchmark reporting (docs/observability.md).
 *
 * Every bench/ binary funnels its headline numbers through a
 * ReportWriter so runs land in BENCH_*.json as JSON Lines: one record
 * per line, each a flat JSON object
 *
 *   {"schema": 1, "bench": "table3", "name": "dotp/VexRiscv",
 *    "metric": "makespan", "value": 3, "unit": "stages",
 *    "commit": "f564a18"}
 *
 * Destination:
 *   - $LONGNAIL_BENCH_REPORT set: append to that file (so the
 *     bench-report CMake target can fold several binaries into one
 *     build/BENCH_records.json);
 *   - otherwise: truncate-write BENCH_<bench>.json in the CWD.
 *
 * The commit stamp comes from $LONGNAIL_COMMIT, else the LN_GIT_COMMIT
 * compile definition (set by bench/CMakeLists.txt), else "unknown".
 *
 * Header-only on purpose: bench binaries stay one-file programs.
 */

#ifndef LONGNAIL_BENCH_REPORT_HH
#define LONGNAIL_BENCH_REPORT_HH

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "obs/obs.hh"
#include "support/json.hh"

namespace longnail {
namespace bench {

/** One benchmark measurement. */
struct Record
{
    std::string bench;  ///< emitting binary ("table3", "sec55", ...)
    std::string name;   ///< data point ("dotp/VexRiscv")
    std::string metric; ///< what was measured ("makespan")
    double value = 0.0;
    std::string unit;   ///< "stages", "ns", "percent", ...
    std::string commit; ///< source revision the number belongs to
};

namespace detail {

/** Render @p value without trailing zeros ("4.500" -> "4.5"). */
inline std::string
formatValue(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f", value);
    std::string s = buf;
    s.erase(s.find_last_not_of('0') + 1);
    if (!s.empty() && s.back() == '.')
        s.pop_back();
    return s;
}

/** Extract the string value of "key" from a flat JSON object line. */
inline bool
jsonStringField(const std::string &line, const std::string &key,
                std::string &out)
{
    std::string needle = "\"" + key + "\": \"";
    size_t pos = line.find(needle);
    if (pos == std::string::npos)
        return false;
    pos += needle.size();
    std::string raw;
    while (pos < line.size() && line[pos] != '"') {
        if (line[pos] == '\\' && pos + 1 < line.size()) {
            ++pos;
            switch (line[pos]) {
              case 'n': raw += '\n'; break;
              case 't': raw += '\t'; break;
              default: raw += line[pos];
            }
        } else {
            raw += line[pos];
        }
        ++pos;
    }
    out = raw;
    return true;
}

/** Extract the numeric value of "key" from a flat JSON object line. */
inline bool
jsonNumberField(const std::string &line, const std::string &key,
                double &out)
{
    std::string needle = "\"" + key + "\": ";
    size_t pos = line.find(needle);
    if (pos == std::string::npos)
        return false;
    pos += needle.size();
    try {
        out = std::stod(line.substr(pos));
    } catch (const std::exception &) {
        return false;
    }
    return true;
}

} // namespace detail

/** The commit stamp for records ($LONGNAIL_COMMIT > build info). */
inline std::string
reportCommit()
{
    if (const char *env = std::getenv("LONGNAIL_COMMIT"))
        if (*env)
            return env;
#ifdef LN_GIT_COMMIT
    return LN_GIT_COMMIT;
#else
    return "unknown";
#endif
}

/** Serialize one record as a single JSON-Lines line (no newline). */
inline std::string
renderRecordLine(const Record &record)
{
    return "{\"schema\": 1, \"bench\": \"" +
           json::escape(record.bench) + "\", \"name\": \"" +
           json::escape(record.name) + "\", \"metric\": \"" +
           json::escape(record.metric) +
           "\", \"value\": " + detail::formatValue(record.value) +
           ", \"unit\": \"" + json::escape(record.unit) +
           "\", \"commit\": \"" + json::escape(record.commit) +
           "\"}";
}

/**
 * Parse one JSON-Lines record back (the inverse of
 * renderRecordLine(); used by the report round-trip test).
 */
inline bool
parseRecordLine(const std::string &line, Record &out)
{
    return detail::jsonStringField(line, "bench", out.bench) &&
           detail::jsonStringField(line, "name", out.name) &&
           detail::jsonStringField(line, "metric", out.metric) &&
           detail::jsonNumberField(line, "value", out.value) &&
           detail::jsonStringField(line, "unit", out.unit) &&
           detail::jsonStringField(line, "commit", out.commit);
}

/** Accumulates records and writes them out on destruction. */
class ReportWriter
{
  public:
    explicit ReportWriter(std::string bench_name)
        : bench_(std::move(bench_name)), commit_(reportCommit())
    {
        if (const char *env = std::getenv("LONGNAIL_BENCH_REPORT")) {
            if (*env) {
                path_ = env;
                append_ = true;
            }
        }
        if (path_.empty())
            path_ = "BENCH_" + bench_ + ".json";
    }

    ~ReportWriter() { flush(); }

    ReportWriter(const ReportWriter &) = delete;
    ReportWriter &operator=(const ReportWriter &) = delete;

    void
    add(const std::string &name, const std::string &metric,
        double value, const std::string &unit)
    {
        records_.push_back({bench_, name, metric, value, unit,
                            commit_});
    }

    const std::vector<Record> &records() const { return records_; }
    const std::string &path() const { return path_; }

    /** Write all accumulated records; harmless to call repeatedly. */
    void
    flush()
    {
        if (records_.empty() || flushed_)
            return;
        std::ofstream out(path_, append_ ? std::ios::app
                                         : std::ios::trunc);
        if (!out) {
            std::fprintf(stderr,
                         "warn: cannot write bench report '%s'\n",
                         path_.c_str());
            return;
        }
        for (const Record &record : records_)
            out << renderRecordLine(record) << "\n";
        flushed_ = true;
        std::fprintf(stderr, "info: wrote %zu bench record%s to %s\n",
                     records_.size(),
                     records_.size() == 1 ? "" : "s", path_.c_str());
    }

  private:
    std::string bench_;
    std::string commit_;
    std::string path_;
    bool append_ = false;
    bool flushed_ = false;
    std::vector<Record> records_;
};

} // namespace bench
} // namespace longnail

#endif // LONGNAIL_BENCH_REPORT_HH
