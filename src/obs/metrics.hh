/**
 * @file
 * Compiler-wide observability, part 2: the metrics registry.
 *
 * Named counters (monotonic totals: LP work units, fallback events,
 * diagnostics by severity, failpoint trips, IR node counts), gauges
 * (last/peak values: RSS per phase) and histograms (distributions:
 * per-solve LP work, per-phase wall time) live in one process-global
 * Registry. Dumped via `longnail --stats=FILE` as YAML, or as a human
 * table for `--stats=-` (see docs/observability.md for the catalog).
 * The Registry is the process aggregate; the record of one compile is
 * its driver::PhaseReport.
 *
 * The free helpers count()/gauge()/gaugeMax()/observe() are the
 * instrumentation entry points: each is a no-op after one relaxed
 * atomic load when obs::enabled() is off, so instrumented hot paths
 * stay at near-zero cost when observability is disabled.
 *
 * Metric *values* that do not derive from wall time (counters, IR
 * sizes) are deterministic for a fixed input: two identical compiles
 * yield identical counter snapshots, which the golden --stats tests
 * rely on.
 */

#ifndef LONGNAIL_OBS_METRICS_HH
#define LONGNAIL_OBS_METRICS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/obs.hh"

namespace longnail {
namespace obs {

/** Aggregated distribution statistics of one histogram. */
struct HistogramStats
{
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;

    /** Retained raw observations, capped at sampleCapacity (after
     * which new observations still update count/sum/min/max but are
     * not stored; quantiles then describe the first N samples). */
    std::vector<double> samples;

    static constexpr size_t sampleCapacity = 4096;

    double mean() const { return count ? sum / double(count) : 0.0; }

    /**
     * Nearest-rank quantile over the retained samples: the smallest
     * value v such that at least ceil(p * n) samples are <= v. p is
     * clamped to [0, 1]; 0 when no samples are retained.
     */
    double quantile(double p) const;
};

/** Process-global metrics store; all methods are thread-safe. */
class Registry
{
  public:
    static Registry &instance();

    void addCounter(const std::string &name, uint64_t delta);
    void setGauge(const std::string &name, double value);
    /** Keep the maximum of the current and the new value. */
    void maxGauge(const std::string &name, double value);
    void observe(const std::string &name, double value);

    /** Snapshots (sorted by name, copied under the lock). */
    std::map<std::string, uint64_t> counters() const;
    std::map<std::string, double> gauges() const;
    std::map<std::string, HistogramStats> histograms() const;

    /** One counter's current value (0 when never touched). */
    uint64_t counter(const std::string &name) const;

    /**
     * Serialize the registry as a YAML document with `counters:`,
     * `gauges:` and `histograms:` mappings (keys sorted; parseable by
     * yaml::parse and stable across runs for deterministic metrics).
     */
    std::string toYaml() const;

    /** Human-readable summary table (for `--stats=-`). */
    std::string toTable() const;

    /**
     * Serialize as one compact JSON object with `counters`, `gauges`
     * and `histograms` members (keys sorted) -- the compile server's
     * `stats` reply body. Hand-emitted like toYaml(), for the same
     * layering reason.
     */
    std::string toJson() const;

    /**
     * Serialize as Prometheus text exposition format (version 0.0.4):
     * counters as `longnail_<name>_total`, gauges as gauges, and
     * histograms as summaries (quantile="0.5/0.95/0.99" series plus
     * `_sum`/`_count`). Dotted metric names are sanitized to the
     * Prometheus charset (`phase.sema.ms` -> `longnail_phase_sema_ms`).
     */
    std::string toPrometheus() const;

    void clear();

  private:
    Registry() = default;
    mutable std::mutex mutex_;
    std::map<std::string, uint64_t> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, HistogramStats> histograms_;
};

/** Increment a counter by @p delta (no-op when obs is disabled). */
inline void
count(const char *name, uint64_t delta = 1)
{
    if (enabled())
        Registry::instance().addCounter(name, delta);
}

/** Set a gauge (no-op when obs is disabled). */
inline void
gauge(const char *name, double value)
{
    if (enabled())
        Registry::instance().setGauge(name, value);
}

/** Raise a peak gauge (no-op when obs is disabled). */
inline void
gaugeMax(const char *name, double value)
{
    if (enabled())
        Registry::instance().maxGauge(name, value);
}

/** Record one histogram observation (no-op when obs is disabled). */
inline void
observe(const char *name, double value)
{
    if (enabled())
        Registry::instance().observe(name, value);
}

} // namespace obs
} // namespace longnail

#endif // LONGNAIL_OBS_METRICS_HH
