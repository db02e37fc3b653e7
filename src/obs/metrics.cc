#include "obs/metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "support/json.hh"

namespace longnail {
namespace obs {

Registry &
Registry::instance()
{
    static Registry registry;
    return registry;
}

void
Registry::addCounter(const std::string &name, uint64_t delta)
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_[name] += delta;
}

void
Registry::setGauge(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    gauges_[name] = value;
}

void
Registry::maxGauge(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = gauges_.emplace(name, value);
    if (!inserted)
        it->second = std::max(it->second, value);
}

void
Registry::observe(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    HistogramStats &h = histograms_[name];
    if (h.count == 0) {
        h.min = h.max = value;
    } else {
        h.min = std::min(h.min, value);
        h.max = std::max(h.max, value);
    }
    ++h.count;
    h.sum += value;
    if (h.samples.size() < HistogramStats::sampleCapacity)
        h.samples.push_back(value);
}

double
HistogramStats::quantile(double p) const
{
    if (samples.empty())
        return 0.0;
    std::vector<double> sorted(samples);
    std::sort(sorted.begin(), sorted.end());
    p = std::min(1.0, std::max(0.0, p));
    // Nearest-rank: 1-based rank ceil(p*n), clamped to [1, n].
    size_t rank = size_t(std::max(1.0, std::ceil(p * double(sorted.size()))));
    if (rank > sorted.size())
        rank = sorted.size();
    return sorted[rank - 1];
}

std::map<std::string, uint64_t>
Registry::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

std::map<std::string, double>
Registry::gauges() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return gauges_;
}

std::map<std::string, HistogramStats>
Registry::histograms() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return histograms_;
}

uint64_t
Registry::counter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

void
Registry::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
}

namespace {

/** Trim trailing zeros off a fixed-point rendering ("4.500" -> "4.5"). */
std::string
formatDouble(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f", value);
    std::string s = buf;
    s.erase(s.find_last_not_of('0') + 1);
    if (!s.empty() && s.back() == '.')
        s.pop_back();
    return s;
}

} // namespace

std::string
Registry::toYaml() const
{
    // Hand-emitted (instead of via support/yaml) so the obs library has
    // no dependencies and can be linked into ln_support itself. Metric
    // names contain only [A-Za-z0-9._-], so plain scalars suffice.
    auto counters = this->counters();
    auto gauges = this->gauges();
    auto histograms = this->histograms();

    std::ostringstream os;
    os << "counters:\n";
    for (const auto &[name, value] : counters)
        os << "  " << name << ": " << value << "\n";
    os << "gauges:\n";
    for (const auto &[name, value] : gauges)
        os << "  " << name << ": " << formatDouble(value) << "\n";
    os << "histograms:\n";
    for (const auto &[name, h] : histograms) {
        os << "  " << name << ": {count: " << h.count
           << ", sum: " << formatDouble(h.sum)
           << ", min: " << formatDouble(h.min)
           << ", max: " << formatDouble(h.max)
           << ", mean: " << formatDouble(h.mean())
           << ", p50: " << formatDouble(h.quantile(0.5))
           << ", p95: " << formatDouble(h.quantile(0.95))
           << ", p99: " << formatDouble(h.quantile(0.99)) << "}\n";
    }
    return os.str();
}

std::string
Registry::toJson() const
{
    auto counters = this->counters();
    auto gauges = this->gauges();
    auto histograms = this->histograms();

    std::ostringstream os;
    os << "{\"counters\":{";
    bool first = true;
    for (const auto &[name, value] : counters) {
        os << (first ? "" : ",") << '"' << json::escape(name)
           << "\":" << value;
        first = false;
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto &[name, value] : gauges) {
        os << (first ? "" : ",") << '"' << json::escape(name)
           << "\":" << formatDouble(value);
        first = false;
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto &[name, h] : histograms) {
        os << (first ? "" : ",") << '"' << json::escape(name)
           << "\":{\"count\":" << h.count
           << ",\"sum\":" << formatDouble(h.sum)
           << ",\"min\":" << formatDouble(h.min)
           << ",\"max\":" << formatDouble(h.max)
           << ",\"mean\":" << formatDouble(h.mean())
           << ",\"p50\":" << formatDouble(h.quantile(0.5))
           << ",\"p95\":" << formatDouble(h.quantile(0.95))
           << ",\"p99\":" << formatDouble(h.quantile(0.99)) << "}";
        first = false;
    }
    os << "}}";
    return os.str();
}

namespace {

/** Map a dotted metric name onto the Prometheus charset. */
std::string
promName(const std::string &name)
{
    std::string out = "longnail_";
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':';
        out += ok ? c : '_';
    }
    return out;
}

} // namespace

std::string
Registry::toPrometheus() const
{
    auto counters = this->counters();
    auto gauges = this->gauges();
    auto histograms = this->histograms();

    std::ostringstream os;
    for (const auto &[name, value] : counters) {
        std::string prom = promName(name) + "_total";
        os << "# TYPE " << prom << " counter\n";
        os << prom << " " << value << "\n";
    }
    for (const auto &[name, value] : gauges) {
        std::string prom = promName(name);
        os << "# TYPE " << prom << " gauge\n";
        os << prom << " " << formatDouble(value) << "\n";
    }
    for (const auto &[name, h] : histograms) {
        std::string prom = promName(name);
        os << "# TYPE " << prom << " summary\n";
        os << prom << "{quantile=\"0.5\"} "
           << formatDouble(h.quantile(0.5)) << "\n";
        os << prom << "{quantile=\"0.95\"} "
           << formatDouble(h.quantile(0.95)) << "\n";
        os << prom << "{quantile=\"0.99\"} "
           << formatDouble(h.quantile(0.99)) << "\n";
        os << prom << "_sum " << formatDouble(h.sum) << "\n";
        os << prom << "_count " << h.count << "\n";
    }
    return os.str();
}

std::string
Registry::toTable() const
{
    auto counters = this->counters();
    auto gauges = this->gauges();
    auto histograms = this->histograms();

    std::ostringstream os;
    char buf[160];
    if (!counters.empty()) {
        os << "counters\n";
        for (const auto &[name, value] : counters) {
            std::snprintf(buf, sizeof(buf), "  %-44s %12llu\n",
                          name.c_str(),
                          static_cast<unsigned long long>(value));
            os << buf;
        }
    }
    if (!gauges.empty()) {
        os << "gauges\n";
        for (const auto &[name, value] : gauges) {
            std::snprintf(buf, sizeof(buf), "  %-44s %12s\n",
                          name.c_str(), formatDouble(value).c_str());
            os << buf;
        }
    }
    if (!histograms.empty()) {
        os << "histograms"
              "                                      count"
              "         mean          p50          p95"
              "          p99          max\n";
        for (const auto &[name, h] : histograms) {
            std::snprintf(buf, sizeof(buf),
                          "  %-44s %6llu %12s %12s %12s %12s %12s\n",
                          name.c_str(),
                          static_cast<unsigned long long>(h.count),
                          formatDouble(h.mean()).c_str(),
                          formatDouble(h.quantile(0.5)).c_str(),
                          formatDouble(h.quantile(0.95)).c_str(),
                          formatDouble(h.quantile(0.99)).c_str(),
                          formatDouble(h.max).c_str());
            os << buf;
        }
    }
    if (os.str().empty())
        return "(no metrics recorded)\n";
    return os.str();
}

} // namespace obs
} // namespace longnail
