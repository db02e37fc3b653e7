/**
 * @file
 * Entry point of the repository benchmark (README.md):
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--tiny]
 *
 * Prints progress and failed checks on stderr and, as the last line of
 * stdout, one JSON object {correct, attempted, failed, metrics}. Exits
 * 0 only when every check passed.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hh"

namespace perfbench {

bool
Result::check(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    }
    return ok;
}

void
Result::add(const std::string &name, double value, const std::string &unit)
{
    metrics_.push_back({name, value, unit});
}

std::string
Result::json() const
{
    std::string out = "{\"correct\": ";
    out += failed_ == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        char value[64];
        // JSON has no NaN/Infinity; a non-finite value is a benchmark
        // bug, surfaced as a failed check by the caller.
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t rank = size_t(std::ceil(p / 100.0 * double(values.size())));
    return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

uint64_t
Rng::next()
{
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace perfbench

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--tiny]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--tiny") {
            args.tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        std::string value = argv[++i];
        try {
            if (flag == "--workload")
                args.workload = value;
            else if (flag == "--seed")
                args.seed = std::stoull(value);
            else if (flag == "--seconds")
                args.seconds = std::stod(value);
            else if (flag == "--trace")
                args.trace = std::stoi(value) != 0;
            else
                return usage(("unknown flag " + flag).c_str());
        } catch (const std::exception &) {
            return usage(("bad value for " + flag).c_str());
        }
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), args.workload) == names.end())
        return usage("unknown or missing --workload");
    if (!(args.seconds > 0.0 && args.seconds <= 600.0))
        return usage("--seconds must be in (0, 600]");

    Result result;
    try {
        runWorkload(args, result);
    } catch (const std::exception &e) {
        result.check(false, std::string("exception: ") + e.what());
    }
    std::printf("%s\n", result.json().c_str());
    return result.failed() == 0 ? 0 : 1;
}
