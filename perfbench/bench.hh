/**
 * @file
 * Shared pieces of the repository benchmark (README.md): run
 * arguments, the check tally behind `attempted`/`failed`, the metric
 * record printed as the final JSON line, and small timing/statistics
 * helpers.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** Command-line arguments of one run. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Smoke-test size: VexRiscv-only catalog, 64-element kernels,
     * short simulator probes. Never used for measurements. */
    bool tiny = false;
};

/**
 * The run's output: every correctness check counts in `attempted`, a
 * failing one also in `failed` (and is reported on stderr); metrics
 * are printed in insertion order.
 */
class Result
{
  public:
    bool check(bool ok, const std::string &what);
    void add(const std::string &name, double value,
             const std::string &unit);

    uint64_t failed() const { return failed_; }
    std::string json() const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<Metric> metrics_;
};

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/**
 * Nearest-rank percentile @p p (0..100) of @p values (0 when empty).
 */
double percentile(std::vector<double> values, double p);

/** Deterministic 64-bit generator (splitmix64): the same seed gives
 * the same inputs on every platform and standard library. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed) {}
    uint64_t next();
    /** Uniform in [0, bound). */
    uint64_t below(uint64_t bound) { return next() % bound; }

  private:
    uint64_t state_;
};

/** Run the workload named in @p args into @p result. */
void runWorkload(const Args &args, Result &result);

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
