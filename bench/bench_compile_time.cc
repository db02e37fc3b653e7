/**
 * @file
 * Supporting performance benchmark (google-benchmark): end-to-end HLS
 * compile time per ISAX per core — the "design-space exploration"
 * throughput the paper's automation argument rests on.
 *
 * Run with --batch for the batch-compilation scaling experiment
 * instead (docs/batch-compilation.md): the full 11 ISAX x 4 core
 * catalog matrix through driver::compileBatch() at --jobs 1/2/4/8,
 * cold cache and warm cache, timed with plain chrono and recorded
 * through bench/report.hh (the bench-report target folds the records
 * into build/BENCH_records.json). Speedups are measured, not assumed: on a
 * single-hardware-thread host the cold-cache parallel speedup is ~1x
 * by physics, while warm-cache replay speedups are machine-independent.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include "bench/gbench_report.hh"
#include "driver/batch.hh"
#include "driver/longnail.hh"

using namespace longnail;
using namespace longnail::driver;

namespace {

void
compileBench(benchmark::State &state, const std::string &isax,
             const std::string &core)
{
    for (auto _ : state) {
        CompileOptions options;
        options.coreName = core;
        CompiledIsax compiled = compileCatalogIsax(isax, options);
        if (!compiled.ok())
            state.SkipWithError(compiled.errors.c_str());
        benchmark::DoNotOptimize(compiled);
    }
}

/** Wall time of one compileBatch() over the whole catalog matrix. */
double
timedBatch(unsigned jobs, const std::string &cache_dir, size_t &ok_out)
{
    BatchOptions options;
    options.jobs = jobs;
    options.cacheDir = cache_dir;
    auto start = std::chrono::steady_clock::now();
    BatchResult result =
        compileBatch(catalogBatchRequests(builtinCores()), options);
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    ok_out = result.okCount();
    return ms;
}

/** The --batch mode: jobs x {cold,warm} scaling over the catalog. */
int
runBatchScaling()
{
    bench::ReportWriter writer("compile_time");
    std::string cache_dir =
        (std::filesystem::temp_directory_path() / "ln_bench_batch_cache")
            .string();

    std::printf("batch compilation scaling: 11 ISAXes x 4 cores = 44 "
                "units (%u hardware thread%s)\n",
                std::thread::hardware_concurrency(),
                std::thread::hardware_concurrency() == 1 ? "" : "s");
    std::printf("%-8s %12s %12s %14s %12s\n", "jobs", "cold [ms]",
                "warm [ms]", "cold vs j1", "warm vs cold");

    double cold_j1 = 0.0;
    for (unsigned jobs : {1u, 2u, 4u, 8u}) {
        std::filesystem::remove_all(cache_dir);
        size_t ok_cold = 0, ok_warm = 0;
        double cold = timedBatch(jobs, cache_dir, ok_cold);
        double warm = timedBatch(jobs, cache_dir, ok_warm);
        if (ok_cold != 44 || ok_warm != 44) {
            std::fprintf(stderr,
                         "error: batch bench expected 44 ok units, got "
                         "%zu cold / %zu warm\n",
                         ok_cold, ok_warm);
            return 1;
        }
        if (jobs == 1)
            cold_j1 = cold;
        double cold_speedup = cold > 0.0 ? cold_j1 / cold : 0.0;
        double warm_speedup = warm > 0.0 ? cold / warm : 0.0;
        std::printf("%-8u %12.1f %12.1f %13.2fx %11.2fx\n", jobs, cold,
                    warm, cold_speedup, warm_speedup);

        std::string prefix = "batch/jobs=" + std::to_string(jobs);
        writer.add(prefix + "/cold", "wall_time", cold, "ms");
        writer.add(prefix + "/warm", "wall_time", warm, "ms");
        writer.add(prefix + "/cold", "speedup_vs_j1", cold_speedup,
                   "x");
        writer.add(prefix + "/warm", "speedup_vs_cold", warm_speedup,
                   "x");
    }
    std::filesystem::remove_all(cache_dir);
    return 0;
}

} // namespace

BENCHMARK_CAPTURE(compileBench, dotp_VexRiscv, "dotp", "VexRiscv");
BENCHMARK_CAPTURE(compileBench, dotp_ORCA, "dotp", "ORCA");
BENCHMARK_CAPTURE(compileBench, zol_VexRiscv, "zol", "VexRiscv");
BENCHMARK_CAPTURE(compileBench, sparkle_Piccolo, "sparkle", "Piccolo");
BENCHMARK_CAPTURE(compileBench, sqrt_tightly_PicoRV32, "sqrt_tightly",
                  "PicoRV32");
BENCHMARK_CAPTURE(compileBench, autoinc_zol_VexRiscv, "autoinc_zol",
                  "VexRiscv");

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--batch") == 0)
        return runBatchScaling();
    ::benchmark::Initialize(&argc, argv);
    if (::benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    ::longnail::bench::ReportWriter writer("compile_time");
    ::longnail::bench::ReportingReporter reporter(writer);
    ::benchmark::RunSpecifiedBenchmarks(&reporter);
    return 0;
}
