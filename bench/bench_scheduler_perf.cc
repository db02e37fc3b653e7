/**
 * @file
 * Supporting performance benchmark (google-benchmark): the cost of the
 * exact Fig. 7 ILP scheduler vs. the ASAP baseline, on the real ISAX
 * scheduling problems and on synthetic DAGs of growing size.
 */

#include <benchmark/benchmark.h>

#include <random>

#include "bench/gbench_report.hh"
#include "driver/longnail.hh"
#include "sched/scheduler.hh"

using namespace longnail;
using namespace longnail::sched;

namespace {

void
scheduleIsaxBench(benchmark::State &state, const std::string &isax,
                  const std::string &core_name, unsigned opt_level,
                  bool use_ilp)
{
    // The LIL as the driver schedules it, after the -O pass pipeline.
    driver::CompileOptions options;
    options.coreName = core_name;
    options.optLevel = opt_level;
    driver::CompiledIsax compiled =
        driver::compileCatalogIsax(isax, options);
    if (!compiled.ok()) {
        state.SkipWithError(compiled.errors.c_str());
        return;
    }
    const lil::LilGraph *graph = compiled.lilModule->graphs.front().get();
    TechLibrary tech(TimingMode::Uniform);
    const auto &core = scaiev::Datasheet::forCore(core_name);
    uint64_t work_units = 0;
    for (auto _ : state) {
        BuiltProblem built = buildProblem(*graph, core, tech);
        computeChainBreakers(built.problem);
        std::string err =
            use_ilp ? scheduleOptimal(built.problem, 0, &work_units)
                    : scheduleAsap(built.problem);
        benchmark::DoNotOptimize(err);
    }
    state.counters["lp_work_units"] = double(work_units);
    state.SetLabel(std::to_string(
        buildProblem(*graph, core, tech).problem.numOperations()) +
        " ops");
}

/** Random layered DAG scheduling problem. */
LongnailProblem
syntheticProblem(unsigned num_ops, unsigned seed)
{
    std::mt19937 rng(seed);
    LongnailProblem p;
    p.setCycleTime(1.5);
    for (unsigned i = 0; i < num_ops; ++i) {
        OperatorType type;
        type.name = "op" + std::to_string(i);
        type.outgoingDelay = 0.1 + 0.1 * double(rng() % 4);
        p.addOperatorType(type);
        p.addOperation({"op" + std::to_string(i), i, {}, {}});
        unsigned edges = i == 0 ? 0 : 1 + rng() % 2;
        for (unsigned e = 0; e < edges && i > 0; ++e)
            p.addDependence(rng() % i, i);
    }
    return p;
}

void
BM_IlpSyntheticDag(benchmark::State &state)
{
    unsigned n = unsigned(state.range(0));
    for (auto _ : state) {
        LongnailProblem p = syntheticProblem(n, 7);
        computeChainBreakers(p);
        std::string err = scheduleOptimal(p);
        benchmark::DoNotOptimize(err);
    }
}

} // namespace

BENCHMARK_CAPTURE(scheduleIsaxBench, dotp_ilp, "dotp", "VexRiscv", 0,
                  true);
BENCHMARK_CAPTURE(scheduleIsaxBench, dotp_asap, "dotp", "VexRiscv", 0,
                  false);
BENCHMARK_CAPTURE(scheduleIsaxBench, sparkle_ilp, "sparkle", "VexRiscv",
                  0, true);
BENCHMARK_CAPTURE(scheduleIsaxBench, sparkle_asap, "sparkle", "VexRiscv",
                  0, false);
BENCHMARK_CAPTURE(scheduleIsaxBench, sqrt_ilp, "sqrt_tightly", "VexRiscv",
                  0, true);
BENCHMARK_CAPTURE(scheduleIsaxBench, sqrt_asap, "sqrt_tightly",
                  "VexRiscv", 0, false);
// The catalog's slowest LPs: sqrt on the two cores whose schedules
// have the most shortest-path cost levels, before and after the -O1
// pass pipeline.
BENCHMARK_CAPTURE(scheduleIsaxBench, sqrt_ilp_ORCA_O0, "sqrt_tightly",
                  "ORCA", 0, true);
BENCHMARK_CAPTURE(scheduleIsaxBench, sqrt_ilp_ORCA_O1, "sqrt_tightly",
                  "ORCA", 1, true);
BENCHMARK_CAPTURE(scheduleIsaxBench, sqrt_ilp_PicoRV32_O0, "sqrt_tightly",
                  "PicoRV32", 0, true);
BENCHMARK_CAPTURE(scheduleIsaxBench, sqrt_ilp_PicoRV32_O1, "sqrt_tightly",
                  "PicoRV32", 1, true);
BENCHMARK(BM_IlpSyntheticDag)->Arg(100)->Arg(400)->Arg(1600);

LONGNAIL_BENCHMARK_MAIN("scheduler_perf")
