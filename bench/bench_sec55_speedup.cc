/**
 * @file
 * Regenerates the Sec. 5.5 case study: summing an n-element integer
 * array held in memory on VexRiscv, baseline RV32I vs. the autoinc+zol
 * ISAX combination.
 *
 * The paper reports 18n+50 cycles for the baseline and 11n+50 for the
 * ISAX version (>60% speed-up at ~16% area). We run both programs on
 * the cycle-level VexRiscv model for a sweep of n, fit the linear
 * cycle model, and print the series next to the paper's.
 *
 * Bus calibration: the paper's platform is uncached; with 2 iBus fetch
 * wait states and 6 dBus load wait states the baseline lands exactly on
 * the paper's 18 cycles/element (see EXPERIMENTS.md).
 *
 * It also records the core model's own throughput (simulated Mcycles
 * per wall-clock second of Core::run) for both programs at the largest
 * n, so the cost of cycle-level simulation is tracked too.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "asic/flow.hh"
#include "bench/report.hh"
#include "driver/longnail.hh"

using namespace longnail;
using namespace longnail::driver;

namespace {

constexpr uint32_t arrayBase = 0x4000;

std::string
baselineProgram(unsigned n)
{
    return "    li a0, " + std::to_string(arrayBase) + "\n" +
           "    li t1, " + std::to_string(n) + "\n" +
           R"(    li s0, 0
loop:
    lw t0, 0(a0)
    add s0, s0, t0
    addi a0, a0, 4
    addi t1, t1, -1
    bnez t1, loop
    ecall
)";
}

std::string
isaxProgram(unsigned n)
{
    // Loop body: lw_autoinc + add (2 instructions); ZOL executes it
    // n times with zero branch overhead.
    return "    li a0, " + std::to_string(arrayBase) + "\n" +
           "    setup_autoinc a0\n" +
           "    li s0, 0\n" +
           "    setup_zol " + std::to_string(n - 1) + ", 4\n" +
           R"(    lw_autoinc t0
    add s0, s0, t0
    ecall
)";
}

struct ProgramRun
{
    uint64_t cycles = 0;
    uint32_t sum = 0;          ///< s0 at the end
    double mcyclesPerS = 0.0;  ///< simulated Mcycles per second of run()
};

ProgramRun
runProgram(const CompiledIsax *isax, const std::string &source, unsigned n)
{
    cores::CoreTiming timing;
    timing.fetchWaitStates = 2;
    timing.bus.loadWaitStates = 6;

    rvasm::Assembler as;
    if (isax)
        registerIsaxMnemonics(as, *isax->isa);
    rvasm::Program program = as.assemble(source, 0);
    if (!program.ok) {
        std::fprintf(stderr, "assembly failed: %s\n",
                     program.error.c_str());
        return {};
    }

    cores::Core core(scaiev::Datasheet::forCore("VexRiscv"), timing);
    if (isax)
        core.attachIsax(isax->makeBundle());
    core.loadProgram(program.words, 0);
    for (unsigned i = 0; i < n; ++i)
        core.memory().writeWord(arrayBase + i * 4, i * 7 + 3);
    auto start = std::chrono::steady_clock::now();
    cores::RunStats stats = core.run(10'000'000);
    std::chrono::duration<double, std::micro> us =
        std::chrono::steady_clock::now() - start;
    if (!stats.halted)
        std::fprintf(stderr, "program did not halt!\n");
    ProgramRun run;
    run.cycles = stats.cycles;
    run.sum = core.reg(8); // s0
    run.mcyclesPerS = us.count() > 0 ? double(stats.cycles) / us.count() : 0;
    return run;
}

/** Median simulated Mcycles/s over @p reps runs: one run of a few
 * thousand cycles takes only milliseconds. */
double
medianMcyclesPerS(const CompiledIsax *isax, const std::string &source,
                  unsigned n, int reps = 21)
{
    std::vector<double> samples;
    for (int i = 0; i < reps; ++i)
        samples.push_back(runProgram(isax, source, n).mcyclesPerS);
    std::nth_element(samples.begin(), samples.begin() + reps / 2,
                     samples.end());
    return samples[size_t(reps / 2)];
}

} // namespace

int
main()
{
    CompileOptions options;
    options.coreName = "VexRiscv";
    CompiledIsax compiled = compileCatalogIsax("autoinc_zol", options);
    if (!compiled.ok()) {
        std::fprintf(stderr, "compile failed: %s\n",
                     compiled.errors.c_str());
        return 1;
    }

    std::printf("Sec. 5.5 case study: n-element array sum on VexRiscv\n");
    std::printf("paper: baseline 18n+50 cycles, autoinc+zol 11n+50 "
                "cycles\n\n");
    std::printf("%6s %12s %12s %9s | %10s %10s %9s\n", "n", "base(cyc)",
                "isax(cyc)", "speedup", "paper base", "paper isax",
                "speedup");

    std::vector<unsigned> sizes = {8, 16, 32, 64, 128, 256};
    std::vector<std::pair<unsigned, uint64_t>> base_points, isax_points;
    for (unsigned n : sizes) {
        ProgramRun base = runProgram(nullptr, baselineProgram(n), n);
        ProgramRun isax = runProgram(&compiled, isaxProgram(n), n);
        if (base.sum != isax.sum)
            std::fprintf(stderr,
                         "MISMATCH at n=%u: base=%u isax=%u\n", n,
                         base.sum, isax.sum);
        base_points.emplace_back(n, base.cycles);
        isax_points.emplace_back(n, isax.cycles);
        std::printf("%6u %12llu %12llu %8.2fx | %10u %10u %8.2fx\n", n,
                    (unsigned long long)base.cycles,
                    (unsigned long long)isax.cycles,
                    double(base.cycles) / double(isax.cycles),
                    18 * n + 50, 11 * n + 50,
                    double(18 * n + 50) / double(11 * n + 50));
    }

    // Linear fit from the two largest points: cycles = a*n + b.
    auto fit = [](const std::vector<std::pair<unsigned, uint64_t>> &pts) {
        auto [n1, c1] = pts[pts.size() - 2];
        auto [n2, c2] = pts[pts.size() - 1];
        double a = double(c2 - c1) / double(n2 - n1);
        double b = double(c1) - a * double(n1);
        return std::make_pair(a, b);
    };
    auto [ba, bb] = fit(base_points);
    auto [ia, ib] = fit(isax_points);
    std::printf("\nmeasured cycle models: baseline %.1fn%+.0f, "
                "autoinc+zol %.1fn%+.0f (paper: 18n+50 / 11n+50)\n", ba,
                bb, ia, ib);
    std::printf("asymptotic speedup: %.2fx (paper: %.2fx)\n", ba / ia,
                18.0 / 11.0);

    unsigned largest = sizes.back();
    double base_mcps =
        medianMcyclesPerS(nullptr, baselineProgram(largest), largest);
    double isax_mcps =
        medianMcyclesPerS(&compiled, isaxProgram(largest), largest);
    std::printf("core simulation at n=%u: baseline %.2f Mcycles/s, "
                "autoinc+zol %.2f Mcycles/s\n",
                largest, base_mcps, isax_mcps);

    bench::ReportWriter report("sec55");
    report.add("baseline", "cycles_per_element", ba, "cycles");
    report.add("autoinc_zol", "cycles_per_element", ia, "cycles");
    report.add("autoinc_zol", "asymptotic_speedup", ba / ia, "ratio");
    report.add("baseline", "sim_mcycles_per_s", base_mcps, "Mcycles/s");
    report.add("autoinc_zol", "sim_mcycles_per_s", isax_mcps,
               "Mcycles/s");

    // Area cost of the speedup (the paper quotes ~16% for ~60% gain).
    std::vector<const hwgen::GeneratedModule *> modules;
    for (const auto &unit : compiled.units)
        modules.push_back(&unit.module);
    asic::AsicFlow flow(scaiev::Datasheet::forCore("VexRiscv"));
    asic::SynthesisResult base = flow.synthesizeBase();
    asic::SynthesisResult ext =
        flow.synthesizeExtended("autoinc_zol", modules);
    std::printf("chip area cost: %+.0f%% (paper: +16%%), fmax delta: "
                "%+.0f%%\n",
                ext.areaOverheadPercent(base),
                ext.freqDeltaPercent(base));
    report.add("autoinc_zol", "area_overhead",
               ext.areaOverheadPercent(base), "percent");
    return 0;
}
