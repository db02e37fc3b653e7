/**
 * @file
 * The three workloads (README.md). A run is a closed loop of rounds
 * on one thread, repeated until --seconds have passed (at least
 * `minRounds`). Each round
 *
 *   1. sets up afresh (setup_s is the median over rounds): makes the
 *      seeded inputs, compiles the two kernel ISAXes (autoinc_zol and
 *      sqrt_tightly for VexRiscv) with the workload's options,
 *      assembles the kernels and computes their reference checksums;
 *   2. catalog workloads only: makes one cold compile pass over the
 *      44-unit catalog in a seeded order, one driver::compile per unit;
 *   3. runs each kernel once on the cycle-level VexRiscv model.
 *
 * Repeating the whole cycle spreads every kind of sample over the run,
 * so a burst of machine noise hits few of them. core-sim skips step 2
 * and reports its compile metrics over the two-unit kernel catalog of
 * step 1. A traced run (--trace 1) also replays every compile of step
 * 2 layer by layer (replay.hh) -- on core-sim, a replayed pass over the
 * two kernel units takes its place -- probes the simulator layers
 * directly, and reports only per-layer metrics.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "asic/flow.hh"
#include "bench.hh"
#include "driver/batch.hh"
#include "driver/isax_catalog.hh"
#include "driver/longnail.hh"
#include "obs/obs.hh"
#include "replay.hh"
#include "rtl/sim.hh"
#include "rtl/simjit.hh"

namespace perfbench {

using namespace longnail;

namespace {

struct WorkloadSpec
{
    std::string name;
    unsigned optLevel = 0;
    bool validate = false;
    /** Step 2 (the catalog compile passes) runs. */
    bool catalogPasses = false;
};

const std::vector<WorkloadSpec> &
specs()
{
    static const std::vector<WorkloadSpec> all = {
        {"catalog-O0", 0, false, true},
        {"catalog-O1-validate", 1, true, true},
        {"core-sim", 0, false, false},
    };
    return all;
}

/** For the catalog, p90 over 3 passes x 44 units leaves 13 samples
 * beyond it. */
constexpr int minRounds = 3;

constexpr char kernelCore[] = "VexRiscv";
constexpr uint32_t arrayBase = 0x4000;
/** Elements per kernel run. The ZOL count field is 12 bits wide, so a
 * single zero-overhead loop covers at most 4096 elements. */
constexpr unsigned sec55Elems = 4096;
constexpr unsigned sqrtElems = 1024;
constexpr unsigned tinyElems = 64;

driver::CompileOptions
compileOptions(const WorkloadSpec &spec, const std::string &core)
{
    driver::CompileOptions options;
    options.coreName = core;
    options.optLevel = spec.optLevel;
    options.validate = spec.validate;
    return options;
}

/** One ISAX x core compile: a unit of the catalog. */
struct Unit
{
    const catalog::IsaxEntry *isax = nullptr;
    std::string core;

    std::string label() const { return isax->name + "@" + core; }
};

const catalog::IsaxEntry &
catalogEntry(const std::string &name)
{
    const catalog::IsaxEntry *entry = catalog::findIsax(name);
    if (!entry)
        throw std::runtime_error("catalog has no ISAX '" + name + "'");
    return *entry;
}

/** The 11 ISAXes x 4 cores matrix (VexRiscv only when tiny). */
std::vector<Unit>
catalogUnits(bool tiny)
{
    std::vector<std::string> cores = driver::builtinCores();
    if (tiny)
        cores = {kernelCore};
    std::vector<Unit> units;
    for (const catalog::IsaxEntry &isax : catalog::allIsaxes())
        for (const std::string &core : cores)
            units.push_back({&isax, core});
    return units;
}

/** The two units the kernels run on, in setup order. */
std::vector<Unit>
kernelUnits()
{
    return {{&catalogEntry("autoinc_zol"), kernelCore},
            {&catalogEntry("sqrt_tightly"), kernelCore}};
}

/** Deterministic outputs of one compile: a digest of its artifacts
 * and the hardware they cost. */
struct Artifacts
{
    size_t digest = 0;
    double areaUm2 = 0.0;
    uint64_t regBits = 0;
    uint64_t stages = 0;
};

Artifacts
artifactsOf(const driver::CompiledIsax &compiled)
{
    Artifacts a;
    a.digest = std::hash<std::string>{}(compiled.emitAllVerilog() + "\n" +
                                        compiled.config.emit());
    asic::AsicFlow flow(scaiev::Datasheet::forCore(compiled.coreName));
    for (const driver::CompiledUnit &unit : compiled.units) {
        a.areaUm2 += flow.moduleAreaUm2(unit.module);
        a.stages += uint64_t(unit.makespan);
        const rtl::Module &module = unit.module.module;
        for (const rtl::Node &node : module.nodes())
            if (node.kind == rtl::NodeKind::Register)
                a.regBits += module.widthOf(node.result);
    }
    return a;
}

/** Everything measured over one pass of compiles. */
struct PassTally
{
    double compileMs = 0.0; ///< sum of driver::compile wall times
    double replayMs = 0.0;  ///< sum of replay wall times (traced)
    LayerTimes layers;
    LayerCounts counts;
};

/** Compile statistics over the passes of a run. */
struct CompileStats
{
    std::vector<PassTally> passes;
    std::vector<double> unitMs;
    /** Per-unit artifacts of the first pass (index = unit). */
    std::vector<std::optional<Artifacts>> first;

    Artifacts hwTotal() const
    {
        Artifacts total;
        for (const auto &a : first) {
            if (!a)
                continue;
            total.areaUm2 += a->areaUm2;
            total.regBits += a->regBits;
            total.stages += a->stages;
        }
        return total;
    }
};

/**
 * Cold-compile @p units[@p index] with driver::compile, timed from
 * outside, and check it: ok(), proved under --validate, artifacts
 * identical to the first pass. With @p trace, also replay it layer by
 * layer and check the replay against the driver.
 */
driver::CompiledIsax
compileUnit(const std::vector<Unit> &units, size_t index,
            const WorkloadSpec &spec, bool trace, CompileStats &stats,
            PassTally &pass, Result &result)
{
    const Unit &unit = units[index];
    const std::string label = unit.label();
    driver::CompileOptions options = compileOptions(spec, unit.core);

    Clock::time_point start = Clock::now();
    driver::CompiledIsax compiled =
        driver::compile(unit.isax->source, unit.isax->target, options);
    double ms = msSince(start);
    stats.unitMs.push_back(ms);
    pass.compileMs += ms;

    if (!result.check(compiled.ok(), label + " compiles: " + compiled.errors))
        return compiled;
    if (spec.validate) {
        const driver::PhaseReport &rep = compiled.report;
        result.check(rep.tvUnitsChecked == compiled.units.size() &&
                         rep.tvProved == compiled.units.size() &&
                         rep.tvRefuted == 0,
                     label + " proves every unit under --validate");
    }
    Artifacts artifacts = artifactsOf(compiled);
    if (stats.first.size() < units.size())
        stats.first.resize(units.size());
    if (!stats.first[index])
        stats.first[index] = artifacts;
    else
        result.check(artifacts.digest == stats.first[index]->digest,
                     label + " SV/YAML identical across passes");

    if (trace) {
        Replay replay = replayCompile(unit.isax->source, unit.isax->target,
                                      options, !spec.validate, compiled);
        result.check(replay.mismatch.empty(),
                     label + " replay equals driver::compile: " +
                         replay.mismatch);
        if (!spec.validate) {
            const LayerCounts &c = replay.counts;
            result.check(c.tvUnits == compiled.units.size() &&
                             c.tvProved == c.tvUnits && c.tvRefuted == 0,
                         label + " proves under tv::validateUnit");
        }
        pass.replayMs += replay.wallMs;
        pass.layers.add(replay.times);
        pass.counts.add(replay.counts);
    }
    return compiled;
}

/** Seeded Fisher-Yates permutation of 0..n-1. */
std::vector<size_t>
shuffledOrder(size_t n, Rng &rng)
{
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    for (size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

/** One compile pass over @p units in a seeded order. */
void
runCompilePass(const std::vector<Unit> &units, const WorkloadSpec &spec,
               bool trace, Rng &rng, CompileStats &stats, Result &result)
{
    PassTally pass;
    for (size_t index : shuffledOrder(units.size(), rng))
        compileUnit(units, index, spec, trace, stats, pass, result);
    if (trace && !stats.passes.empty()) {
        const LayerCounts &a = stats.passes.front().counts;
        const LayerCounts &b = pass.counts;
        result.check(a.lpWorkUnits == b.lpWorkUnits &&
                         a.passRewrites == b.passRewrites &&
                         a.netlistNodes == b.netlistNodes &&
                         a.svBytes == b.svBytes,
                     "layer counters identical across passes");
    }
    stats.passes.push_back(pass);
}

/** One kernel: program, size and plain-C++ reference checksum. */
struct Kernel
{
    std::vector<uint32_t> words;
    unsigned elems = 0;
    uint32_t expected = 0;
};

/** The setup's products: the compiled kernel ISAXes and kernels. */
struct KernelSet
{
    driver::CompiledIsax autoincZol;
    driver::CompiledIsax sqrt;
    std::shared_ptr<cores::IsaxBundle> autoincZolBundle;
    std::shared_ptr<cores::IsaxBundle> sqrtBundle;
    std::vector<uint32_t> array;
    Kernel sec55;
    Kernel sqrtSum;
};

/** floor(sqrt(v)), computed independently of the ISAX's algorithm. */
uint64_t
isqrt64(uint64_t v)
{
    using u128 = unsigned __int128;
    uint64_t r = uint64_t(std::sqrt(double(v)));
    while (r > 0 && u128(r) * r > v)
        --r;
    while (u128(r + 1) * (r + 1) <= v)
        ++r;
    return r;
}

/** The Sec. 5.5 loop (lw_autoinc; add) under the ZOL, optionally with
 * sqrt applied to each element. END_PC = setup_zol + 2 * uimmS. */
std::string
kernelSource(unsigned elems, bool with_sqrt)
{
    std::string src = "    li a0, " + std::to_string(arrayBase) + "\n" +
                      "    setup_autoinc a0\n" + "    li s0, 0\n" +
                      "    setup_zol " + std::to_string(elems - 1) + ", " +
                      (with_sqrt ? "6" : "4") + "\n" +
                      "    lw_autoinc t0\n";
    if (with_sqrt)
        src += "    sqrt t0, t0\n";
    return src + "    add s0, s0, t0\n    ecall\n";
}

/** Step 1 of a round; its two compiles form one pass of @p stats over
 * kernelUnits(). */
std::unique_ptr<KernelSet>
setupKernels(const WorkloadSpec &spec, const Args &args,
             CompileStats &stats, Result &result)
{
    auto ks = std::make_unique<KernelSet>();
    unsigned sec55_elems = args.tiny ? tinyElems : sec55Elems;
    unsigned sqrt_elems = args.tiny ? tinyElems : sqrtElems;

    Rng rng(args.seed);
    ks->array.resize(std::max(sec55_elems, sqrt_elems));
    for (uint32_t &word : ks->array)
        word = uint32_t(rng.next());

    std::vector<Unit> units = kernelUnits();
    PassTally pass;
    ks->autoincZol = compileUnit(units, 0, spec, false, stats, pass, result);
    ks->sqrt = compileUnit(units, 1, spec, false, stats, pass, result);
    stats.passes.push_back(pass);
    if (!ks->autoincZol.ok() || !ks->sqrt.ok())
        throw std::runtime_error("kernel ISAXes failed to compile");
    ks->autoincZolBundle = ks->autoincZol.makeBundle();
    ks->sqrtBundle = ks->sqrt.makeBundle();

    rvasm::Assembler assembler;
    driver::registerIsaxMnemonics(assembler, *ks->autoincZol.isa);
    driver::registerIsaxMnemonics(assembler, *ks->sqrt.isa);
    auto assemble = [&](Kernel &kernel, unsigned elems, bool with_sqrt) {
        rvasm::Program program =
            assembler.assemble(kernelSource(elems, with_sqrt), 0);
        if (!result.check(program.ok, "kernel assembles: " + program.error))
            throw std::runtime_error("kernel assembly failed");
        kernel.words = program.words;
        kernel.elems = elems;
        uint32_t sum = 0;
        for (unsigned i = 0; i < elems; ++i)
            sum += with_sqrt ? uint32_t(isqrt64(uint64_t(ks->array[i]) << 32))
                             : ks->array[i];
        kernel.expected = sum;
    };
    assemble(ks->sec55, sec55_elems, false);
    assemble(ks->sqrtSum, sqrt_elems, true);
    return ks;
}

struct KernelRun
{
    cores::RunStats stats;
    double ms = 0.0;
    uint32_t sum = 0;
};

/** Run @p kernel on a fresh VexRiscv with the Sec. 5.5 bus
 * calibration (2 iBus, 6 dBus wait states); only Core::run is timed. */
KernelRun
runKernel(const KernelSet &ks, const Kernel &kernel)
{
    cores::CoreTiming timing;
    timing.fetchWaitStates = 2;
    timing.bus.loadWaitStates = 6;
    cores::Core core(scaiev::Datasheet::forCore(kernelCore), timing);
    core.attachIsax(ks.autoincZolBundle);
    core.attachIsax(ks.sqrtBundle);
    core.loadProgram(kernel.words, 0);
    for (unsigned i = 0; i < kernel.elems; ++i)
        core.memory().writeWord(arrayBase + 4 * i, ks.array[i]);
    KernelRun run;
    Clock::time_point start = Clock::now();
    run.stats = core.run(100'000'000);
    run.ms = msSince(start);
    run.sum = core.reg(8); // s0
    return run;
}

struct KernelStats
{
    std::vector<double> mcyclesPerS;
    std::vector<double> runMs;
    uint64_t cycles = 0;
    uint64_t stallCycles = 0;
    unsigned elems = 0;
};

/** Run @p kernel once, checking its checksum against the reference
 * and that its simulated cycle count never varies. */
void
measureKernel(const KernelSet &ks, const Kernel &kernel, const char *name,
              KernelStats &stats, Result &result)
{
    KernelRun run = runKernel(ks, kernel);
    result.check(run.stats.halted && run.sum == kernel.expected,
                 std::string(name) + " checksum equals reference");
    if (stats.runMs.empty()) {
        stats.cycles = run.stats.cycles;
        stats.stallCycles = run.stats.stallCycles;
        stats.elems = kernel.elems;
    } else {
        result.check(run.stats.cycles == stats.cycles,
                     std::string(name) + " cycle count repeats");
    }
    stats.runMs.push_back(run.ms);
    stats.mcyclesPerS.push_back(double(run.stats.cycles) / (run.ms * 1e3));
}

const driver::CompiledUnit &
findUnit(const driver::CompiledIsax &compiled,
         const std::function<bool(const driver::CompiledUnit &)> &pred)
{
    for (const driver::CompiledUnit &unit : compiled.units)
        if (pred(unit))
            return unit;
    throw std::runtime_error("unit not found in " + compiled.name);
}

/** Median of @p reps timings of @p fn, each divided by @p per. */
double
medianTiming(int reps, double per, const std::function<void()> &fn)
{
    std::vector<double> samples;
    for (int i = 0; i < reps; ++i) {
        Clock::time_point start = Clock::now();
        fn();
        samples.push_back(msSince(start) / per);
    }
    return median(samples);
}

/** The traced probes of the rtl layer (simjit and Simulator). */
void
probeRtl(const KernelSet &ks, bool tiny, Result &result)
{
    const int reps = tiny ? 1 : 5;
    std::vector<const rtl::Module *> modules;
    for (const driver::CompiledIsax *isax : {&ks.autoincZol, &ks.sqrt})
        for (const driver::CompiledUnit &unit : isax->units)
            modules.push_back(&unit.module.module);
    uint64_t program_ops = 0;
    double compile_ms = medianTiming(reps, 1.0, [&] {
        program_ops = 0;
        for (const rtl::Module *module : modules)
            program_ops += rtl::simjit::Program::compile(*module)->numOps();
    });

    const rtl::Module &sqrt_module =
        findUnit(ks.sqrt, [](const auto &u) { return u.name == "sqrt"; })
            .module.module;
    const rtl::Module &zol_module =
        findUnit(ks.autoincZol, [](const auto &u) { return u.isAlways; })
            .module.module;
    auto sqrt_program = rtl::simjit::Program::compile(sqrt_module);
    auto zol_program = rtl::simjit::Program::compile(zol_module);

    const int constructs = tiny ? 10 : 200;
    double sim_new_us = 1e3 * medianTiming(reps, constructs, [&] {
        for (int i = 0; i < constructs; ++i)
            rtl::Simulator sim(sqrt_module, sqrt_program);
    });
    const int ticks = tiny ? 100 : 20000;
    auto tick_ns = [&](const rtl::Module &module,
                       const std::shared_ptr<const rtl::simjit::Program>
                           &program) {
        rtl::Simulator sim(module, program);
        sim.reset();
        return 1e6 * medianTiming(reps, ticks, [&] {
                   for (int i = 0; i < ticks; ++i)
                       sim.tick();
               });
    };
    result.add("rtl.program_compile_ms", compile_ms, "ms");
    result.add("rtl.program_ops", double(program_ops), "count");
    result.add("rtl.sim_new_us.sqrt", sim_new_us, "us");
    result.add("rtl.tick_ns.sqrt", tick_ns(sqrt_module, sqrt_program), "ns");
    result.add("rtl.tick_ns.autoinc_zol", tick_ns(zol_module, zol_program),
               "ns");
}

/** Per-layer metrics of the traced compile passes. */
void
addLayerMetrics(const CompileStats &stats, Result &result)
{
    auto med = [&](const std::function<double(const PassTally &)> &f) {
        std::vector<double> values;
        for (const PassTally &pass : stats.passes)
            values.push_back(f(pass));
        return median(values);
    };
    const LayerCounts &c = stats.passes.front().counts;
    result.add("sched.ms", med([](auto &p) { return p.layers.sched; }),
               "ms");
    result.add("sched.solve_ms_max",
               med([](auto &p) { return p.layers.solveMax; }), "ms");
    result.add("sched.lp_work_units", double(c.lpWorkUnits), "count");
    result.add("sched.ops", double(c.schedOps), "count");
    result.add("sched.deps", double(c.schedDeps), "count");
    result.add("sched.fallbacks", double(c.fallbacks), "count");
    result.add("passes.ms", med([](auto &p) { return p.layers.passes; }),
               "ms");
    result.add("passes.rewrites", double(c.passRewrites), "count");
    result.add("passes.proved", double(c.passProved), "count");
    result.add("passes.cosim_agreed", double(c.passCosimAgreed), "count");
    result.add("tv.ms", med([](auto &p) {
                   return p.layers.tv + p.layers.tvCheck;
               }),
               "ms");
    result.add("tv.proved", double(c.tvProved), "count");
    result.add("tv.refuted", double(c.tvRefuted), "count");
    result.add("tv.cex_cycles", double(c.tvCexCycles), "count");
    result.add("coredsl.sema_ms",
               med([](auto &p) { return p.layers.sema; }), "ms");
    result.add("hir.lower_ms",
               med([](auto &p) { return p.layers.hirLower; }), "ms");
    result.add("lil.lower_ms",
               med([](auto &p) { return p.layers.lilLower; }), "ms");
    result.add("analysis.lint_ms",
               med([](auto &p) { return p.layers.lint; }), "ms");
    result.add("hwgen.ms", med([](auto &p) { return p.layers.hwgen; }),
               "ms");
    result.add("hwgen.netlist_nodes", double(c.netlistNodes), "count");
    result.add("hwgen.sv_bytes", double(c.svBytes), "count");
    result.add("ir.hir_ops", double(c.hirOps), "count");
    result.add("ir.lil_ops", double(c.lilOps), "count");
    result.add("ir.lil_ops_opt", double(c.lilOpsOpt), "count");
}

void
addTraceQuality(const CompileStats &stats, Result &result)
{
    double layer_ms = 0.0, compile_ms = 0.0;
    std::vector<double> compile_pass, replay_pass;
    for (const PassTally &pass : stats.passes) {
        layer_ms += pass.layers.sum();
        compile_ms += pass.compileMs;
        compile_pass.push_back(pass.compileMs);
        replay_pass.push_back(pass.replayMs);
    }
    result.add("trace.coverage", layer_ms / compile_ms, "ratio");
    result.add("trace.overhead_pct",
               100.0 * (median(replay_pass) / median(compile_pass) - 1.0),
               "%");
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const WorkloadSpec &spec : specs())
            out.push_back(spec.name);
        return out;
    }();
    return names;
}

void
runWorkload(const Args &args, Result &result)
{
    const WorkloadSpec &spec = *std::find_if(
        specs().begin(), specs().end(),
        [&](const WorkloadSpec &s) { return s.name == args.workload; });

    std::vector<Unit> pass_units;
    if (spec.catalogPasses)
        pass_units = catalogUnits(args.tiny);
    else if (args.trace)
        pass_units = kernelUnits();
    Rng order_rng(args.seed ^ 0x6f72646572ull);
    CompileStats setup_compiles, loop_compiles;
    std::vector<double> setup_ms;
    std::unique_ptr<KernelSet> ks;
    KernelStats sec55, sqrt_sum;
    Clock::time_point start = Clock::now();
    for (int round = 0;
         round < minRounds || msSince(start) < args.seconds * 1e3;
         ++round) {
        Clock::time_point setup_start = Clock::now();
        ks = setupKernels(spec, args, setup_compiles, result);
        setup_ms.push_back(msSince(setup_start));
        if (!pass_units.empty())
            runCompilePass(pass_units, spec, args.trace, order_rng,
                           loop_compiles, result);
        measureKernel(*ks, ks->sec55, "sec55 kernel", sec55, result);
        measureKernel(*ks, ks->sqrtSum, "sqrt kernel", sqrt_sum, result);
    }
    const CompileStats &compiles =
        loop_compiles.passes.empty() ? setup_compiles : loop_compiles;

    std::fprintf(stderr,
                 "perfbench: workload=%s seed=%llu trace=%d passes=%zu "
                 "unit_samples=%zu rounds=%zu\n",
                 spec.name.c_str(), (unsigned long long)args.seed,
                 int(args.trace), compiles.passes.size(),
                 compiles.unitMs.size(), setup_ms.size());
    std::fprintf(stderr, "perfbench: pass_ms");
    for (const PassTally &pass : compiles.passes)
        std::fprintf(stderr, " %.1f", pass.compileMs);
    std::fprintf(stderr, "\n");

    if (args.trace) {
        addLayerMetrics(compiles, result);
        probeRtl(*ks, args.tiny, result);
        result.add("cores.run_ms.sec55", median(sec55.runMs), "ms");
        result.add("cores.run_ms.sqrt", median(sqrt_sum.runMs), "ms");
        result.add("cores.stall_frac.sqrt",
                   double(sqrt_sum.stallCycles) / double(sqrt_sum.cycles),
                   "ratio");
        addTraceQuality(compiles, result);
        return;
    }

    std::vector<double> pass_s;
    for (const PassTally &pass : compiles.passes)
        pass_s.push_back(pass.compileMs / 1e3);
    Artifacts hw = compiles.hwTotal();
    result.add("setup_s", median(setup_ms) / 1e3, "s");
    result.add("peak_rss_mb", double(obs::peakRssKb()) / 1024.0, "MB");
    result.add("catalog_s", median(pass_s), "s");
    result.add("unit_ms_p50", median(compiles.unitMs), "ms");
    result.add("unit_ms_p90", percentile(compiles.unitMs, 90.0), "ms");
    result.add("hw_area_um2", hw.areaUm2, "um2");
    result.add("hw_reg_bits", double(hw.regBits), "bits");
    result.add("hw_stages", double(hw.stages), "stages");
    result.add("sec55_mcycles_per_s", median(sec55.mcyclesPerS),
               "Mcycles/s");
    result.add("sqrt_mcycles_per_s", median(sqrt_sum.mcyclesPerS),
               "Mcycles/s");
    result.add("sec55_cycles_per_elem",
               double(sec55.cycles) / double(sec55.elems), "cycles/elem");
    result.add("sqrt_cycles_per_elem",
               double(sqrt_sum.cycles) / double(sqrt_sum.elems),
               "cycles/elem");
}

} // namespace perfbench
