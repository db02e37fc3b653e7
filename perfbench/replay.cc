#include "replay.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "analysis/lint.hh"
#include "analysis/tv/tv.hh"
#include "analysis/verifier.hh"
#include "bench.hh"
#include "coredsl/sema.hh"
#include "hir/astlower.hh"
#include "hir/transforms.hh"
#include "hwgen/hwgen.hh"
#include "lil/lil.hh"
#include "passes/passes.hh"
#include "rtl/verilog.hh"
#include "sched/scheduler.hh"

namespace perfbench {

using namespace longnail;

double
LayerTimes::sum() const
{
    return sema + hirLower + lilLower + lint + passes + sched + hwgen + tv;
}

void
LayerTimes::add(const LayerTimes &o)
{
    sema += o.sema;
    hirLower += o.hirLower;
    lilLower += o.lilLower;
    lint += o.lint;
    passes += o.passes;
    sched += o.sched;
    solveMax = std::max(solveMax, o.solveMax);
    hwgen += o.hwgen;
    tv += o.tv;
    tvCheck += o.tvCheck;
}

void
LayerCounts::add(const LayerCounts &o)
{
    lpWorkUnits += o.lpWorkUnits;
    schedOps += o.schedOps;
    schedDeps += o.schedDeps;
    fallbacks += o.fallbacks;
    passRewrites += o.passRewrites;
    passProved += o.passProved;
    passCosimAgreed += o.passCosimAgreed;
    tvUnits += o.tvUnits;
    tvProved += o.tvProved;
    tvRefuted += o.tvRefuted;
    tvCexCycles += o.tvCexCycles;
    netlistNodes += o.netlistNodes;
    svBytes += o.svBytes;
    hirOps += o.hirOps;
    lilOps += o.lilOps;
    lilOpsOpt += o.lilOpsOpt;
}

namespace {

/** Run @p fn, adding its wall time to @p acc_ms. */
template <typename Fn>
void
timed(double &acc_ms, Fn &&fn)
{
    Clock::time_point start = Clock::now();
    fn();
    acc_ms += msSince(start);
}

/** What the replay produced for one unit, compared after timing. */
struct UnitOutput
{
    std::string name;
    int makespan = 0;
    double objective = 0.0;
    std::string systemVerilog;
};

/** The replay proper; returns early (leaving outputs short) when a
 * layer reports errors, which the comparison then flags. */
void
replayInto(Replay &r, std::vector<UnitOutput> &outputs,
           scaiev::ScaievConfig &config, DiagnosticEngine &diags,
           const std::string &source, const std::string &target,
           const driver::CompileOptions &options, bool check_tv)
{
    const scaiev::Datasheet *sheet =
        scaiev::Datasheet::findCore(options.coreName);
    if (!sheet)
        return;
    LayerTimes &t = r.times;
    LayerCounts &c = r.counts;

    std::unique_ptr<coredsl::ElaboratedIsa> isa;
    timed(t.sema, [&] {
        coredsl::SemaOptions sema_options;
        sema_options.baseSetName = options.baseSetName;
        coredsl::Sema sema(diags, coredsl::builtinSourceProvider(),
                           sema_options);
        isa = sema.analyze(source, target);
    });
    if (!isa)
        return;

    std::unique_ptr<hir::HirModule> hir_module;
    timed(t.hirLower,
          [&] { hir_module = hir::lowerToHir(*isa, diags); });
    if (!hir_module)
        return;
    for (const auto &instr : hir_module->instructions)
        c.hirOps += instr->body.ops().size();
    for (const auto &blk : hir_module->alwaysBlocks)
        c.hirOps += blk->body.ops().size();

    timed(t.lint, [&] {
        analysis::verifyHirModule(*hir_module, diags);
        analysis::checkHirModule(*hir_module, diags);
    });
    if (diags.hasErrors())
        return;
    timed(t.hirLower, [&] {
        for (auto &instr : hir_module->instructions)
            hir::canonicalize(instr->body);
        for (auto &blk : hir_module->alwaysBlocks)
            hir::canonicalize(blk->body);
    });

    std::unique_ptr<lil::LilModule> lil_module;
    timed(t.lilLower,
          [&] { lil_module = lil::lowerToLil(*hir_module, diags); });
    if (!lil_module)
        return;
    for (const auto &graph : lil_module->graphs)
        c.lilOps += graph->graph.ops().size();

    timed(t.lint, [&] {
        analysis::verifyLilModule(*lil_module, diags);
        if (!diags.hasErrors())
            analysis::checkLilModule(*lil_module, *sheet, diags);
    });
    if (diags.hasErrors())
        return;

    if (options.optLevel >= 1) {
        passes::PipelineOptions pipeline_options;
        pipeline_options.validate = options.validate;
        passes::PipelineResult pres;
        timed(t.passes, [&] {
            pres = passes::runPipeline(*lil_module, pipeline_options,
                                       diags);
        });
        c.passRewrites += pres.totalRewrites;
        c.passProved += pres.proved;
        c.passCosimAgreed += pres.cosimAgreed;
        if (pres.refuted || diags.hasErrors())
            return;
    }
    for (const auto &graph : lil_module->graphs)
        c.lilOpsOpt += graph->graph.ops().size();

    sched::TechLibrary tech(options.timingMode);
    config.isaxName = isa->name;
    config.coreName = options.coreName;
    for (const auto &graph : lil_module->graphs) {
        sched::BuiltProblem built;
        sched::ScheduleOutcome outcome;
        timed(t.sched, [&] {
            built = sched::buildProblem(*graph, *sheet, tech,
                                        options.cycleTimeNs);
            sched::computeChainBreakers(built.problem);
            Clock::time_point solve_start = Clock::now();
            outcome = sched::scheduleWithFallback(built.problem,
                                                  options.schedBudget);
            t.solveMax = std::max(t.solveMax, msSince(solve_start));
        });
        c.lpWorkUnits += outcome.lpWorkUnits;
        c.schedOps += built.problem.numOperations();
        c.schedDeps += built.problem.numDependences();
        if (!outcome.ok())
            return;
        if (outcome.quality != sched::ScheduleQuality::Optimal)
            ++c.fallbacks;
        timed(t.sched, [&] {
            sched::sinkZeroDelayOps(built.problem);
            (void)built.problem.verify();
        });
        timed(t.lint, [&] {
            analysis::verifyAfterTransform(graph->graph, "sched");
        });

        UnitOutput out;
        out.name = graph->name;
        out.makespan = built.problem.makespan();
        out.objective = built.problem.objectiveValue();
        hwgen::GeneratedModule module;
        scaiev::ConfigFunctionality fn;
        timed(t.hwgen, [&] {
            module = hwgen::generateModule(*graph, built, *sheet, *isa);
            out.systemVerilog = rtl::emitVerilog(module.module);
            fn.schedule = hwgen::scheduleEntries(module);
        });
        fn.name = graph->name;
        fn.isAlways = graph->isAlways;
        fn.mask = graph->maskString;
        config.functionality.push_back(std::move(fn));
        c.netlistNodes += module.module.nodes().size();
        c.svBytes += out.systemVerilog.size();

        if (options.validate || check_tv) {
            analysis::tv::UnitResult tv;
            timed(options.validate ? t.tv : t.tvCheck, [&] {
                tv = analysis::tv::validateUnit(*graph, built, module,
                                                *sheet, tech,
                                                outcome.quality, *isa,
                                                diags);
            });
            ++c.tvUnits;
            c.tvProved += tv.proved();
            c.tvRefuted += !tv.ok();
            c.tvCexCycles += tv.equiv.cexCycles;
        }
        outputs.push_back(std::move(out));
    }

    for (const auto &state : isa->state) {
        if (state.isCoreState || state.isConst ||
            state.kind != coredsl::StateInfo::Kind::Register)
            continue;
        config.registers.push_back(
            {state.name, state.elementType.width, state.numElements});
    }
}

} // namespace

Replay
replayCompile(const std::string &source, const std::string &target,
              const driver::CompileOptions &options, bool check_tv,
              const driver::CompiledIsax &reference)
{
    Replay r;
    std::vector<UnitOutput> outputs;
    scaiev::ScaievConfig config;
    DiagnosticEngine diags;
    Clock::time_point start = Clock::now();
    replayInto(r, outputs, config, diags, source, target, options,
               check_tv);
    r.wallMs = msSince(start) - r.times.tvCheck;

    auto mismatch = [&](const std::string &what) {
        if (r.mismatch.empty())
            r.mismatch = what;
    };
    if (diags.hasErrors())
        mismatch("replay reported errors: " + diags.str());
    if (outputs.size() != reference.units.size())
        mismatch("unit count " + std::to_string(outputs.size()) + " vs " +
                 std::to_string(reference.units.size()));
    for (size_t i = 0; i < std::min(outputs.size(), reference.units.size());
         ++i) {
        const UnitOutput &got = outputs[i];
        const driver::CompiledUnit &want = reference.units[i];
        if (got.name != want.name || got.objective != want.objective ||
            got.makespan != want.makespan)
            mismatch(want.name + ": schedule differs");
        if (got.systemVerilog != want.systemVerilog)
            mismatch(want.name + ": SystemVerilog differs");
    }
    if (config.emit() != reference.config.emit())
        mismatch("SCAIE-V YAML differs");
    const driver::PhaseReport &rep = reference.report;
    if (r.counts.hirOps != rep.hirOps || r.counts.lilOps != rep.lilOps ||
        r.counts.lilOpsOpt != rep.lilOpsOptimized)
        mismatch("IR op counts differ");
    if (r.counts.lpWorkUnits != rep.lpWorkUnits ||
        r.counts.fallbacks != rep.fallbackEvents)
        mismatch("LP work or fallback count differs");
    if (r.counts.passRewrites != rep.passRewrites ||
        r.counts.passProved != rep.passProved ||
        r.counts.passCosimAgreed != rep.passCosimAgreed)
        mismatch("pass tallies differ");
    if (options.validate &&
        (r.counts.tvProved != rep.tvProved ||
         r.counts.tvRefuted != rep.tvRefuted ||
         r.counts.tvCexCycles != rep.tvCexCycles))
        mismatch("validation tallies differ");
    return r;
}

} // namespace perfbench
