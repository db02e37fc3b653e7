#include "driver/longnail.hh"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>

#include "analysis/lint.hh"
#include "analysis/tv/tv.hh"
#include "analysis/verifier.hh"
#include "driver/isax_catalog.hh"
#include "hir/transforms.hh"
#include "ir/ir.hh"
#include "obs/log.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "passes/passes.hh"
#include "rtl/verilog.hh"
#include "support/failpoint.hh"
#include "support/logging.hh"

namespace longnail {
namespace driver {

using coredsl::ElaboratedIsa;
using coredsl::InstrInfo;
using coredsl::StateInfo;
using scaiev::Datasheet;
using scaiev::SubInterface;

// ---------------------------------------------------------------------------
// PhaseReport
// ---------------------------------------------------------------------------

double
PhaseReport::totalWallMs() const
{
    double total = 0.0;
    for (const Entry &entry : phases)
        total += entry.wallMs;
    return total;
}

const PhaseReport::Entry *
PhaseReport::findPhase(const std::string &name) const
{
    for (const Entry &entry : phases)
        if (entry.name == name)
            return &entry;
    return nullptr;
}

void
PhaseReport::addTime(const std::string &name, double ms)
{
    for (Entry &entry : phases) {
        if (entry.name == name) {
            entry.wallMs += ms;
            return;
        }
    }
    phases.push_back({name, ms});
}

namespace {

/**
 * Times one pipeline phase into a PhaseReport entry, records a `phase`
 * event and, when obs is enabled, opens a trace span and records the
 * per-phase wall-time histogram plus the peak-RSS gauge for the phase.
 */
class PhaseTimer
{
  public:
    PhaseTimer(PhaseReport &report, std::string name)
        : report_(report), name_(std::move(name)), span_(name_),
          start_(std::chrono::steady_clock::now())
    {}

    ~PhaseTimer()
    {
        double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
        report_.addTime(name_, ms);
        if (obs::enabled()) {
            obs::observe(("phase." + name_ + ".ms").c_str(), ms);
            obs::gaugeMax(("rss.peak_kb." + name_).c_str(),
                          double(obs::peakRssKb()));
        }
        char ms_text[32];
        std::snprintf(ms_text, sizeof(ms_text), "%.3f", ms);
        obs::logEvent(obs::LogLevel::Debug, "phase",
                      {{"name", name_}, {"ms", ms_text}});
    }

    PhaseTimer(const PhaseTimer &) = delete;
    PhaseTimer &operator=(const PhaseTimer &) = delete;

    obs::TraceSpan &span() { return span_; }

  private:
    PhaseReport &report_;
    std::string name_;
    obs::TraceSpan span_;
    std::chrono::steady_clock::time_point start_;
};

/**
 * Cooperative cancellation checkpoint (docs/compile-server.md): polled
 * after every pipeline phase. When the options carry a stop-requested
 * token, fail the compile with LN3011 naming the boundary and the
 * reason ("deadline exceeded" vs "cancelled") and tell the caller to
 * return. The check is one relaxed atomic load (plus a clock read for
 * deadline tokens) when a token is present, nothing when not.
 */
bool
cancelRequested(const CompileOptions &options, DiagnosticEngine &diags,
                const char *boundary)
{
    if (!options.cancel || !options.cancel->stopRequested())
        return false;
    DiagnosticEngine::ContextScope scope(diags, Phase::Driver,
                                         "LN3011");
    diags.error({}, "LN3011",
                std::string("compile ") + options.cancel->reason() +
                    " at phase boundary '" + boundary + "'");
    obs::count("driver.cancelled_compiles");
    obs::logEvent(obs::LogLevel::Warn, "compile.cancelled",
                  {{"boundary", boundary},
                   {"reason", options.cancel->reason()}});
    if (options.cancel->deadlineExpired()) {
        obs::count("driver.deadline_misses");
        // A deadline firing mid-pipeline is exactly the moment the
        // flight recorder exists for: capture the lead-up while the
        // ring still holds it.
        obs::flightrec::writePostmortem("deadline");
    }
    return true;
}

/** Dialect prefix of an operation name ("lil.read_rs1" -> "lil"). */
std::string
dialectOf(ir::OpKind kind)
{
    std::string name = ir::opKindName(kind);
    size_t dot = name.find('.');
    return dot == std::string::npos ? name : name.substr(0, dot);
}

/** Count top-level ops of @p graph into @p total / @p by_dialect and
 * (when obs is enabled) the per-dialect counter family
 * "<counter_prefix>.<dialect>". */
void
countIrOps(const ir::Graph &graph, size_t &total,
           std::map<std::string, size_t> &by_dialect,
           const char *counter_prefix)
{
    bool obs_on = obs::enabled();
    for (const auto &op : graph.ops()) {
        ++total;
        std::string dialect = dialectOf(op->kind());
        if (obs_on)
            obs::count(
                (std::string(counter_prefix) + "." + dialect).c_str());
        ++by_dialect[std::move(dialect)];
    }
}

} // namespace

const CompiledUnit *
CompiledIsax::findUnit(const std::string &unit_name) const
{
    for (const auto &unit : units)
        if (unit.name == unit_name)
            return &unit;
    return nullptr;
}

std::string
CompiledIsax::emitAllVerilog() const
{
    std::string out;
    for (const auto &unit : units) {
        out += unit.systemVerilog;
        out += "\n";
    }
    return out;
}

std::shared_ptr<cores::IsaxBundle>
CompiledIsax::makeBundle() const
{
    auto bundle = std::make_shared<cores::IsaxBundle>();
    bundle->name = name;
    for (const auto &unit : units) {
        if (unit.isAlways) {
            bundle->alwaysBlocks.push_back(unit.module);
            continue;
        }
        const InstrInfo *info = isa->findInstruction(unit.name);
        cores::IsaxInstrUnit instr_unit;
        instr_unit.name = unit.name;
        instr_unit.mask = info->mask;
        instr_unit.match = info->match;
        instr_unit.module = unit.module;
        bundle->instructions.push_back(std::move(instr_unit));
    }
    for (const auto &state : isa->state) {
        if (state.isCoreState || state.isConst ||
            state.kind != StateInfo::Kind::Register)
            continue;
        bundle->customRegs.push_back({state.name,
                                      state.elementType.width,
                                      state.numElements});
    }
    return bundle;
}

namespace {

/** Inverse of sched::scheduleQualityName() for the worst-of compare. */
sched::ScheduleQuality
worstQuality(const std::string &name)
{
    if (name == "fallback-relaxed")
        return sched::ScheduleQuality::FallbackRelaxed;
    if (name == "fallback")
        return sched::ScheduleQuality::Fallback;
    return sched::ScheduleQuality::Optimal;
}

/**
 * The Fig. 9 flow; returns early on the first failing phase, leaving
 * the failure in @p diags. Split out of compile() so every exit path
 * shares the diagnostics rendering there.
 */
void
compileInto(CompiledIsax &result, DiagnosticEngine &diags,
            const std::string &source, const std::string &target,
            const CompileOptions &options)
{
    const Datasheet *sheet = options.datasheet;
    if (!sheet) {
        sheet = Datasheet::findCore(options.coreName);
        if (!sheet) {
            std::string known;
            for (const std::string &core : Datasheet::knownCores())
                known += (known.empty() ? "" : ", ") + core;
            DiagnosticEngine::ContextScope scope(diags, Phase::Scaiev,
                                                 "LN3005");
            diags.error({}, "LN3005",
                        "unknown core '" + options.coreName +
                            "'; available cores: " + known);
            return;
        }
    }

    // A request whose deadline already passed (queued too long behind
    // other work) must not burn a full compile before noticing.
    if (cancelRequested(options, diags, "start"))
        return;

    {
        PhaseTimer timer(result.report, "sema");
        coredsl::SemaOptions sema_options;
        sema_options.baseSetName = options.baseSetName;
        coredsl::Sema sema(diags, coredsl::builtinSourceProvider(),
                           sema_options);
        result.isa = sema.analyze(source, target);
    }
    if (!result.isa)
        return;
    result.name = result.isa->name;
    if (cancelRequested(options, diags, "sema"))
        return;

    {
        PhaseTimer timer(result.report, "astlower");
        result.hirModule = hir::lowerToHir(*result.isa, diags);
    }
    if (!result.hirModule)
        return;
    if (cancelRequested(options, diags, "astlower"))
        return;
    for (const auto &instr : result.hirModule->instructions)
        countIrOps(instr->body, result.report.hirOps,
                   result.report.hirOpsByDialect, "ir.nodes.hir");
    for (const auto &blk : result.hirModule->alwaysBlocks)
        countIrOps(blk->body, result.report.hirOps,
                   result.report.hirOpsByDialect, "ir.nodes.hir");

    // Static-analysis phase, part 1 (docs/static-analysis.md): verify
    // the freshly lowered HIR and run the HIR-level dataflow lints
    // before canonicalization folds their evidence away.
    {
        PhaseTimer timer(result.report, "analysis");
        DiagnosticEngine::ContextScope scope(diags, Phase::Analysis,
                                             "LN4001");
        if (failpoint::fire("analysis") != failpoint::Mode::Off) {
            diags.error({}, "LN4901",
                        "injected fault at failpoint 'analysis'");
            return;
        }
        analysis::verifyHirModule(*result.hirModule, diags);
        analysis::checkHirModule(*result.hirModule, diags);
        if (diags.hasErrors())
            return;
    }

    {
        PhaseTimer timer(result.report, "canonicalize");
        for (auto &instr : result.hirModule->instructions)
            hir::canonicalize(instr->body);
        for (auto &blk : result.hirModule->alwaysBlocks)
            hir::canonicalize(blk->body);
    }

    {
        PhaseTimer timer(result.report, "lil");
        result.lilModule = lil::lowerToLil(*result.hirModule, diags);
    }
    if (!result.lilModule)
        return;
    if (cancelRequested(options, diags, "lil"))
        return;
    for (const auto &graph : result.lilModule->graphs)
        countIrOps(graph->graph, result.report.lilOps,
                   result.report.lilOpsByDialect, "ir.nodes.lil");

    // Static-analysis phase, part 2: verify the LIL, then run the
    // LIL-level dataflow lints and the cross-instruction checks
    // (encoding overlaps, pre-schedule datasheet violations).
    {
        PhaseTimer timer(result.report, "analysis");
        DiagnosticEngine::ContextScope scope(diags, Phase::Analysis,
                                             "LN4001");
        analysis::verifyLilModule(*result.lilModule, diags);
        if (!diags.hasErrors())
            analysis::checkLilModule(*result.lilModule, *sheet, diags);
        if (diags.hasErrors())
            return;
    }
    if (cancelRequested(options, diags, "analysis"))
        return;
    if (options.lintOnly)
        return;

    // Optimization pipeline (docs/pass-pipeline.md): -O1 runs the
    // verified passes over every LIL graph before any scheduling —
    // spawn graphs included when the effect summaries prove isolation
    // (analysis/effects.hh); each application is re-proved under
    // --validate (refutations surface as LN4501 errors and abort the
    // compile).
    if (options.optLevel >= 1) {
        PhaseTimer timer(result.report, "passes");
        DiagnosticEngine::ContextScope scope(diags, Phase::Validate,
                                             "LN4501");
        passes::PipelineOptions popts;
        popts.validate = options.validate;
        passes::PipelineResult pres =
            passes::runPipeline(*result.lilModule, popts, diags);
        result.report.passRewrites = pres.totalRewrites;
        result.report.passProved = pres.proved;
        result.report.passCosimAgreed = pres.cosimAgreed;
        result.report.spawnGraphsOptimized = pres.spawnOptimized;
        result.report.spawnGraphsSkipped = pres.spawnSkipped;
        result.report.spawnRewritesByUnit = pres.spawnGraphRewrites;
        obs::count("passes.rewrites", pres.totalRewrites);
        if (pres.refuted || diags.hasErrors())
            return;
    }
    for (const auto &graph : result.lilModule->graphs) {
        std::map<std::string, size_t> unused;
        countIrOps(graph->graph, result.report.lilOpsOptimized, unused,
                   "ir.nodes.lil_opt");
    }
    if (cancelRequested(options, diags, "passes"))
        return;

    // Analysis-state dump (debug aid; deliberately after the passes so
    // the states describe the module that scheduling will consume).
    if (!options.dumpAnalysisFile.empty()) {
        std::ofstream dump(options.dumpAnalysisFile);
        if (!dump) {
            diags.error({}, "LN3012",
                        "cannot write --dump-analysis file '" +
                            options.dumpAnalysisFile + "'");
            return;
        }
        passes::writeAnalysisDump(*result.lilModule, dump);
    }

    // Schedule and generate hardware per functionality.
    const sched::TechLibrary tech(options.timingMode);
    result.config.isaxName = result.name;
    result.config.coreName = options.coreName;

    for (const auto &graph : result.lilModule->graphs) {
        // Per-unit checkpoint: multi-unit ISAXes hit this once per
        // instruction/always-block, bounding overshoot past a deadline
        // to one unit's sched+hwgen work.
        if (cancelRequested(options, diags, "sched"))
            return;
        DiagnosticEngine::ContextScope sched_scope(diags, Phase::Sched,
                                                   "LN2001");
        sched::ScheduleOutcome outcome;
        sched::BuiltProblem built;
        {
            PhaseTimer timer(result.report, "sched");
            timer.span().arg("graph", graph->name);
            if (failpoint::fire("sched") != failpoint::Mode::Off) {
                diags.error({}, "LN2901",
                            "injected fault at failpoint 'sched'");
                return;
            }
            built = sched::buildProblem(*graph, *sheet, tech,
                                        options.cycleTimeNs);
            sched::computeChainBreakers(built.problem);
            outcome = sched::scheduleWithFallback(built.problem,
                                                  options.schedBudget);
        }
        result.report.lpWorkUnits += outcome.lpWorkUnits;
        if (!outcome.ok()) {
            diags.error({}, "LN2002", graph->name + ": " +
                                          outcome.error);
            return;
        }
        if (outcome.quality != sched::ScheduleQuality::Optimal) {
            ++result.report.fallbackEvents;
            diags.warning({}, "LN2001",
                          graph->name +
                              ": optimal scheduler unavailable (" +
                              outcome.fallbackReason + "); using " +
                              sched::scheduleQualityName(
                                  outcome.quality) +
                              " schedule");
        }
        // Record the worst quality across units as the compile's
        // chosen scheduler (satellite of ISSUE 3: the fallback chain
        // outcome must be programmatically observable).
        const char *quality_name =
            sched::scheduleQualityName(outcome.quality);
        if (result.report.chosenScheduler.empty() ||
            int(outcome.quality) >
                int(worstQuality(result.report.chosenScheduler)))
            result.report.chosenScheduler = quality_name;
        sched::sinkZeroDelayOps(built.problem);
        sched::Violation violation = built.problem.findViolation();
        // Chains whose single-operation delay exceeds the cycle time
        // cannot be broken (Sec. 5.4); they reduce fmax in the ASIC
        // analysis but are not compile errors. The relaxed fallback
        // scheduler trades chain breaking for feasibility the same way.
        if (violation &&
            violation.kind != sched::Violation::Kind::CycleTime &&
            violation.kind != sched::Violation::Kind::Chaining)
            LN_PANIC("invalid schedule for ", graph->name, ": ",
                     violation.message);
        // The scheduling rewrites (chain breaking, zero-delay-op
        // sinking) must leave the LIL graph itself untouched; re-run
        // the IR verifier here under --verify-ir to close the
        // verifier gap between LIL lowering and hardware generation.
        analysis::verifyAfterTransform(graph->graph, "sched");

        CompiledUnit unit;
        unit.name = graph->name;
        unit.isAlways = graph->isAlways;
        unit.lilGraph = graph.get();
        unit.makespan = built.problem.makespan();
        unit.objective = built.problem.objectiveValue();
        unit.quality = outcome.quality;
        unit.fallbackReason = outcome.fallbackReason;
        unit.lpWorkUnits = outcome.lpWorkUnits;

        DiagnosticEngine::ContextScope hwgen_scope(diags, Phase::HwGen,
                                                   "LN3001");
        {
            PhaseTimer timer(result.report, "hwgen");
            timer.span().arg("graph", graph->name);
            if (failpoint::fire("hwgen") != failpoint::Mode::Off) {
                diags.error({}, "LN3901",
                            "injected fault at failpoint 'hwgen'");
                return;
            }
            unit.module = hwgen::generateModule(*graph, built, *sheet,
                                                *result.isa);
            unit.systemVerilog = rtl::emitVerilog(unit.module.module);
        }

        DiagnosticEngine::ContextScope cfg_scope(diags, Phase::Scaiev,
                                                 "LN3002");
        {
            PhaseTimer timer(result.report, "scaiev-config");
            if (failpoint::fire("scaiev-config") !=
                failpoint::Mode::Off) {
                diags.error({}, "LN3902", "injected fault at "
                                          "failpoint 'scaiev-config'");
                return;
            }
            scaiev::ConfigFunctionality fn;
            fn.name = graph->name;
            fn.isAlways = graph->isAlways;
            fn.mask = graph->maskString;
            fn.schedule = hwgen::scheduleEntries(unit.module);
            result.config.functionality.push_back(std::move(fn));
        }

        // Translation validation (docs/translation-validation.md):
        // independently re-check the schedule against the datasheet
        // rules, lint the generated netlist, and prove it equivalent
        // to the LIL graph it was generated from.
        if (options.validate) {
            DiagnosticEngine::ContextScope tv_scope(
                diags, Phase::Validate, "LN4501");
            PhaseTimer timer(result.report, "validate");
            timer.span().arg("graph", graph->name);
            if (failpoint::fire("validate") != failpoint::Mode::Off) {
                diags.error({}, "LN4902",
                            "injected fault at failpoint 'validate'");
                return;
            }
            analysis::tv::UnitResult tv = analysis::tv::validateUnit(
                *graph, built, unit.module, *sheet, tech,
                outcome.quality, *result.isa, diags);
            ++result.report.tvUnitsChecked;
            if (tv.proved())
                ++result.report.tvProved;
            if (!tv.ok())
                ++result.report.tvRefuted;
            result.report.tvCexCycles += tv.equiv.cexCycles;
            obs::count("tv.units_checked");
            if (tv.proved())
                obs::count("tv.proved");
            if (!tv.ok()) {
                obs::count("tv.refuted");
                obs::logEvent(obs::LogLevel::Error, "tv.refuted",
                              {{"unit", graph->name}});
                obs::flightrec::writePostmortem("tv-refuted");
            }
            obs::count("tv.cex_cycles", tv.equiv.cexCycles);
            if (diags.hasErrors())
                return;
        }

        result.units.push_back(std::move(unit));
    }

    // Custom registers requested from SCAIE-V (Fig. 8, line 1).
    for (const auto &state : result.isa->state) {
        if (state.isCoreState || state.isConst ||
            state.kind != StateInfo::Kind::Register)
            continue;
        result.config.registers.push_back(
            {state.name, state.elementType.width, state.numElements});
    }
}

} // namespace

CompiledIsax
compile(const std::string &source, const std::string &target,
        const CompileOptions &options)
{
    CompiledIsax result;
    result.coreName = options.coreName;
    DiagnosticEngine diags;
    diags.setErrorLimit(options.maxErrors);
    diags.setWarningsAsErrors(options.warningsAsErrors);
    for (const auto &code : options.warningsAsErrorCodes)
        diags.addWarningAsError(code);
    for (const auto &code : options.suppressedWarningCodes)
        diags.addSuppressedWarning(code);
    std::optional<analysis::ScopedVerifyIr> verify_scope;
    if (options.verifyIr)
        verify_scope.emplace(true);
    {
        obs::TraceSpan compile_span("compile");
        compile_span.arg("core", options.coreName);
        try {
            compileInto(result, diags, source, target, options);
        } catch (const std::exception &e) {
            DiagnosticEngine::ContextScope scope(diags, Phase::Driver,
                                                 "LN3009");
            diags.error({}, "LN3009",
                        std::string("internal error: ") + e.what());
        }
        compile_span.arg("isax", result.name);
        compile_span.arg("status", diags.hasErrors() ? "error" : "ok");
    }
    obs::count("driver.compiles");
    if (diags.hasErrors()) {
        obs::count("driver.compile_errors");
        result.errors = diags.str();
    }
    result.diags = std::move(diags);
    return result;
}

CompiledIsax
compileCatalogIsax(const std::string &isax_name,
                   const CompileOptions &options)
{
    const catalog::IsaxEntry *entry = catalog::findIsax(isax_name);
    if (!entry) {
        CompiledIsax result;
        result.coreName = options.coreName;
        DiagnosticEngine::ContextScope scope(result.diags,
                                             Phase::Driver, "LN3006");
        result.diags.error({}, "LN3006",
                           "unknown catalog ISAX '" + isax_name + "'");
        result.errors = result.diags.str();
        return result;
    }
    CompiledIsax result = compile(entry->source, entry->target, options);
    return result;
}

// ---------------------------------------------------------------------------
// Assembler integration
// ---------------------------------------------------------------------------

namespace {

/** Insert @p value into @p word at the field's encoding slices. */
uint32_t
placeField(uint32_t word, const coredsl::FieldInfo &field,
           uint32_t value)
{
    for (const auto &slice : field.slices) {
        uint32_t bits = (value >> slice.fieldLsb) &
                        ((slice.count >= 32 ? 0u : (1u << slice.count)) -
                         1u);
        word |= bits << slice.instrLsb;
    }
    return word;
}

bool
isGprField(const coredsl::FieldInfo &field, unsigned instr_lsb)
{
    return field.width == 5 && field.slices.size() == 1 &&
           field.slices[0].instrLsb == instr_lsb &&
           field.slices[0].count == 5;
}

} // namespace

void
registerIsaxMnemonics(rvasm::Assembler &assembler,
                      const ElaboratedIsa &isa)
{
    for (const auto &instr : isa.instructions) {
        if (instr.fromBase)
            continue;
        // Operand plan: rd, rs1, rs2 (if present at the standard
        // positions), then remaining fields alphabetically.
        struct OperandSpec
        {
            std::string field;
            bool isRegister;
        };
        std::vector<OperandSpec> plan;
        std::vector<std::string> immediates;
        const coredsl::FieldInfo *rd = nullptr, *rs1 = nullptr,
                                 *rs2 = nullptr;
        // Only conventionally named fields at the standard positions
        // are register operands; anything else (e.g. an immediate that
        // happens to sit at the rs1 bits, like setup_zol's uimmS) is
        // encoded as an immediate.
        for (const auto &[fname, field] : instr.fields) {
            if (fname == "rd" && isGprField(field, 7))
                rd = &field;
            else if (fname == "rs1" && isGprField(field, 15))
                rs1 = &field;
            else if (fname == "rs2" && isGprField(field, 20))
                rs2 = &field;
            else
                immediates.push_back(fname);
        }
        if (rd)
            plan.push_back({"rd", true});
        if (rs1)
            plan.push_back({"rs1", true});
        if (rs2)
            plan.push_back({"rs2", true});
        for (const std::string &imm : immediates)
            plan.push_back({imm, false});

        const InstrInfo *info = &instr;
        std::vector<OperandSpec> plan_copy = plan;
        assembler.addCustomMnemonic(
            instr.name,
            [info, plan_copy](const std::vector<std::string> &operands,
                              std::string &error)
                -> std::optional<uint32_t> {
                if (operands.size() != plan_copy.size()) {
                    error = "expected " +
                            std::to_string(plan_copy.size()) +
                            " operands";
                    return std::nullopt;
                }
                uint32_t word = info->match;
                for (size_t i = 0; i < operands.size(); ++i) {
                    const OperandSpec &spec = plan_copy[i];
                    uint32_t value;
                    if (spec.isRegister) {
                        int reg = rvasm::Assembler::parseRegister(
                            operands[i]);
                        if (reg < 0) {
                            error = "bad register '" + operands[i] +
                                    "'";
                            return std::nullopt;
                        }
                        value = uint32_t(reg);
                    } else {
                        try {
                            value = uint32_t(
                                std::stoll(operands[i], nullptr, 0));
                        } catch (const std::exception &) {
                            error = "bad immediate '" + operands[i] +
                                    "'";
                            return std::nullopt;
                        }
                    }
                    std::string fname = spec.isRegister
                                            ? spec.field
                                            : spec.field;
                    // Registers map onto the rd/rs1/rs2 positions; the
                    // actual field names may differ.
                    const coredsl::FieldInfo *field = nullptr;
                    for (const auto &[n, f] : info->fields) {
                        if (spec.isRegister) {
                            unsigned lsb = spec.field == "rd" ? 7
                                           : spec.field == "rs1"
                                               ? 15
                                               : 20;
                            if (isGprField(f, lsb)) {
                                field = &f;
                                break;
                            }
                        } else if (n == spec.field) {
                            field = &f;
                            break;
                        }
                    }
                    if (!field) {
                        error = "internal: field not found";
                        return std::nullopt;
                    }
                    word = placeField(word, *field, value);
                }
                return word;
            });
    }
}

// ---------------------------------------------------------------------------
// Golden model
// ---------------------------------------------------------------------------

GoldenModel::GoldenModel(const CompiledIsax &compiled)
    : compiled_(compiled)
{
    for (const auto &state : compiled.isa->state) {
        if (state.isCoreState || state.isConst ||
            state.kind != StateInfo::Kind::Register)
            continue;
        customRegs_[state.name].assign(
            state.numElements, ApInt(state.elementType.width, 0));
    }
}

void
GoldenModel::loadProgram(const std::vector<uint32_t> &words,
                         uint32_t base)
{
    for (size_t i = 0; i < words.size(); ++i)
        memory_.writeWord(base + uint32_t(i) * 4, words[i]);
    state_.pc = base;
}

const ApInt &
GoldenModel::customReg(const std::string &name, uint64_t index) const
{
    return customRegs_.at(name).at(index);
}

void
GoldenModel::setCustomReg(const std::string &name, uint64_t index,
                          const ApInt &value)
{
    ApInt &slot = customRegs_.at(name).at(index);
    slot = value.zextOrTrunc(slot.width());
}

lil::InterpInput
GoldenModel::makeInput(uint32_t instr_word, uint32_t pc)
{
    lil::InterpInput input;
    cores::DecodedInstr d = cores::decode(instr_word);
    input.instrWord = ApInt(32, instr_word);
    input.rs1 = ApInt(32, state_.reg(d.rs1));
    input.rs2 = ApInt(32, state_.reg(d.rs2));
    input.pc = ApInt(32, pc);
    input.custRegs = customRegs_;
    input.readMem = [this](const ApInt &addr) {
        return ApInt(32,
                     memory_.readWord(uint32_t(addr.toUint64())));
    };
    return input;
}

void
GoldenModel::applyEffects(const lil::InterpResult &result, unsigned rd,
                          bool &pc_written)
{
    if (result.rd.enabled)
        state_.setReg(rd, uint32_t(result.rd.value.toUint64()));
    if (result.mem.enabled)
        memory_.writeWord(uint32_t(result.mem.addr.toUint64()),
                          uint32_t(result.mem.value.toUint64()));
    for (const auto &[reg, write] : result.custWrites) {
        if (!write.enabled)
            continue;
        auto &storage = customRegs_.at(reg);
        uint64_t index = write.index.toUint64();
        if (index < storage.size())
            storage[index] = write.value.zextOrTrunc(
                storage[index].width());
    }
    if (result.pcWrite.enabled) {
        state_.pc = uint32_t(result.pcWrite.value.toUint64());
        pc_written = true;
    }
}

bool
GoldenModel::handleCustom(const cores::DecodedInstr &instr)
{
    for (const auto &unit : compiled_.units) {
        if (unit.isAlways)
            continue;
        const InstrInfo *info =
            compiled_.isa->findInstruction(unit.name);
        if ((instr.raw & info->mask) != info->match)
            continue;
        lil::InterpInput input = makeInput(instr.raw, state_.pc);
        lil::InterpResult result = lil::interpret(*unit.lilGraph,
                                                  input);
        bool pc_written = false;
        applyEffects(result, instr.rd, pc_written);
        if (!pc_written)
            state_.pc += 4;
        return true;
    }
    return false;
}

void
GoldenModel::runAlwaysBlocks(uint32_t executed_pc)
{
    for (const auto &unit : compiled_.units) {
        if (!unit.isAlways)
            continue;
        lil::InterpInput input;
        input.pc = ApInt(32, executed_pc);
        input.custRegs = customRegs_;
        lil::InterpResult result = lil::interpret(*unit.lilGraph,
                                                  input);
        bool pc_written = false;
        applyEffects(result, 0, pc_written);
    }
}

uint64_t
GoldenModel::run(uint64_t max_steps)
{
    uint64_t steps = 0;
    while (steps < max_steps) {
        ++steps;
        uint32_t pc_before = state_.pc;
        uint32_t word = memory_.readWord(pc_before);
        cores::DecodedInstr d = cores::decode(word);
        if (d.opcode == cores::Opcode::System)
            break;
        if (d.opcode == cores::Opcode::Custom) {
            if (!handleCustom(d))
                break; // illegal instruction
        } else {
            cores::Iss iss(state_, memory_);
            if (iss.step() != cores::StepResult::Ok)
                break;
        }
        // Always-blocks observe the PC of the executed instruction and
        // may override the next PC (ZOL semantics).
        runAlwaysBlocks(pc_before);
    }
    obs::count("golden.instructions_retired", steps);
    return steps;
}

} // namespace driver
} // namespace longnail
