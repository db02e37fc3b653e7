/**
 * @file
 * The Longnail public API: one call compiles a CoreDSL description for
 * a target core into SystemVerilog modules plus the SCAIE-V
 * configuration file (the complete flow of Fig. 9), and helpers
 * integrate the result into the cycle-level core models for RTL
 * simulation.
 */

#ifndef LONGNAIL_DRIVER_LONGNAIL_HH
#define LONGNAIL_DRIVER_LONGNAIL_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "coredsl/sema.hh"
#include "cores/core.hh"
#include "hir/astlower.hh"
#include "hwgen/hwgen.hh"
#include "lil/interp.hh"
#include "lil/lil.hh"
#include "rvasm/assembler.hh"
#include "scaiev/config.hh"
#include "scaiev/datasheet.hh"
#include "sched/scheduler.hh"
#include "support/cancel.hh"

namespace longnail {
namespace driver {

/** Compilation options. */
struct CompileOptions
{
    std::string coreName = "VexRiscv";
    /** Overrides the built-in datasheet for coreName when non-null
     * (e.g. loaded from a YAML file for a custom core). */
    const scaiev::Datasheet *datasheet = nullptr;
    sched::TimingMode timingMode = sched::TimingMode::Uniform;
    /** Target cycle time for chain breaking; 0 = the core's native
     * clock. */
    double cycleTimeNs = 0.0;
    /** Base instruction set provided by the host core. */
    std::string baseSetName = "RV32I";
    /** Cap on reported errors (0 = unlimited); error recovery stops
     * once the cap is reached. */
    size_t maxErrors = 0;
    /** Budget for the optimal scheduler; exhausting it falls back to
     * the heuristic scheduler (see docs/failure-model.md). */
    sched::ScheduleBudget schedBudget;

    /**
     * Optimization level (CLI: -O0/-O1). 0 compiles the LIL exactly as
     * lowered; 1 runs the verified pass pipeline (simplify, CSE,
     * bitwidth narrowing, DCE — docs/pass-pipeline.md) over every
     * graph before scheduling. Spawn graphs participate only when
     * the effect summaries (analysis/effects.hh) prove the decoupled
     * partition cannot interfere with the in-order partition;
     * otherwise they compile as lowered. Part of the cache key.
     */
    unsigned optLevel = 0;
    /**
     * When non-empty, write a YAML dump of the per-value range and
     * demanded-bits states of every LIL graph to this file (CLI:
     * --dump-analysis=FILE). Debug-only: not part of the cache key, so
     * it is only honored on fresh (non-cache-replayed) compiles.
     */
    std::string dumpAnalysisFile;

    /** Stop after the static-analysis phase (CLI: --lint); the result
     * carries the elaborated ISA, HIR/LIL modules and all lint
     * diagnostics, but no schedule or hardware. */
    bool lintOnly = false;
    /** Re-run the IR verifier after every HIR transform, in addition
     * to the analysis phase (also: LONGNAIL_VERIFY_IR). */
    bool verifyIr = false;
    /** Run per-unit translation validation (CLI: --validate): schedule
     * legality re-checking, LIL<->netlist equivalence and netlist
     * lints (docs/translation-validation.md). */
    bool validate = false;
    /** Promote all warnings to errors (CLI: --Werror). */
    bool warningsAsErrors = false;
    /** Promote only these LN codes to errors (CLI: --Werror=CODE). */
    std::vector<std::string> warningsAsErrorCodes;
    /** Drop warnings with these LN codes (CLI: --no-warn=CODE). */
    std::vector<std::string> suppressedWarningCodes;

    /**
     * Cooperative cancellation (Ctrl-C, server drain, per-request
     * deadlines): polled at every phase boundary. A stop request makes
     * the compile fail with LN3011 ("deadline exceeded" or
     * "cancelled") at the next boundary instead of running to
     * completion. Not part of the cache key -- it can only turn a
     * compile into a failure, and failures are never cached.
     */
    const CancelToken *cancel = nullptr;
};

/**
 * The one per-compile record (docs/observability.md): phase wall
 * times, IR sizes, the scheduler outcome and the pass and
 * translation-validation tallies. Always populated by compile() -- the
 * bookkeeping is a handful of clock reads and increments -- so library
 * users and tests can assert on it without enabling the global obs
 * instrumentation, whose Registry aggregates the whole process.
 */
struct PhaseReport
{
    /** Wall time of one pipeline phase (merged across per-unit loop
     * iterations for sched/hwgen/scaiev-config). */
    struct Entry
    {
        std::string name;
        double wallMs = 0.0;
    };
    /** Phases in pipeline order (Fig. 9). */
    std::vector<Entry> phases;

    /** Top-level IR operation counts after lowering. */
    size_t hirOps = 0;
    size_t lilOps = 0;
    /** The same, keyed by dialect ("coredsl", "hwarith", "comb",
     * "lil"). */
    std::map<std::string, size_t> hirOpsByDialect;
    std::map<std::string, size_t> lilOpsByDialect;

    /** Worst schedule quality across units ("optimal", "fallback",
     * "fallback-relaxed"; empty before scheduling ran). */
    std::string chosenScheduler;
    /** Total LP work units the optimal scheduler consumed (its budget
     * consumption across all units). */
    uint64_t lpWorkUnits = 0;
    /** Times the scheduler fallback chain degraded one step. */
    unsigned fallbackEvents = 0;

    /** Pass-pipeline tallies (populated when CompileOptions::optLevel
     * >= 1; see docs/pass-pipeline.md). */
    uint64_t passRewrites = 0;
    /** Pass applications proved equal by the canonical term checker. */
    unsigned passProved = 0;
    /** Pass applications accepted by co-simulation agreement only. */
    unsigned passCosimAgreed = 0;
    /** Spawn graphs the pipeline optimized under the proved
     * MUST-not-interfere verdict (analysis/effects.hh). */
    unsigned spawnGraphsOptimized = 0;
    /** Spawn graphs skipped because isolation could not be proved. */
    unsigned spawnGraphsSkipped = 0;
    /** Per-graph rewrite counts of the optimized spawn graphs, in
     * module order (CLI: --report). */
    std::vector<std::pair<std::string, uint64_t>> spawnRewritesByUnit;
    /** Top-level LIL op count after the pass pipeline (equals lilOps
     * at -O0 or when no pass fired). */
    size_t lilOpsOptimized = 0;

    /** Translation-validation tallies (populated when
     * CompileOptions::validate is set; see
     * docs/translation-validation.md). */
    unsigned tvUnitsChecked = 0;
    /** Units whose netlist was symbolically proved equivalent. */
    unsigned tvProved = 0;
    /** Units refuted (counterexample or legality violation). */
    unsigned tvRefuted = 0;
    /** Simulated cycles spent on co-simulation counterexample search. */
    uint64_t tvCexCycles = 0;

    double totalWallMs() const;
    const Entry *findPhase(const std::string &name) const;
    /** Merge @p ms into the entry for @p name (appending if new). */
    void addTime(const std::string &name, double ms);
};

/** One synthesized instruction or always-block. */
struct CompiledUnit
{
    std::string name;
    bool isAlways = false;
    const lil::LilGraph *lilGraph = nullptr; ///< owned by CompiledIsax
    hwgen::GeneratedModule module;
    std::string systemVerilog;
    /** Schedule quality indicators. */
    int makespan = 0;
    double objective = 0.0;
    /** Which scheduler in the fallback chain produced the schedule. */
    sched::ScheduleQuality quality = sched::ScheduleQuality::Optimal;
    /** Why the optimal scheduler was abandoned (non-Optimal quality). */
    std::string fallbackReason;
    /** LP work units the optimal-scheduler attempt consumed for this
     * unit (budget consumption, also on a failed attempt). */
    uint64_t lpWorkUnits = 0;
};

/** The complete result of compiling one ISAX for one core. */
struct CompiledIsax
{
    std::string name;
    std::string coreName;
    std::string errors; ///< empty on success
    /** Structured diagnostics (errors + warnings) with phase tags and
     * stable LN codes; `errors` above is its rendered form. */
    DiagnosticEngine diags;

    std::unique_ptr<coredsl::ElaboratedIsa> isa;
    std::unique_ptr<hir::HirModule> hirModule;
    std::unique_ptr<lil::LilModule> lilModule;
    std::vector<CompiledUnit> units;
    scaiev::ScaievConfig config;
    /** Phase timings, IR sizes and scheduler outcome of this compile. */
    PhaseReport report;

    bool ok() const { return errors.empty(); }
    const CompiledUnit *findUnit(const std::string &unit_name) const;

    /** All generated SystemVerilog, one module per unit. */
    std::string emitAllVerilog() const;

    /** Package the modules for Core::attachIsax(). */
    std::shared_ptr<cores::IsaxBundle> makeBundle() const;
};

/**
 * Compile @p source (targeting definition @p target, default: last)
 * for the selected host core. Never throws; check result.ok().
 */
CompiledIsax compile(const std::string &source,
                     const std::string &target = "",
                     const CompileOptions &options = {});

/** Compile one of the bundled benchmark ISAXes (Table 3). */
CompiledIsax compileCatalogIsax(const std::string &isax_name,
                                const CompileOptions &options = {});

/**
 * Register assembler mnemonics for every non-base instruction of
 * @p isa. Operand order: rd, rs1, rs2 (those present as encoding
 * fields at the standard positions), then the remaining fields in
 * alphabetical order as immediates.
 */
void registerIsaxMnemonics(rvasm::Assembler &assembler,
                           const coredsl::ElaboratedIsa &isa);

/**
 * Architectural golden model: the RV32I ISS plus the LIL interpreter
 * for ISAX instructions and always-blocks. The cycle-level Core with
 * integrated RTL modules must produce the same final state.
 */
class GoldenModel
{
  public:
    explicit GoldenModel(const CompiledIsax &compiled);

    void loadProgram(const std::vector<uint32_t> &words, uint32_t base);
    /** @return executed instruction count. */
    uint64_t run(uint64_t max_steps = 1'000'000);

    uint32_t reg(unsigned i) const { return state_.reg(i); }
    void setReg(unsigned i, uint32_t v) { state_.setReg(i, v); }
    cores::Memory &memory() { return memory_; }
    const ApInt &customReg(const std::string &name,
                           uint64_t index = 0) const;
    void setCustomReg(const std::string &name, uint64_t index,
                      const ApInt &value);

  private:
    bool handleCustom(const cores::DecodedInstr &instr);
    void runAlwaysBlocks(uint32_t executed_pc);
    lil::InterpInput makeInput(uint32_t instr_word, uint32_t pc);
    void applyEffects(const lil::InterpResult &result, unsigned rd,
                      bool &pc_written);

    const CompiledIsax &compiled_;
    cores::ArchState state_;
    cores::Memory memory_;
    std::map<std::string, std::vector<ApInt>> customRegs_;
};

} // namespace driver
} // namespace longnail

#endif // LONGNAIL_DRIVER_LONGNAIL_HH
