/**
 * @file
 * The traced replay: one compile re-run layer by layer through the
 * public entry points, in the order driver::compile() calls them, with
 * the benchmark timing each call. Nothing inside src/ is instrumented,
 * so the replay is only trustworthy while it reproduces the driver's
 * output exactly; replayCompile() checks that on every call.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <string>

#include "driver/longnail.hh"

namespace perfbench {

/** Wall time (ms) spent in each layer's entry points. */
struct LayerTimes
{
    double sema = 0.0;     ///< coredsl::Sema::analyze
    double hirLower = 0.0; ///< hir::lowerToHir + hir::canonicalize
    double lilLower = 0.0; ///< lil::lowerToLil
    double lint = 0.0;     ///< analysis verifiers and lints
    double passes = 0.0;   ///< passes::runPipeline (-O1)
    double sched = 0.0;    ///< buildProblem .. sinkZeroDelayOps + verify
    double solveMax = 0.0; ///< slowest single scheduleWithFallback
    double hwgen = 0.0;    ///< generateModule + emitVerilog + entries
    double tv = 0.0;       ///< validateUnit under --validate
    /** validateUnit run as a check on a unit compiled without
     * --validate; not part of driver::compile(), so outside sum(). */
    double tvCheck = 0.0;

    /** Layer time that driver::compile() itself spends. */
    double sum() const;
    void add(const LayerTimes &other);
};

/** Deterministic work counters of one replayed compile. */
struct LayerCounts
{
    uint64_t lpWorkUnits = 0;
    uint64_t schedOps = 0;
    uint64_t schedDeps = 0;
    uint64_t fallbacks = 0;
    uint64_t passRewrites = 0;
    uint64_t passProved = 0;
    uint64_t passCosimAgreed = 0;
    uint64_t tvUnits = 0;
    uint64_t tvProved = 0;
    uint64_t tvRefuted = 0;
    uint64_t tvCexCycles = 0;
    uint64_t netlistNodes = 0;
    uint64_t svBytes = 0;
    uint64_t hirOps = 0;
    uint64_t lilOps = 0;
    uint64_t lilOpsOpt = 0;

    void add(const LayerCounts &other);
};

struct Replay
{
    LayerTimes times;
    LayerCounts counts;
    /** Wall time of the replay, excluding LayerTimes::tvCheck. */
    double wallMs = 0.0;
    /** Empty when the replay reproduced @p reference exactly. */
    std::string mismatch;
};

/**
 * Replay driver::compile(@p source, @p target, @p options) layer by
 * layer and compare every unit's objective, makespan and SystemVerilog,
 * the SCAIE-V YAML and the IR/LP/pass counts with @p reference, the
 * driver's result for the same input. With @p check_tv and without
 * options.validate, every unit is additionally put through
 * tv::validateUnit (timed into LayerTimes::tvCheck).
 */
Replay replayCompile(const std::string &source, const std::string &target,
                     const longnail::driver::CompileOptions &options,
                     bool check_tv,
                     const longnail::driver::CompiledIsax &reference);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
