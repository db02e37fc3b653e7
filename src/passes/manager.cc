/**
 * @file
 * The pass manager: runs simplify -> cse -> narrow -> dce over every
 * LIL graph until a full sweep applies no rewrite (bounded by
 * PipelineOptions::maxIterations). Spawn graphs participate only when
 * the effect summaries (analysis/effects.hh) prove the decoupled
 * partition cannot interfere with the in-order partition; otherwise
 * they compile as lowered. Each pass application gets a
 * trace span, a passes.<name>.rewrites counter, a --verify-ir
 * re-verification, and — under --validate — a signature check that
 * re-proves the transform against a baseline captured once per graph
 * (docs/pass-pipeline.md).
 */

#include <memory>

#include "analysis/effects.hh"
#include "analysis/verifier.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "passes/passes.hh"
#include "passes/sigcheck.hh"

namespace longnail {
namespace passes {

namespace {

struct PassEntry
{
    const char *name;
    unsigned (*run)(lil::LilGraph &);
};

constexpr PassEntry pipelineOrder[] = {
    {"simplify", runSimplify},
    {"cse", runCse},
    {"narrow", runNarrow},
    {"dce", runDce},
};

} // namespace

PipelineResult
runPipeline(lil::LilModule &mod, const PipelineOptions &options,
            DiagnosticEngine &diags)
{
    PipelineResult res;
    std::unique_ptr<SignatureChecker> checker;
    if (options.validate)
        checker = std::make_unique<SignatureChecker>(
            mod.isa, options.cosimTrials);

    for (auto &graph_ptr : mod.graphs) {
        lil::LilGraph &graph = *graph_ptr;
        bool spawn_graph = graph.hasSpawnOps();
        if (spawn_graph) {
            // Spawn semantics decouple from the parent instruction —
            // a timing split the interpreter-backed signature does
            // not model. When the effect summaries prove the
            // decoupled partition cannot interfere with the in-order
            // partition (MUST-not-interfere, analysis/effects.hh),
            // the untimed signature is faithful again and the passes
            // may run; otherwise the graph compiles as lowered.
            analysis::GraphEffects fx =
                analysis::summarizeGraph(graph.graph);
            if (!analysis::spawnIsolated(fx)) {
                obs::count("passes.skipped_spawn");
                ++res.spawnSkipped;
                continue;
            }
            obs::count("passes.spawn_optimized");
            ++res.spawnOptimized;
        }
        uint64_t graph_rewrites = 0;
        // One baseline per graph: each accepted check carries it
        // forward (SignatureChecker::check), so applications that
        // rewrite nothing cost no capture.
        GraphCapture baseline;
        if (checker)
            baseline = checker->capture(graph);

        for (unsigned iter = 0; iter < options.maxIterations; ++iter) {
            unsigned sweep_rewrites = 0;
            for (const PassEntry &pass : pipelineOrder) {
                obs::TraceSpan span(std::string("pass.") + pass.name);
                span.arg("graph", graph.name);

                unsigned n = pass.run(graph);
                if (n)
                    obs::count(
                        (std::string("passes.") + pass.name +
                         ".rewrites").c_str(), n);
                analysis::verifyAfterTransform(
                    graph.graph,
                    (std::string("pass.") + pass.name).c_str());
                sweep_rewrites += n;
                if (!n || !checker)
                    continue;

                std::string detail;
                switch (checker->check(graph, baseline, detail)) {
                  case SignatureChecker::Outcome::Proved:
                    ++res.proved;
                    break;
                  case SignatureChecker::Outcome::CosimAgreed:
                    // Deliberately silent (no LN4502 here): the
                    // end-to-end netlist proof still covers the
                    // optimized graph, and the catalog compiles with
                    // --Werror.
                    ++res.cosimAgreed;
                    obs::count("passes.cosim_agreed");
                    break;
                  case SignatureChecker::Outcome::Refuted:
                    diags.error(
                        SourceLoc{}, "LN4501",
                        "'" + graph.name + "': pass '" + pass.name +
                            "' changed observable behavior; " + detail);
                    res.refuted = true;
                    res.totalRewrites += sweep_rewrites;
                    return res;
                }
            }
            res.totalRewrites += sweep_rewrites;
            graph_rewrites += sweep_rewrites;
            if (!sweep_rewrites)
                break;
        }
        if (spawn_graph)
            res.spawnGraphRewrites.emplace_back(graph.name,
                                                graph_rewrites);
    }
    return res;
}

} // namespace passes
} // namespace longnail
