/**
 * @file
 * Tests for the -O1 pass pipeline (docs/pass-pipeline.md): individual
 * rewrite correctness on hand-built graphs, per-pass idempotence over
 * the whole benchmark catalog, the catalog proving symbolically at -O1
 * under --validate, the signature checker's once-per-graph baseline,
 * and the seeded-miscompile failpoint being refuted by the signature
 * checker (LN4501).
 */

#include <gtest/gtest.h>

#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/dataflow.hh"
#include "analysis/effects.hh"
#include "driver/isax_catalog.hh"
#include "driver/longnail.hh"
#include "hir/transforms.hh"
#include "ir/ir.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "passes/passes.hh"
#include "passes/sigcheck.hh"
#include "scaiev/datasheet.hh"
#include "support/failpoint.hh"

using namespace longnail;
using namespace longnail::ir;

namespace {

Operation *
combConstant(Graph &g, unsigned width, uint64_t value)
{
    Operation *c = g.append(OpKind::CombConstant, {}, {WireType(width)});
    c->setAttr("value", ApInt(width, value));
    return c;
}

/** A 32-bit unknown input (reads rs1). */
Operation *
input(Graph &g)
{
    return g.append(OpKind::LilReadRs1, {}, {WireType(32)});
}

/** Guarded rd write keeping @p v alive with an always-true predicate. */
void
writeRd(Graph &g, Value *v)
{
    Value *one = combConstant(g, 1, 1)->result();
    g.append(OpKind::LilWriteRd, {v, one}, {});
}

size_t
countKind(const Graph &g, OpKind kind)
{
    size_t n = 0;
    for (const auto &op : g.ops())
        n += op->kind() == kind;
    return n;
}

driver::CompileOptions
lintOptions()
{
    driver::CompileOptions options;
    options.lintOnly = true;
    return options;
}

// --- simplify --------------------------------------------------------------

TEST(Simplify, FoldsAddZeroAndConstants)
{
    lil::LilGraph lg;
    Graph &g = lg.graph;
    Value *x = input(g)->result();
    Value *zero = combConstant(g, 32, 0)->result();
    Value *sum =
        g.append(OpKind::CombAdd, {x, zero}, {WireType(32)})->result();
    writeRd(g, sum);

    EXPECT_GT(passes::runSimplify(lg), 0u);
    // The write's data operand now bypasses the add.
    for (const auto &op : g.ops()) {
        if (op->kind() == OpKind::LilWriteRd) {
            EXPECT_EQ(op->operand(0), x);
        }
    }
}

TEST(Simplify, StrengthReducesMulByPowerOfTwo)
{
    lil::LilGraph lg;
    Graph &g = lg.graph;
    Value *x = input(g)->result();
    Value *eight = combConstant(g, 32, 8)->result();
    Value *prod =
        g.append(OpKind::CombMul, {x, eight}, {WireType(32)})->result();
    writeRd(g, prod);

    EXPECT_GT(passes::runSimplify(lg), 0u);
    EXPECT_EQ(countKind(g, OpKind::CombMul), 0u);
    EXPECT_EQ(countKind(g, OpKind::CombShl), 1u);
    (void)prod;
}

TEST(Simplify, XorSelfBecomesZero)
{
    lil::LilGraph lg;
    Graph &g = lg.graph;
    Value *x = input(g)->result();
    Operation *x0 = g.append(OpKind::CombXor, {x, x}, {WireType(32)});
    writeRd(g, x0->result());

    EXPECT_GT(passes::runSimplify(lg), 0u);
    EXPECT_EQ(x0->kind(), OpKind::CombConstant);
    EXPECT_TRUE(x0->apAttr("value").isZero());
}

// --- cse -------------------------------------------------------------------

TEST(Cse, MergesDuplicateAndCommutedOps)
{
    lil::LilGraph lg;
    Graph &g = lg.graph;
    Value *a = input(g)->result();
    Value *b = g.append(OpKind::LilReadRs2, {}, {WireType(32)})->result();
    Value *s1 = g.append(OpKind::CombAdd, {a, b}, {WireType(32)})->result();
    Value *s2 = g.append(OpKind::CombAdd, {b, a}, {WireType(32)})->result();
    Value *both =
        g.append(OpKind::CombXor, {s1, s2}, {WireType(32)})->result();
    writeRd(g, both);

    EXPECT_EQ(passes::runCse(lg), 1u);
    // xor(s, s) is now simplify's x^x = 0.
    EXPECT_GT(passes::runSimplify(lg), 0u);
}

TEST(Cse, RewritesDuplicateUsedOnlyInsideSpawn)
{
    lil::LilGraph lg;
    Graph &g = lg.graph;
    Value *a = input(g)->result();
    Value *b = g.append(OpKind::LilReadRs2, {}, {WireType(32)})->result();
    Value *s1 = g.append(OpKind::CombAdd, {a, b}, {WireType(32)})->result();
    Value *s2 = g.append(OpKind::CombAdd, {a, b}, {WireType(32)})->result();
    writeRd(g, s1);
    Operation *spawn = g.appendWithSubgraph(OpKind::CoredslSpawn);
    Value *one = combConstant(*spawn->subgraph(), 1, 1)->result();
    Operation *inner = spawn->subgraph()->append(OpKind::LilWriteRd,
                                                 {s2, one}, {});

    EXPECT_EQ(passes::runCse(lg), 1u);
    EXPECT_EQ(inner->operand(0), s1);
    EXPECT_EQ(g.verify(), "");
    EXPECT_EQ(passes::runCse(lg), 0u);
}

TEST(Cse, CollapsesLongDuplicateChainInOneRun)
{
    // Two identical 2000-op chains: every op of the second one is a
    // duplicate once its operand has been remapped to the first chain.
    constexpr unsigned length = 2000;
    lil::LilGraph lg;
    Graph &g = lg.graph;
    Value *x = input(g)->result();
    Value *step = combConstant(g, 32, 3)->result();
    Value *chains[2] = {x, x};
    for (Value *&tail : chains)
        for (unsigned i = 0; i < length; ++i)
            tail = g.append(OpKind::CombAdd, {tail, step}, {WireType(32)})
                       ->result();
    Operation *join =
        g.append(OpKind::CombXor, {chains[0], chains[1]}, {WireType(32)});
    writeRd(g, join->result());

    EXPECT_EQ(passes::runCse(lg), length);
    EXPECT_EQ(join->operand(0), chains[0]);
    EXPECT_EQ(join->operand(1), chains[0]);
    EXPECT_EQ(passes::runCse(lg), 0u);
}

// --- narrow ----------------------------------------------------------------

TEST(Narrow, NarrowsAddBelowDemandedMask)
{
    lil::LilGraph lg;
    Graph &g = lg.graph;
    Value *a = input(g)->result();
    Value *b = g.append(OpKind::LilReadRs2, {}, {WireType(32)})->result();
    Operation *add = g.append(OpKind::CombAdd, {a, b}, {WireType(32)});
    // Only the low byte is demanded downstream.
    Operation *low =
        g.append(OpKind::CombExtract, {add->result()}, {WireType(8)});
    low->setAttr("lo", int64_t(0));
    Value *pad = combConstant(g, 24, 0)->result();
    Value *wide = g.append(OpKind::CombConcat, {pad, low->result()},
                           {WireType(32)})
                      ->result();
    writeRd(g, wide);

    EXPECT_GT(passes::runNarrow(lg), 0u);
    EXPECT_EQ(add->kind(), OpKind::CombConcat); // morphed in place
    bool has_8bit_add = false;
    for (const auto &op : g.ops())
        if (op->kind() == OpKind::CombAdd &&
            op->result()->type.width == 8)
            has_8bit_add = true;
    EXPECT_TRUE(has_8bit_add);
}

// --- dce -------------------------------------------------------------------

TEST(Dce, RemovesDisabledWriteAndDeadCode)
{
    lil::LilGraph lg;
    Graph &g = lg.graph;
    Value *x = input(g)->result();
    Value *never = combConstant(g, 1, 0)->result();
    g.append(OpKind::LilWriteRd, {x, never}, {});
    // Dead pure chain.
    Value *two = combConstant(g, 32, 2)->result();
    g.append(OpKind::CombMul, {x, two}, {WireType(32)});

    EXPECT_GT(passes::runDce(lg), 0u);
    EXPECT_EQ(countKind(g, OpKind::LilWriteRd), 0u);
    EXPECT_EQ(countKind(g, OpKind::CombMul), 0u);
    // Nothing observable is left, so the input read went too.
    EXPECT_EQ(countKind(g, OpKind::LilReadRs1), 0u);
}

TEST(Dce, KeepsLiveMemReadAndFoldsDisabledOne)
{
    lil::LilGraph lg;
    Graph &g = lg.graph;
    Value *addr = input(g)->result();
    Value *yes = combConstant(g, 1, 1)->result();
    Value *no = combConstant(g, 1, 0)->result();
    Operation *live =
        g.append(OpKind::LilReadMem, {addr, yes}, {WireType(32)});
    Operation *dead =
        g.append(OpKind::LilReadMem, {addr, no}, {WireType(32)});
    Value *sum = g.append(OpKind::CombAdd,
                          {live->result(), dead->result()},
                          {WireType(32)})
                     ->result();
    writeRd(g, sum);

    EXPECT_GT(passes::runDce(lg), 0u);
    EXPECT_EQ(countKind(g, OpKind::LilReadMem), 1u);
    EXPECT_EQ(dead->kind(), OpKind::CombConstant);
}

// An unused memory read is an effect in both deletion rules (the
// interface table's removable column): the core still sees the
// request, as lil::interpret's mem_read_used, the pass signature and
// TV's RdMem obligations say. An unused register read is not.
TEST(Dce, UnusedMemReadSurvivesCanonicalizeAndDce)
{
    for (bool canonicalize : {true, false}) {
        SCOPED_TRACE(canonicalize ? "hir::canonicalize" : "dce");
        lil::LilGraph lg;
        Graph &g = lg.graph;
        Value *addr = input(g)->result();
        Value *yes = combConstant(g, 1, 1)->result();
        g.append(OpKind::LilReadMem, {addr, yes}, {WireType(32)});
        g.append(OpKind::LilReadRs2, {}, {WireType(32)});
        g.append(OpKind::LilSink, {}, {});
        if (canonicalize)
            hir::canonicalize(g);
        else
            passes::runDce(lg);
        EXPECT_EQ(countKind(g, OpKind::LilReadMem), 1u);
        EXPECT_EQ(countKind(g, OpKind::LilReadRs2), 0u);
    }
}

TEST(Dce, UnusedMemReadKeepsItsPortAtO0AndO1)
{
    const char *unused = R"(
import "RV32I.core_desc"
InstructionSet unused_read extends RV32I {
    instructions {
        ldrop {
            encoding: 12'd0 :: rs1[4:0] :: 3'b000 :: rd[4:0]
                      :: 7'b0101011;
            behavior: {
                unsigned<32> a = X[rs1];
                unsigned<32> t = MEM[a+3:a];
                X[rd] = a;
            }
        }
    }
}
)";
    // At -O1 simplify folds the mask, leaving the read unused.
    const char *masked = R"(
import "RV32I.core_desc"
InstructionSet masked_read extends RV32I {
    instructions {
        lmask {
            encoding: 12'd0 :: rs1[4:0] :: 3'b000 :: rd[4:0]
                      :: 7'b0101011;
            behavior: {
                unsigned<32> a = X[rs1];
                unsigned<32> t = MEM[a+3:a] & 32'd0;
                X[rd] = a | t;
            }
        }
    }
}
)";
    for (const char *source : {unused, masked}) {
        for (unsigned level : {0u, 1u}) {
            driver::CompileOptions options;
            options.optLevel = level;
            options.validate = true;
            options.warningsAsErrors = true;
            driver::CompiledIsax isax = driver::compile(source, "", options);
            ASSERT_TRUE(isax.ok()) << isax.errors;
            EXPECT_EQ(isax.diags.str(), "");
            ASSERT_EQ(isax.units.size(), 1u);
            const hwgen::InterfacePort *port =
                isax.units[0].module.findPort(scaiev::SubInterface::RdMem);
            ASSERT_NE(port, nullptr) << isax.name << " -O" << level;
            EXPECT_NE(isax.units[0].systemVerilog.find(port->addrPort),
                      std::string::npos);
        }
    }
}

// --- idempotence over the catalog ------------------------------------------

using PassFn = unsigned (*)(lil::LilGraph &);

struct NamedPass
{
    const char *name;
    PassFn run;
};

const NamedPass kPasses[] = {
    {"simplify", passes::runSimplify},
    {"cse", passes::runCse},
    {"narrow", passes::runNarrow},
    {"dce", passes::runDce},
};

TEST(Idempotence, SecondRunOfEachPassIsANoOpOnTheCatalog)
{
    for (const auto &entry : catalog::allIsaxes()) {
        for (const NamedPass &pass : kPasses) {
            driver::CompiledIsax compiled = driver::compile(
                entry.source, entry.target, lintOptions());
            ASSERT_TRUE(compiled.ok()) << entry.name << ": "
                                       << compiled.errors;
            ASSERT_NE(compiled.lilModule, nullptr);
            for (auto &graph : compiled.lilModule->graphs) {
                // Mirror the manager's gating: spawn graphs join the
                // pipeline only when isolation is proved
                // (analysis/effects.hh).
                if (graph->hasSpawnOps() &&
                    !analysis::spawnIsolated(
                        analysis::summarizeGraph(graph->graph)))
                    continue;
                pass.run(*graph);
                std::string after_first = graph->print();
                unsigned second = pass.run(*graph);
                EXPECT_EQ(second, 0u)
                    << entry.name << "/" << graph->name << ": pass '"
                    << pass.name << "' rewrote again on a second run";
                EXPECT_EQ(graph->print(), after_first)
                    << entry.name << "/" << graph->name << ": pass '"
                    << pass.name << "' is not idempotent";
            }
        }
    }
}

TEST(Idempotence, FullPipelineReachesAFixpointOnTheCatalog)
{
    for (const auto &entry : catalog::allIsaxes()) {
        driver::CompiledIsax compiled =
            driver::compile(entry.source, entry.target, lintOptions());
        ASSERT_TRUE(compiled.ok()) << entry.name;
        DiagnosticEngine diags;
        passes::PipelineOptions popts;
        passes::PipelineResult first =
            passes::runPipeline(*compiled.lilModule, popts, diags);
        EXPECT_FALSE(first.refuted);
        passes::PipelineResult second =
            passes::runPipeline(*compiled.lilModule, popts, diags);
        EXPECT_EQ(second.totalRewrites, 0u)
            << entry.name << ": pipeline not at fixpoint after one run";
    }
}

// --- -O1 + --validate over the catalog -------------------------------------

TEST(Verified, CatalogCompilesAtO1WithEveryPassReproved)
{
    uint64_t total_rewrites = 0;
    unsigned refusals = 0;
    for (const auto &entry : catalog::allIsaxes()) {
        driver::CompileOptions options;
        options.optLevel = 1;
        options.validate = true;
        driver::CompiledIsax compiled =
            driver::compile(entry.source, entry.target, options);
        EXPECT_TRUE(compiled.ok())
            << entry.name << ": " << compiled.errors;
        refusals += compiled.report.tvRefuted;
        total_rewrites += compiled.report.passRewrites;
        // Every checked pass application was accounted for (proved or
        // co-sim agreed; a refutation would have failed ok() above).
        EXPECT_EQ(compiled.report.passCosimAgreed +
                          compiled.report.passProved >
                      0,
                  compiled.report.passRewrites > 0)
            << entry.name;
    }
    EXPECT_EQ(refusals, 0u);
    // The pipeline must actually do something across the catalog.
    EXPECT_GT(total_rewrites, 0u);
}

TEST(Verified, O1ShrinksTheCatalogLilModules)
{
    size_t before = 0, after = 0;
    for (const auto &entry : catalog::allIsaxes()) {
        driver::CompileOptions options;
        options.optLevel = 1;
        driver::CompiledIsax compiled =
            driver::compile(entry.source, entry.target, options);
        ASSERT_TRUE(compiled.ok()) << entry.name;
        before += compiled.report.lilOps;
        after += compiled.report.lilOpsOptimized;
    }
    EXPECT_LT(after, before);
}

// --- what the pipeline decides, per unit -----------------------------------

/** The pipeline's decisions on one catalog unit at -O1 --validate. */
struct PassTally
{
    const char *isax;
    const char *core;
    uint64_t rewrites;
    uint64_t simplify, cse, narrow, dce; ///< passes.<name>.rewrites
    unsigned proved;
    unsigned cosimAgreed;
    size_t lilOpsOptimized;

    bool operator==(const PassTally &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const PassTally &t)
{
    return os << "{\"" << t.isax << "\", \"" << t.core << "\", "
              << t.rewrites << ", " << t.simplify << ", " << t.cse
              << ", " << t.narrow << ", " << t.dce << ", " << t.proved
              << ", " << t.cosimAgreed << ", " << t.lilOpsOptimized
              << "},";
}

PassTally
tallyUnit(const char *isax, const char *core)
{
    obs::ScopedEnable on;
    auto counter = [](const char *pass) {
        return obs::Registry::instance().counter(
            std::string("passes.") + pass + ".rewrites");
    };
    const char *names[] = {"simplify", "cse", "narrow", "dce"};
    uint64_t before[4];
    for (int i = 0; i < 4; ++i)
        before[i] = counter(names[i]);
    driver::CompileOptions options;
    options.coreName = core;
    options.optLevel = 1;
    options.validate = true;
    driver::CompiledIsax compiled =
        driver::compileCatalogIsax(isax, options);
    EXPECT_TRUE(compiled.ok()) << isax << " on " << core << ": "
                               << compiled.errors;
    const driver::PhaseReport &r = compiled.report;
    return {isax,
            core,
            r.passRewrites,
            counter(names[0]) - before[0],
            counter(names[1]) - before[1],
            counter(names[2]) - before[2],
            counter(names[3]) - before[3],
            r.passProved,
            r.passCosimAgreed,
            r.lilOpsOptimized};
}

// Rewrites (total, then simplify, cse, narrow, dce), applications
// proved and co-simulation-agreed, and the optimized LIL op count of
// every catalog unit at -O1 --validate. The artifact and dataflow
// digests pin what the pipeline emits; this pins what it decided, so
// a lost fact that turns a proof into a co-simulation shows here.
const PassTally pinnedTallies[] = {
    {"autoinc", "ORCA", 24, 2, 9, 2, 11, 12, 0, 34},
    {"autoinc", "Piccolo", 24, 2, 9, 2, 11, 12, 0, 34},
    {"autoinc", "PicoRV32", 24, 2, 9, 2, 11, 12, 0, 34},
    {"autoinc", "VexRiscv", 24, 2, 9, 2, 11, 12, 0, 34},
    {"dotp", "ORCA", 16, 4, 2, 3, 7, 5, 0, 76},
    {"dotp", "Piccolo", 16, 4, 2, 3, 7, 5, 0, 76},
    {"dotp", "PicoRV32", 16, 4, 2, 3, 7, 5, 0, 76},
    {"dotp", "VexRiscv", 16, 4, 2, 3, 7, 5, 0, 76},
    {"ijmp", "ORCA", 2, 0, 1, 0, 1, 2, 0, 5},
    {"ijmp", "Piccolo", 2, 0, 1, 0, 1, 2, 0, 5},
    {"ijmp", "PicoRV32", 2, 0, 1, 0, 1, 2, 0, 5},
    {"ijmp", "VexRiscv", 2, 0, 1, 0, 1, 2, 0, 5},
    {"sbox", "ORCA", 0, 0, 0, 0, 0, 0, 0, 8},
    {"sbox", "Piccolo", 0, 0, 0, 0, 0, 0, 0, 8},
    {"sbox", "PicoRV32", 0, 0, 0, 0, 0, 0, 0, 8},
    {"sbox", "VexRiscv", 0, 0, 0, 0, 0, 0, 0, 8},
    {"sparkle", "ORCA", 78, 0, 35, 8, 35, 10, 0, 140},
    {"sparkle", "Piccolo", 78, 0, 35, 8, 35, 10, 0, 140},
    {"sparkle", "PicoRV32", 78, 0, 35, 8, 35, 10, 0, 140},
    {"sparkle", "VexRiscv", 78, 0, 35, 8, 35, 10, 0, 140},
    {"sqrt_tightly", "ORCA", 1451, 35, 643, 125, 648, 6, 1, 892},
    {"sqrt_tightly", "Piccolo", 1451, 35, 643, 125, 648, 6, 1, 892},
    {"sqrt_tightly", "PicoRV32", 1451, 35, 643, 125, 648, 6, 1, 892},
    {"sqrt_tightly", "VexRiscv", 1451, 35, 643, 125, 648, 6, 1, 892},
    {"sqrt_decoupled", "ORCA", 1451, 35, 643, 125, 648, 6, 1, 892},
    {"sqrt_decoupled", "Piccolo", 1451, 35, 643, 125, 648, 6, 1, 892},
    {"sqrt_decoupled", "PicoRV32", 1451, 35, 643, 125, 648, 6, 1, 892},
    {"sqrt_decoupled", "VexRiscv", 1451, 35, 643, 125, 648, 6, 1, 892},
    {"zol", "ORCA", 39, 2, 16, 3, 18, 12, 0, 47},
    {"zol", "Piccolo", 39, 2, 16, 3, 18, 12, 0, 47},
    {"zol", "PicoRV32", 39, 2, 16, 3, 18, 12, 0, 47},
    {"zol", "VexRiscv", 39, 2, 16, 3, 18, 12, 0, 47},
    {"autoinc_zol", "ORCA", 63, 4, 25, 5, 29, 24, 0, 81},
    {"autoinc_zol", "Piccolo", 63, 4, 25, 5, 29, 24, 0, 81},
    {"autoinc_zol", "PicoRV32", 63, 4, 25, 5, 29, 24, 0, 81},
    {"autoinc_zol", "VexRiscv", 63, 4, 25, 5, 29, 24, 0, 81},
    {"bitmanip", "ORCA", 344, 1, 155, 31, 157, 5, 1, 379},
    {"bitmanip", "Piccolo", 344, 1, 155, 31, 157, 5, 1, 379},
    {"bitmanip", "PicoRV32", 344, 1, 155, 31, 157, 5, 1, 379},
    {"bitmanip", "VexRiscv", 344, 1, 155, 31, 157, 5, 1, 379},
    {"ringbuf", "ORCA", 11, 1, 4, 1, 5, 6, 0, 22},
    {"ringbuf", "Piccolo", 11, 1, 4, 1, 5, 6, 0, 22},
    {"ringbuf", "PicoRV32", 11, 1, 4, 1, 5, 6, 0, 22},
    {"ringbuf", "VexRiscv", 11, 1, 4, 1, 5, 6, 0, 22},
};

TEST(Verified, CatalogPassDecisionsArePinned)
{
    std::vector<std::string> cores = scaiev::Datasheet::knownCores();
    ASSERT_EQ(std::size(pinnedTallies),
              catalog::allIsaxes().size() * cores.size());
    PassTally total{"all", "all", 0, 0, 0, 0, 0, 0, 0, 0};
    size_t row = 0;
    for (const auto &entry : catalog::allIsaxes()) {
        for (const std::string &core : cores) {
            const PassTally &want = pinnedTallies[row++];
            ASSERT_EQ(std::string(want.isax), entry.name);
            ASSERT_EQ(std::string(want.core), core);
            PassTally got = tallyUnit(want.isax, want.core);
            EXPECT_EQ(got, want);
            EXPECT_EQ(got.rewrites,
                      got.simplify + got.cse + got.narrow + got.dce)
                << got;
            total.rewrites += got.rewrites;
            total.proved += got.proved;
            total.cosimAgreed += got.cosimAgreed;
            total.lilOpsOptimized += got.lilOpsOptimized;
        }
    }
    EXPECT_EQ(total.rewrites, 13916u);
    EXPECT_EQ(total.proved, 352u);
    // One check on each of the 8 sqrt graphs and the 4 bitop graphs.
    EXPECT_EQ(total.cosimAgreed, 12u);
    EXPECT_EQ(total.lilOpsOptimized, 10304u);
}

// --- carried validation baseline -------------------------------------------

TEST(SignatureBaseline, OneCaptureServesEveryCheck)
{
    // rd = rs1 + rs2, re-checked after four successive rewrites against
    // a single capture of the original graph.
    lil::LilGraph lg;
    lg.name = "sum";
    Graph &g = lg.graph;
    Value *a = input(g)->result();
    Value *b = g.append(OpKind::LilReadRs2, {}, {WireType(32)})->result();
    Operation *sum = g.append(OpKind::CombAdd, {a, b}, {WireType(32)});
    writeRd(g, sum->result());

    passes::SignatureChecker checker(nullptr, 6);
    passes::GraphCapture baseline = checker.capture(lg);
    std::string detail;

    // Commuted operands: the canonical terms are equal.
    sum->morph(OpKind::CombAdd, {b, a});
    EXPECT_EQ(checker.check(lg, baseline, detail),
              passes::SignatureChecker::Outcome::Proved);

    // a + b == (a | b) + (a & b): sound, but not a term identity.
    Operation *ior =
        g.insertBefore(sum, OpKind::CombOr, {a, b}, {WireType(32)});
    Operation *iand =
        g.insertBefore(sum, OpKind::CombAnd, {a, b}, {WireType(32)});
    sum->morph(OpKind::CombAdd, {ior->result(), iand->result()});
    EXPECT_EQ(checker.check(lg, baseline, detail),
              passes::SignatureChecker::Outcome::CosimAgreed);

    // The accepted signature is the new baseline, so commuting the
    // rewritten add proves against it.
    sum->morph(OpKind::CombAdd, {iand->result(), ior->result()});
    EXPECT_EQ(checker.check(lg, baseline, detail),
              passes::SignatureChecker::Outcome::Proved);

    // a - b is wrong from the all-ones trial on, where the original
    // graph wrote 0xffffffff + 0xffffffff = 0xfffffffe.
    sum->morph(OpKind::CombSub, {a, b});
    EXPECT_EQ(checker.check(lg, baseline, detail),
              passes::SignatureChecker::Outcome::Refuted);
    EXPECT_NE(detail.find("(trial 1)"), std::string::npos) << detail;
    EXPECT_NE(detail.find("WrRD: before=0xfffffffe after=0x0"),
              std::string::npos)
        << detail;
}

// --- seeded miscompile -----------------------------------------------------

TEST(SeededBug, SignatureCheckRefutesTheInjectedMiscompile)
{
    failpoint::Scoped guard("passes", failpoint::Mode::Fail);
    const catalog::IsaxEntry *entry = catalog::findIsax("zol");
    ASSERT_NE(entry, nullptr);
    driver::CompileOptions options;
    options.optLevel = 1;
    options.validate = true;
    driver::CompiledIsax compiled =
        driver::compile(entry->source, entry->target, options);
    EXPECT_FALSE(compiled.ok());
    EXPECT_NE(compiled.errors.find("LN4501"), std::string::npos)
        << compiled.errors;
}

TEST(SeededBug, WithoutValidationTheMiscompileSlipsThrough)
{
    // Control experiment documenting WHY the per-pass check exists:
    // the same seeded bug compiles "successfully" without --validate.
    failpoint::Scoped guard("passes", failpoint::Mode::Fail);
    const catalog::IsaxEntry *entry = catalog::findIsax("zol");
    ASSERT_NE(entry, nullptr);
    driver::CompileOptions options;
    options.optLevel = 1;
    driver::CompiledIsax compiled =
        driver::compile(entry->source, entry->target, options);
    EXPECT_TRUE(compiled.ok()) << compiled.errors;
}

// --- analysis dump ---------------------------------------------------------

TEST(Dump, IsStableAndWellFormed)
{
    const catalog::IsaxEntry *entry = catalog::findIsax("dotp");
    ASSERT_NE(entry, nullptr);
    driver::CompiledIsax compiled =
        driver::compile(entry->source, entry->target, lintOptions());
    ASSERT_TRUE(compiled.ok());

    std::ostringstream a, b;
    passes::writeAnalysisDump(*compiled.lilModule, a);
    passes::writeAnalysisDump(*compiled.lilModule, b);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_NE(a.str().find("analysis:"), std::string::npos);
    EXPECT_NE(a.str().find("demanded:"), std::string::npos);
    EXPECT_NE(a.str().find("range:"), std::string::npos);
}

} // namespace
