/**
 * @file
 * Tests for the translation-validation layer (docs/
 * translation-validation.md): canonical term DAG invariants, the
 * schedule legality re-checker against seeded schedule corruptions,
 * bit-precise LIL<->netlist equivalence (proof on the full catalog,
 * refutation with a counterexample on seeded netlist bugs), the
 * netlist lints over hand-built modules, and the driver/--validate
 * integration including the "validate" failpoint.
 */

#include <gtest/gtest.h>

#include "analysis/tv/equiv.hh"
#include "analysis/tv/netlint.hh"
#include "analysis/tv/schedcheck.hh"
#include "analysis/tv/terms.hh"
#include "analysis/tv/tv.hh"
#include "coredsl/sema.hh"
#include "driver/isax_catalog.hh"
#include "driver/longnail.hh"
#include "hir/astlower.hh"
#include "hwgen/hwgen.hh"
#include "lil/lil.hh"
#include "rtl/netlist.hh"
#include "scaiev/datasheet.hh"
#include "scaiev/interface.hh"
#include "sched/scheduler.hh"
#include "support/failpoint.hh"

using namespace longnail;
using namespace longnail::analysis::tv;
using scaiev::Datasheet;
using scaiev::SubInterface;

namespace {

// ---------------------------------------------------------------------------
// Canonical term DAG.
// ---------------------------------------------------------------------------

TEST(TvTerms, ConstantFolding)
{
    TermBuilder b;
    TermId two = b.constant(ApInt(32, 2));
    TermId three = b.constant(ApInt(32, 3));
    EXPECT_EQ(b.make(TermKind::Add, 32, {two, three}),
              b.constant(ApInt(32, 5)));
    EXPECT_EQ(b.make(TermKind::Mul, 32, {two, three}),
              b.constant(ApInt(32, 6)));
    // Division and modulo by zero yield 0 (rtl::Simulator semantics).
    TermId zero = b.constant(ApInt(32, 0));
    EXPECT_EQ(b.make(TermKind::DivU, 32, {three, zero}), zero);
    EXPECT_EQ(b.make(TermKind::ModU, 32, {three, zero}), zero);
    // Shift amounts >= width saturate to a full shift-out.
    TermId big = b.constant(ApInt(32, 200));
    EXPECT_EQ(b.make(TermKind::Shl, 32, {three, big}), zero);
}

TEST(TvTerms, HashConsingAndCommutativity)
{
    TermBuilder b;
    TermId x = b.var("x", 32);
    TermId y = b.var("y", 32);
    EXPECT_EQ(x, b.var("x", 32)); // same (name, width) -> same id
    EXPECT_NE(x, y);
    EXPECT_NE(b.opaque(32), b.opaque(32));
    // Commutative operands are sorted before interning.
    EXPECT_EQ(b.make(TermKind::Add, 32, {x, y}),
              b.make(TermKind::Add, 32, {y, x}));
    EXPECT_EQ(b.make(TermKind::And, 32, {x, y}),
              b.make(TermKind::And, 32, {y, x}));
    // Non-commutative operators must not be reordered.
    EXPECT_NE(b.make(TermKind::Sub, 32, {x, y}),
              b.make(TermKind::Sub, 32, {y, x}));
}

TEST(TvTerms, IdentityRewrites)
{
    TermBuilder b;
    TermId x = b.var("x", 32);
    TermId zero = b.constant(ApInt(32, 0));
    EXPECT_EQ(b.make(TermKind::Add, 32, {x, zero}), x);
    EXPECT_EQ(b.make(TermKind::And, 32, {x, x}), x);
    EXPECT_EQ(b.make(TermKind::Or, 32, {x, x}), x);
    EXPECT_EQ(b.make(TermKind::Xor, 32, {x, x}), zero);
    TermId one = b.constant(ApInt(1, 1));
    TermId y = b.var("y", 32);
    EXPECT_EQ(b.make(TermKind::Mux, 32, {one, x, y}), x);
    EXPECT_EQ(b.make(TermKind::Mux, 32, {b.constant(ApInt(1, 0)), x, y}),
              y);
    TermId sel = b.var("sel", 1);
    EXPECT_EQ(b.make(TermKind::Mux, 32, {sel, x, x}), x);
}

TEST(TvTerms, IcmpExtractRom)
{
    TermBuilder b;
    TermId x = b.var("x", 32);
    TermId y = b.var("y", 32);
    // x == x folds; Eq/Ne operands sort.
    EXPECT_EQ(b.icmp(ir::ICmpPred::Eq, x, x), b.constant(ApInt(1, 1)));
    EXPECT_EQ(b.icmp(ir::ICmpPred::Ult, x, x), b.constant(ApInt(1, 0)));
    EXPECT_EQ(b.icmp(ir::ICmpPred::Eq, x, y),
              b.icmp(ir::ICmpPred::Eq, y, x));
    // Constant extraction and the full-width identity.
    TermId c = b.constant(ApInt(16, 0xABCD));
    EXPECT_EQ(b.extract(c, 4, 8), b.constant(ApInt(8, 0xBC)));
    EXPECT_EQ(b.extract(x, 0, 32), x);
    // ROM lookups fold for constant indices; out of range reads 0.
    std::vector<ApInt> rom{ApInt(8, 7), ApInt(8, 9)};
    EXPECT_EQ(b.rom(rom, 8, b.constant(ApInt(4, 1))),
              b.constant(ApInt(8, 9)));
    EXPECT_EQ(b.rom(rom, 8, b.constant(ApInt(4, 5))),
              b.constant(ApInt(8, 0)));
    // Render stays bounded and names the operator.
    std::string s = b.render(b.make(TermKind::Add, 32, {x, y}));
    EXPECT_NE(s.find("add"), std::string::npos) << s;
}

// ---------------------------------------------------------------------------
// Shared compile helpers (test_hwgen idiom).
// ---------------------------------------------------------------------------

struct Compiled
{
    std::unique_ptr<coredsl::ElaboratedIsa> isa;
    std::unique_ptr<hir::HirModule> hirMod;
    std::unique_ptr<lil::LilModule> lilMod;
};

Compiled
compile(const std::string &name)
{
    const auto *e = catalog::findIsax(name);
    EXPECT_NE(e, nullptr);
    Compiled c;
    DiagnosticEngine diags;
    coredsl::Sema sema(diags, coredsl::builtinSourceProvider());
    c.isa = sema.analyze(e->source, e->target);
    EXPECT_NE(c.isa, nullptr) << diags.str();
    c.hirMod = hir::lowerToHir(*c.isa, diags);
    EXPECT_NE(c.hirMod, nullptr) << diags.str();
    c.lilMod = lil::lowerToLil(*c.hirMod, diags);
    EXPECT_NE(c.lilMod, nullptr) << diags.str();
    return c;
}

/** One scheduled+generated unit, keeping the solved problem around so
 * tests can corrupt it. */
struct Unit
{
    sched::TechLibrary tech{sched::TimingMode::Uniform};
    sched::BuiltProblem built;
    hwgen::GeneratedModule mod;
};

Unit
makeUnit(const Compiled &c, const lil::LilGraph &graph,
         const std::string &core)
{
    Unit u;
    u.built = sched::buildProblem(graph, Datasheet::forCore(core),
                                  u.tech);
    sched::computeChainBreakers(u.built.problem);
    EXPECT_EQ(sched::scheduleOptimal(u.built.problem), "")
        << graph.name << " on " << core;
    u.mod = hwgen::generateModule(graph, u.built,
                                  Datasheet::forCore(core), *c.isa);
    return u;
}

// ---------------------------------------------------------------------------
// Schedule legality re-checker.
// ---------------------------------------------------------------------------

TEST(TvSchedCheck, CleanScheduleVerifies)
{
    Compiled c = compile("dotp");
    const lil::LilGraph &graph = *c.lilMod->findGraph("dotp");
    Unit u = makeUnit(c, graph, "VexRiscv");
    DiagnosticEngine diags;
    ScheduleCheckResult r =
        checkSchedule(graph, u.built, Datasheet::forCore("VexRiscv"),
                      u.tech, sched::ScheduleQuality::Optimal, diags);
    EXPECT_TRUE(r.ok()) << diags.str();
    EXPECT_GT(r.edgesChecked, 0u);
    EXPECT_FALSE(diags.hasErrors());
}

TEST(TvSchedCheck, UnscheduledOpIsLN4401)
{
    Compiled c = compile("dotp");
    const lil::LilGraph &graph = *c.lilMod->findGraph("dotp");
    Unit u = makeUnit(c, graph, "VexRiscv");
    u.built.problem.operation(0).startTime.reset();
    DiagnosticEngine diags;
    ScheduleCheckResult r =
        checkSchedule(graph, u.built, Datasheet::forCore("VexRiscv"),
                      u.tech, sched::ScheduleQuality::Optimal, diags);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(diags.hasErrorCode("LN4401")) << diags.str();
}

TEST(TvSchedCheck, LatencyViolationIsLN4402)
{
    Compiled c = compile("dotp");
    const lil::LilGraph &graph = *c.lilMod->findGraph("dotp");
    Unit u = makeUnit(c, graph, "VexRiscv");
    // Find a def-use edge whose def is a plain comb op, then push the
    // def *after* its use: no window is violated (comb ops have none),
    // but the dependence latency is.
    bool seeded = false;
    for (const auto &op : graph.graph.ops()) {
        if (seeded || op->numOperands() == 0)
            continue;
        for (unsigned i = 0; i < op->numOperands() && !seeded; ++i) {
            const ir::Operation *def = op->operand(i)->owner;
            if (scaiev::subInterfaceFor(def->kind()))
                continue;
            int use = u.built.startTimeOf(op.get());
            u.built.problem.operation(u.built.indexOf(def))
                .startTime = use + 1;
            seeded = true;
        }
    }
    ASSERT_TRUE(seeded);
    DiagnosticEngine diags;
    ScheduleCheckResult r =
        checkSchedule(graph, u.built, Datasheet::forCore("VexRiscv"),
                      u.tech, sched::ScheduleQuality::Optimal, diags);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(diags.hasErrorCode("LN4402")) << diags.str();
}

TEST(TvSchedCheck, WindowViolationIsLN4403)
{
    Compiled c = compile("dotp");
    const lil::LilGraph &graph = *c.lilMod->findGraph("dotp");
    Unit u = makeUnit(c, graph, "VexRiscv");
    const Datasheet &sheet = Datasheet::forCore("VexRiscv");
    // Drag an interface op with a positive earliest stage to stage 0.
    bool seeded = false;
    for (const auto &op : graph.graph.ops()) {
        auto iface = scaiev::subInterfaceFor(op->kind());
        if (!iface || sheet.timing(*iface).earliest <= 0)
            continue;
        u.built.problem.operation(u.built.indexOf(op.get()))
            .startTime = 0;
        seeded = true;
        break;
    }
    ASSERT_TRUE(seeded);
    DiagnosticEngine diags;
    ScheduleCheckResult r =
        checkSchedule(graph, u.built, sheet, u.tech,
                      sched::ScheduleQuality::Optimal, diags);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(diags.hasErrorCode("LN4403")) << diags.str();
}

TEST(TvSchedCheck, DuplicateInterfaceUseIsLN4405)
{
    // Hand-built graph violating the SCAIE-V once-per-instruction
    // rule: two RdRS1 reads (the frontend rejects this, so the checker
    // must catch it independently).
    lil::LilGraph g;
    g.name = "dup_rs1";
    auto *a = g.graph.append(ir::OpKind::LilReadRs1, {},
                             {ir::WireType(32)});
    auto *b = g.graph.append(ir::OpKind::LilReadRs1, {},
                             {ir::WireType(32)});
    auto *sum = g.graph.append(ir::OpKind::CombAdd,
                               {a->result(), b->result()},
                               {ir::WireType(32)});
    auto *one = g.graph.append(ir::OpKind::CombConstant, {},
                               {ir::WireType(1)});
    one->setAttr("value", ApInt(1, 1));
    g.graph.append(ir::OpKind::LilWriteRd,
                   {sum->result(), one->result()}, {});

    sched::TechLibrary tech(sched::TimingMode::Uniform);
    sched::BuiltProblem built = sched::buildProblem(
        g, Datasheet::forCore("VexRiscv"), tech);
    ASSERT_EQ(sched::scheduleAsap(built.problem), "");
    DiagnosticEngine diags;
    ScheduleCheckResult r =
        checkSchedule(g, built, Datasheet::forCore("VexRiscv"), tech,
                      sched::ScheduleQuality::Fallback, diags);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(diags.hasErrorCode("LN4405")) << diags.str();
}

// ---------------------------------------------------------------------------
// LIL <-> netlist equivalence.
// ---------------------------------------------------------------------------

TEST(TvEquiv, CatalogUnitsProveSymbolically)
{
    for (const char *isax : {"dotp", "sbox", "zol", "sqrt_tightly"}) {
        Compiled c = compile(isax);
        for (const auto &graph : c.lilMod->graphs) {
            Unit u = makeUnit(c, *graph, "VexRiscv");
            DiagnosticEngine diags;
            EquivResult r =
                checkEquivalence(*graph, u.mod, *c.isa, diags);
            EXPECT_TRUE(r.proved)
                << isax << "/" << graph->name << ": " << diags.str();
            EXPECT_FALSE(r.refuted);
            EXPECT_EQ(r.outputsChecked, r.outputsProved);
            EXPECT_GT(r.outputsChecked, 0u);
            EXPECT_GT(r.termDagSize, 0u);
            EXPECT_EQ(r.cexCycles, 0u); // no co-simulation needed
        }
    }
}

TEST(TvEquiv, SeededOperatorBugIsRefutedWithCounterexample)
{
    Compiled c = compile("dotp");
    const lil::LilGraph &graph = *c.lilMod->findGraph("dotp");
    Unit u = makeUnit(c, graph, "VexRiscv");
    // Miscompile: turn one multiplier into an adder.
    bool seeded = false;
    for (size_t i = 0; i < u.mod.module.nodes().size(); ++i) {
        if (u.mod.module.nodes()[i].kind == rtl::NodeKind::Mul) {
            u.mod.module.node(i).kind = rtl::NodeKind::Add;
            seeded = true;
            break;
        }
    }
    ASSERT_TRUE(seeded);
    DiagnosticEngine diags;
    EquivResult r = checkEquivalence(graph, u.mod, *c.isa, diags);
    EXPECT_TRUE(r.refuted);
    EXPECT_FALSE(r.proved);
    EXPECT_GT(r.cexCycles, 0u);
    EXPECT_TRUE(diags.hasErrorCode("LN4501")) << diags.str();
    EXPECT_NE(diags.str().find("counterexample"), std::string::npos)
        << diags.str();
}

TEST(TvEquiv, SeededOutputRebindIsRefuted)
{
    Compiled c = compile("dotp");
    const lil::LilGraph &graph = *c.lilMod->findGraph("dotp");
    Unit u = makeUnit(c, graph, "VexRiscv");
    const hwgen::InterfacePort *wr = u.mod.findPort(SubInterface::WrRD);
    ASSERT_NE(wr, nullptr);
    rtl::Module &m = u.mod.module;
    auto data = m.findOutput(wr->dataPort);
    ASSERT_TRUE(data.has_value());
    // Flip the low bit of the writeback data.
    rtl::NetId one = m.addConstant(ApInt(32, 1));
    rtl::NetId flipped =
        m.addNode(rtl::NodeKind::Xor, 32, {*data, one});
    m.rebindOutput(wr->dataPort, flipped);
    DiagnosticEngine diags;
    EquivResult r = checkEquivalence(graph, u.mod, *c.isa, diags);
    EXPECT_TRUE(r.refuted);
    EXPECT_TRUE(diags.hasErrorCode("LN4501")) << diags.str();
}

TEST(TvEquiv, UnprovedButEquivalentIsLN4502)
{
    Compiled c = compile("dotp");
    const lil::LilGraph &graph = *c.lilMod->findGraph("dotp");
    Unit u = makeUnit(c, graph, "VexRiscv");
    const hwgen::InterfacePort *wr = u.mod.findPort(SubInterface::WrRD);
    ASSERT_NE(wr, nullptr);
    rtl::Module &m = u.mod.module;
    auto data = m.findOutput(wr->dataPort);
    ASSERT_TRUE(data.has_value());
    // (d ^ k) ^ k == d, but the rewrite system has no xor-cancellation
    // across nesting, so the proof must fall back to co-simulation --
    // which agrees on every trial.
    rtl::NetId k = m.addConstant(ApInt(32, 0x5a5a5a5a));
    rtl::NetId x1 = m.addNode(rtl::NodeKind::Xor, 32, {*data, k});
    rtl::NetId x2 = m.addNode(rtl::NodeKind::Xor, 32, {x1, k});
    m.rebindOutput(wr->dataPort, x2);
    DiagnosticEngine diags;
    EquivResult r = checkEquivalence(graph, u.mod, *c.isa, diags);
    EXPECT_FALSE(r.refuted) << diags.str();
    EXPECT_FALSE(r.proved);
    EXPECT_LT(r.outputsProved, r.outputsChecked);
    EXPECT_GT(r.cexCycles, 0u);
    EXPECT_FALSE(diags.hasErrors());
    EXPECT_NE(diags.str().find("LN4502"), std::string::npos)
        << diags.str();
}

// ---------------------------------------------------------------------------
// Netlist lints.
// ---------------------------------------------------------------------------

TEST(TvNetlint, CleanModule)
{
    rtl::Module m("clean");
    rtl::NetId a = m.addInput("a", 8);
    rtl::NetId sum = m.addNode(rtl::NodeKind::Add, 8, {a, a});
    m.addOutput("o", sum);
    DiagnosticEngine diags;
    NetlistLintResult r = lintNetlist(m, diags);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.deadNodes, 0u);
    EXPECT_FALSE(diags.hasErrors());
}

TEST(TvNetlint, UseBeforeDefIsLN4601)
{
    rtl::Module m("loop");
    rtl::NetId a = m.addInput("a", 8);
    rtl::NetId x = m.addNode(rtl::NodeKind::Add, 8, {a, a}); // node 1
    rtl::NetId y = m.addNode(rtl::NodeKind::Add, 8, {a, a}); // node 2
    m.node(1).operands[1] = y; // node 1 now reads a later driver
    m.addOutput("o", x);
    DiagnosticEngine diags;
    NetlistLintResult r = lintNetlist(m, diags);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(diags.hasErrorCode("LN4601")) << diags.str();
}

TEST(TvNetlint, WidthMismatchIsLN4602)
{
    rtl::Module m("widths");
    rtl::NetId a = m.addInput("a", 8);
    rtl::NetId b = m.addInput("b", 4);
    rtl::NetId sum = m.addNode(rtl::NodeKind::Add, 8, {a, b});
    m.addOutput("o", sum);
    DiagnosticEngine diags;
    NetlistLintResult r = lintNetlist(m, diags);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(diags.hasErrorCode("LN4602")) << diags.str();
}

TEST(TvNetlint, DriverProblemsAreLN4603)
{
    rtl::Module m("drivers");
    rtl::NetId a = m.addInput("a", 8);
    m.addConstant(ApInt(8, 1)); // node 1
    m.node(1).result = a;       // now multiply-driven; its net undriven
    m.addOutput("o", a);
    DiagnosticEngine diags;
    NetlistLintResult r = lintNetlist(m, diags);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(diags.hasErrorCode("LN4603")) << diags.str();
}

TEST(TvNetlint, DeadLogicIsLN4604)
{
    rtl::Module m("dead");
    rtl::NetId a = m.addInput("a", 8);
    m.addNode(rtl::NodeKind::Add, 8, {a, a}); // unused
    rtl::NetId live = m.addNode(rtl::NodeKind::Sub, 8, {a, a});
    m.addOutput("o", live);
    DiagnosticEngine diags;
    NetlistLintResult r = lintNetlist(m, diags);
    EXPECT_TRUE(r.ok()); // warning-severity only
    EXPECT_EQ(r.deadNodes, 1u);
    EXPECT_FALSE(diags.hasErrors());
    EXPECT_NE(diags.str().find("LN4604"), std::string::npos)
        << diags.str();
}

TEST(TvNetlint, WarningPolicyAppliesToLintCodes)
{
    // The central DiagnosticEngine policy covers the LN46xx codes:
    // --Werror=LN4604 promotes, --no-warn=LN4604 suppresses.
    rtl::Module m("dead");
    rtl::NetId a = m.addInput("a", 8);
    m.addNode(rtl::NodeKind::Add, 8, {a, a});
    rtl::NetId live = m.addNode(rtl::NodeKind::Sub, 8, {a, a});
    m.addOutput("o", live);
    {
        DiagnosticEngine diags;
        diags.addWarningAsError("LN4604");
        lintNetlist(m, diags);
        EXPECT_TRUE(diags.hasErrorCode("LN4604")) << diags.str();
    }
    {
        DiagnosticEngine diags;
        diags.addSuppressedWarning("LN4604");
        lintNetlist(m, diags);
        EXPECT_TRUE(diags.all().empty()) << diags.str();
    }
}

// ---------------------------------------------------------------------------
// validateUnit composition and driver integration.
// ---------------------------------------------------------------------------

TEST(TvUnit, ValidateUnitProvesCleanUnit)
{
    Compiled c = compile("sparkle");
    for (const auto &graph : c.lilMod->graphs) {
        Unit u = makeUnit(c, *graph, "ORCA");
        DiagnosticEngine diags;
        UnitResult r = validateUnit(
            *graph, u.built, u.mod, Datasheet::forCore("ORCA"), u.tech,
            sched::ScheduleQuality::Optimal, *c.isa, diags);
        EXPECT_TRUE(r.ok()) << graph->name << ": " << diags.str();
        EXPECT_TRUE(r.proved()) << graph->name;
        EXPECT_FALSE(diags.hasErrors());
    }
}

TEST(TvDriver, ValidateFlagProvesCatalogIsaxes)
{
    for (const char *core : {"VexRiscv", "ORCA"}) {
        for (const char *name :
             {"dotp", "autoinc", "ijmp", "sbox", "sparkle",
              "sqrt_tightly", "sqrt_decoupled", "zol"}) {
            driver::CompileOptions options;
            options.coreName = core;
            options.validate = true;
            driver::CompiledIsax result =
                driver::compileCatalogIsax(name, options);
            ASSERT_TRUE(result.ok())
                << name << " on " << core << ": " << result.errors;
            EXPECT_GT(result.report.tvUnitsChecked, 0u) << name;
            EXPECT_EQ(result.report.tvProved,
                      result.report.tvUnitsChecked)
                << name << " on " << core;
            EXPECT_EQ(result.report.tvRefuted, 0u) << name;
            EXPECT_NE(result.report.findPhase("validate"), nullptr)
                << name;
        }
    }
}

TEST(TvDriver, ValidationOffByDefault)
{
    driver::CompiledIsax result = driver::compileCatalogIsax("dotp", {});
    ASSERT_TRUE(result.ok()) << result.errors;
    EXPECT_EQ(result.report.tvUnitsChecked, 0u);
    EXPECT_EQ(result.report.findPhase("validate"), nullptr);
}

TEST(TvDriver, ValidateFailpointIsLN4902)
{
    failpoint::Scoped fp("validate", failpoint::Mode::Fail);
    driver::CompileOptions options;
    options.validate = true;
    driver::CompiledIsax result =
        driver::compileCatalogIsax("dotp", options);
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(result.diags.hasErrorCode("LN4902")) << result.errors;
}

TEST(TvDriver, ValidateTransientFaultClearsOnResubmission)
{
    failpoint::Scoped fp("validate", failpoint::Mode::Transient, 1);
    driver::CompileOptions options;
    options.validate = true;
    driver::CompiledIsax first =
        driver::compileCatalogIsax("dotp", options);
    EXPECT_FALSE(first.ok());
    EXPECT_TRUE(first.diags.hasErrorCode("LN4902")) << first.errors;

    driver::CompiledIsax second =
        driver::compileCatalogIsax("dotp", options);
    ASSERT_TRUE(second.ok()) << second.errors;
    EXPECT_GT(second.report.tvUnitsChecked, 0u);
    EXPECT_EQ(second.report.tvProved, second.report.tvUnitsChecked);
}

} // namespace
