/**
 * @file
 * Tests for the problem model (Table 2), chain breaking, and the
 * Fig. 7 ILP scheduler, including the paper's Fig. 6 instance and the
 * benchmark ISAXes on all four cores.
 */

#include <gtest/gtest.h>

#include "coredsl/sema.hh"
#include "driver/isax_catalog.hh"
#include "hir/astlower.hh"
#include "lil/lil.hh"
#include "sched/scheduler.hh"

using namespace longnail;
using namespace longnail::sched;
using scaiev::Datasheet;

namespace {

std::unique_ptr<lil::LilModule>
compileIsax(const std::string &name,
            std::unique_ptr<coredsl::ElaboratedIsa> *isa_out = nullptr)
{
    const auto *e = catalog::findIsax(name);
    EXPECT_NE(e, nullptr);
    DiagnosticEngine diags;
    coredsl::Sema sema(diags, coredsl::builtinSourceProvider());
    auto isa = sema.analyze(e->source, e->target);
    EXPECT_NE(isa, nullptr) << diags.str();
    auto hir_mod = hir::lowerToHir(*isa, diags);
    EXPECT_NE(hir_mod, nullptr) << diags.str();
    auto lil_mod = lil::lowerToLil(*hir_mod, diags);
    EXPECT_NE(lil_mod, nullptr) << diags.str();
    if (isa_out)
        *isa_out = std::move(isa);
    return lil_mod;
}

/** Build and optimally schedule one graph for one core. */
BuiltProblem
scheduleFor(const lil::LilGraph &graph, const std::string &core,
            TimingMode mode = TimingMode::Uniform)
{
    TechLibrary tech(mode);
    BuiltProblem built = buildProblem(graph, Datasheet::forCore(core),
                                      tech);
    computeChainBreakers(built.problem);
    std::string err = scheduleOptimal(built.problem);
    EXPECT_EQ(err, "") << graph.name << " on " << core;
    EXPECT_EQ(built.problem.verify(), "") << graph.name << " on "
                                          << core;
    return built;
}

} // namespace

// ---------------------------------------------------------------------------
// Problem model
// ---------------------------------------------------------------------------

TEST(Problem, VerifyCatchesPrecedenceViolation)
{
    Problem p;
    unsigned type = p.addOperatorType({"op", 2, 0, 0, 0, noUpperBound});
    unsigned a = p.addOperation({"a", type, {}, {}});
    unsigned b = p.addOperation({"b", type, {}, {}});
    p.addDependence(a, b);
    p.operation(a).startTime = 0;
    p.operation(b).startTime = 1; // needs >= 2
    EXPECT_NE(p.verify(), "");
    EXPECT_EQ(p.findViolation().kind, Violation::Kind::Precedence);
    p.operation(b).startTime = 2;
    EXPECT_EQ(p.verify(), "");
    EXPECT_FALSE(p.findViolation());
}

TEST(Problem, CheckInputDetectsCycle)
{
    Problem p;
    unsigned type = p.addOperatorType({"op", 0, 0, 0, 0, noUpperBound});
    unsigned a = p.addOperation({"a", type, {}, {}});
    unsigned b = p.addOperation({"b", type, {}, {}});
    p.addDependence(a, b);
    p.addDependence(b, a);
    EXPECT_NE(p.checkInput(), "");
}

TEST(Problem, LongnailWindowVerification)
{
    LongnailProblem p;
    unsigned type = p.addOperatorType({"iface", 0, 0, 0, 2, 4});
    unsigned a = p.addOperation({"a", type, {}, {}});
    p.operation(a).startTime = 1;
    EXPECT_NE(p.verify(), "");
    EXPECT_EQ(p.findViolation().kind, Violation::Kind::Window);
    p.operation(a).startTime = 4;
    EXPECT_EQ(p.verify(), "");
    p.operation(a).startTime = 5;
    EXPECT_NE(p.verify(), "");
    EXPECT_EQ(p.findViolation().kind, Violation::Kind::Window);
}

TEST(Problem, ViolationKindsOfChainingProblem)
{
    ChainingProblem p;
    p.setCycleTime(1.0);
    unsigned slow = p.addOperatorType({"slow", 0, 0.0, 1.5, 0,
                                       noUpperBound});
    unsigned fast = p.addOperatorType({"fast", 0, 0.0, 0.6, 0,
                                       noUpperBound});
    unsigned a = p.addOperation({"a", fast, {}, {}});
    unsigned b = p.addOperation({"b", fast, {}, {}});
    p.addDependence(a, b);
    EXPECT_EQ(p.findViolation().kind, Violation::Kind::Unscheduled);

    // Chained in one cycle: 0.6 + 0.6 > 1.0.
    p.operation(a).startTime = 0;
    p.operation(b).startTime = 0;
    p.computeStartTimesInCycle();
    EXPECT_EQ(p.findViolation().kind, Violation::Kind::CycleTime);

    // A chain breaker demands one step between a and b.
    p.addChainBreaker(a, b);
    EXPECT_EQ(p.findViolation().kind, Violation::Kind::ChainBreaker);
    p.operation(b).startTime = 1;
    p.computeStartTimesInCycle();
    EXPECT_FALSE(p.findViolation()) << p.verify();

    // A single operation slower than the cycle cannot be broken.
    unsigned c = p.addOperation({"c", slow, {}, {}});
    p.operation(c).startTime = 0;
    p.computeStartTimesInCycle();
    Violation v = p.findViolation();
    EXPECT_EQ(v.kind, Violation::Kind::CycleTime);
    EXPECT_EQ(v.message, p.verify());
}

TEST(Problem, ViolationKindOfBrokenChaining)
{
    // b is chained after a in the same cycle but claims to start
    // before a's output is ready.
    ChainingProblem p;
    p.setCycleTime(2.0);
    unsigned type = p.addOperatorType({"op", 0, 0.0, 0.6, 0,
                                       noUpperBound});
    unsigned a = p.addOperation({"a", type, {}, {}});
    unsigned b = p.addOperation({"b", type, {}, {}});
    p.addDependence(a, b);
    p.operation(a).startTime = 0;
    p.operation(b).startTime = 0;
    p.computeStartTimesInCycle();
    EXPECT_FALSE(p.findViolation()) << p.verify();
    p.operation(b).startTimeInCycle = 0.0;
    EXPECT_EQ(p.findViolation().kind, Violation::Kind::Chaining);
}

TEST(Problem, ObjectiveSumsStartTimesAndLifetimes)
{
    Problem p;
    unsigned type = p.addOperatorType({"op", 0, 0, 0, 0, noUpperBound});
    unsigned a = p.addOperation({"a", type, {}, {}});
    unsigned b = p.addOperation({"b", type, {}, {}});
    p.addDependence(a, b);
    p.operation(a).startTime = 1;
    p.operation(b).startTime = 4;
    // t_a + t_b + (t_b - t_a) = 1 + 4 + 3.
    EXPECT_DOUBLE_EQ(p.objectiveValue(), 8.0);
}

// ---------------------------------------------------------------------------
// Chain breaking + Fig. 6
// ---------------------------------------------------------------------------

TEST(Chaining, LongChainIsBroken)
{
    ChainingProblem p;
    p.setCycleTime(1.0);
    // Ten chained ops of 0.3ns each: at most 3 fit per cycle.
    unsigned type = p.addOperatorType({"logic", 0, 0.0, 0.3, 0,
                                       noUpperBound});
    std::vector<unsigned> ops;
    for (int i = 0; i < 10; ++i)
        ops.push_back(p.addOperation({"op" + std::to_string(i), type,
                                      {}, {}}));
    for (int i = 0; i + 1 < 10; ++i)
        p.addDependence(ops[i], ops[i + 1]);
    computeChainBreakers(p);
    EXPECT_GE(p.chainBreakers().size(), 3u);
    EXPECT_LE(p.chainBreakers().size(), 5u);
}

TEST(Chaining, ShortChainUntouched)
{
    ChainingProblem p;
    p.setCycleTime(10.0);
    unsigned type = p.addOperatorType({"logic", 0, 0.0, 0.3, 0,
                                       noUpperBound});
    unsigned a = p.addOperation({"a", type, {}, {}});
    unsigned b = p.addOperation({"b", type, {}, {}});
    p.addDependence(a, b);
    computeChainBreakers(p);
    EXPECT_TRUE(p.chainBreakers().empty());
}

/**
 * The Fig. 6 instance: ADDI scheduled against the 5-stage VexRiscv
 * windows (instruction word stages 1..4, register file 2..4) with the
 * figure's physical delays and a 3.5ns cycle time. The expected
 * solution places the reads and the adder chain in step 2 and pushes
 * lil.write_rd to step 3.
 */
TEST(Fig6, AddiPushesWriteRdToStep3)
{
    LongnailProblem p;
    p.setCycleTime(3.5);
    unsigned instr_t = p.addOperatorType({"instr_word", 0, 0, 1.2, 1, 4});
    unsigned rs1_t = p.addOperatorType({"read_rs1", 0, 0, 1.2, 2, 4});
    unsigned wire_t = p.addOperatorType({"wire", 0, 0, 0.0, 0,
                                         noUpperBound});
    unsigned add_t = p.addOperatorType({"add", 0, 0, 2.0, 0,
                                        noUpperBound});
    unsigned wr_t = p.addOperatorType({"write_rd", 0, 0, 0.4, 2,
                                       noUpperBound});

    unsigned instr = p.addOperation({"lil.instr_word", instr_t, {}, {}});
    unsigned ext = p.addOperation({"comb.extract", wire_t, {}, {}});
    unsigned rs1 = p.addOperation({"lil.read_rs1", rs1_t, {}, {}});
    unsigned rep = p.addOperation({"comb.replicate", wire_t, {}, {}});
    unsigned cat = p.addOperation({"comb.concat", wire_t, {}, {}});
    unsigned add = p.addOperation({"comb.add", add_t, {}, {}});
    unsigned wr = p.addOperation({"lil.write_rd", wr_t, {}, {}});
    p.addDependence(instr, ext);
    p.addDependence(instr, rep);
    p.addDependence(ext, cat);
    p.addDependence(rep, cat);
    p.addDependence(rs1, add);
    p.addDependence(cat, add);
    p.addDependence(add, wr);

    computeChainBreakers(p);
    ASSERT_EQ(scheduleOptimal(p), "");
    EXPECT_EQ(p.verify(), "");
    EXPECT_EQ(*p.operation(rs1).startTime, 2);
    EXPECT_EQ(*p.operation(add).startTime, 2);
    // 1.2 (read) + 2.0 (add) + 0.4 (write) = 3.6 > 3.5: the write must
    // move to the next time step.
    EXPECT_EQ(*p.operation(wr).startTime, 3);
}

TEST(Fig6, RelaxedCycleTimeKeepsWriteInStep2)
{
    // Same instance at 4.0ns: everything chains in step 2.
    LongnailProblem p;
    p.setCycleTime(4.0);
    unsigned rs1_t = p.addOperatorType({"read_rs1", 0, 0, 1.2, 2, 4});
    unsigned add_t = p.addOperatorType({"add", 0, 0, 2.0, 0,
                                        noUpperBound});
    unsigned wr_t = p.addOperatorType({"write_rd", 0, 0, 0.4, 2,
                                       noUpperBound});
    unsigned rs1 = p.addOperation({"lil.read_rs1", rs1_t, {}, {}});
    unsigned add = p.addOperation({"comb.add", add_t, {}, {}});
    unsigned wr = p.addOperation({"lil.write_rd", wr_t, {}, {}});
    p.addDependence(rs1, add);
    p.addDependence(add, wr);
    computeChainBreakers(p);
    ASSERT_EQ(scheduleOptimal(p), "");
    EXPECT_EQ(*p.operation(wr).startTime, 2);
}

// ---------------------------------------------------------------------------
// Real ISAXes on the four cores
// ---------------------------------------------------------------------------

TEST(Scheduler, AddiOnVexRiscvReadsAtEarliestStages)
{
    std::unique_ptr<coredsl::ElaboratedIsa> isa;
    compileIsax("dotp", &isa);
    DiagnosticEngine diags;
    auto addi_hir = hir::lowerInstruction(
        *isa, *isa->findInstruction("ADDI"), diags);
    auto addi = lil::lowerInstructionToLil(*isa, *addi_hir, diags);
    ASSERT_NE(addi, nullptr);

    BuiltProblem built = scheduleFor(*addi, "VexRiscv");
    for (unsigned i = 0; i < built.problem.numOperations(); ++i) {
        const auto &op = built.problem.operation(i);
        const ir::Operation *ir_op = built.irOps[i];
        if (ir_op->kind() == ir::OpKind::LilReadRs1) {
            EXPECT_EQ(*op.startTime, 2);
        }
        if (ir_op->kind() == ir::OpKind::LilWriteRd) {
            EXPECT_LE(*op.startTime, 4); // fits in-pipeline
        }
    }
}

TEST(Scheduler, OrcaConstrainsOperandsToStage3)
{
    auto lil_mod = compileIsax("dotp");
    const lil::LilGraph *dotp = lil_mod->findGraph("dotp");
    BuiltProblem built = scheduleFor(*dotp, "ORCA");
    for (unsigned i = 0; i < built.problem.numOperations(); ++i) {
        const ir::Operation *ir_op = built.irOps[i];
        if (ir_op->kind() == ir::OpKind::LilReadRs1 ||
            ir_op->kind() == ir::OpKind::LilReadRs2) {
            EXPECT_EQ(*built.problem.operation(i).startTime, 3);
        }
    }
}

TEST(Scheduler, SqrtSpansMoreStagesThanAnyCore)
{
    auto lil_mod = compileIsax("sqrt_tightly");
    const lil::LilGraph *sqrt = lil_mod->findGraph("sqrt");
    for (const std::string &core : Datasheet::knownCores()) {
        BuiltProblem built = scheduleFor(*sqrt, core);
        const Datasheet &sheet = Datasheet::forCore(core);
        // Longer than the pipeline: needs tightly-coupled/decoupled
        // commit (Sec. 5.4: "longer than any of our host cores can
        // accommodate").
        EXPECT_GT(unsigned(built.problem.makespan()), sheet.numStages)
            << core;
    }
}

TEST(Scheduler, ZolAlwaysSchedulesEntirelyInStageZero)
{
    auto lil_mod = compileIsax("zol");
    const lil::LilGraph *zol = lil_mod->findGraph("zol");
    ASSERT_TRUE(zol->isAlways);
    for (const std::string &core : Datasheet::knownCores()) {
        BuiltProblem built = scheduleFor(*zol, core);
        for (unsigned i = 0; i < built.problem.numOperations(); ++i)
            EXPECT_EQ(*built.problem.operation(i).startTime, 0)
                << core;
    }
}

TEST(Scheduler, AllIsaxesScheduleOnAllCores)
{
    for (const auto &e : catalog::allIsaxes()) {
        auto lil_mod = compileIsax(e.name);
        ASSERT_NE(lil_mod, nullptr);
        for (const std::string &core : Datasheet::knownCores()) {
            for (const auto &g : lil_mod->graphs) {
                TechLibrary tech(TimingMode::Uniform);
                BuiltProblem built = buildProblem(
                    *g, Datasheet::forCore(core), tech);
                computeChainBreakers(built.problem);
                std::string err = scheduleOptimal(built.problem);
                EXPECT_EQ(err, "")
                    << e.name << "/" << g->name << " on " << core;
                EXPECT_EQ(built.problem.verify(), "")
                    << e.name << "/" << g->name << " on " << core;
            }
        }
    }
}

TEST(Scheduler, OptimalNeverWorseThanAsap)
{
    for (const char *isax : {"dotp", "sparkle", "zol", "autoinc"}) {
        auto lil_mod = compileIsax(isax);
        for (const std::string &core : Datasheet::knownCores()) {
            for (const auto &g : lil_mod->graphs) {
                TechLibrary tech(TimingMode::Uniform);
                BuiltProblem opt = buildProblem(
                    *g, Datasheet::forCore(core), tech);
                computeChainBreakers(opt.problem);
                ASSERT_EQ(scheduleOptimal(opt.problem), "");

                BuiltProblem asap = buildProblem(
                    *g, Datasheet::forCore(core), tech);
                computeChainBreakers(asap.problem);
                std::string asap_err = scheduleAsap(asap.problem);
                if (!asap_err.empty())
                    continue; // ASAP can fail where the ILP succeeds
                EXPECT_LE(opt.problem.objectiveValue(),
                          asap.problem.objectiveValue() + 1e-9)
                    << isax << "/" << g->name << " on " << core;
            }
        }
    }
}

TEST(Scheduler, LibraryModeProducesValidSchedules)
{
    auto lil_mod = compileIsax("sqrt_tightly");
    const lil::LilGraph *sqrt = lil_mod->findGraph("sqrt");
    BuiltProblem uniform = scheduleFor(*sqrt, "VexRiscv",
                                       TimingMode::Uniform);
    BuiltProblem library = scheduleFor(*sqrt, "VexRiscv",
                                       TimingMode::Library);
    // Both valid; the library mode sees the real adder delays and
    // spreads the computation differently.
    EXPECT_GT(library.problem.makespan(), 4);
    EXPECT_GT(uniform.problem.makespan(), 4);
}
