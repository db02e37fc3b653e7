/**
 * @file
 * Differential testing of the two simulation engines
 * (docs/simulation.md): the compiled bytecode engine must be
 * bit-identical to the node-by-node interpreter — every net and every
 * register, every cycle — over the full benchmark catalog under random
 * stimulus, plus targeted edge cases (wide nets, ROM out-of-bounds,
 * division by zero, oversized shifts, enable registers, fused
 * compare/mux chains, register chains). Two further properties keep
 * simulator reuse and activity-driven evaluation exact: a reset()
 * simulator is indistinguishable from a freshly constructed one, and
 * sparse, repeated or unchanged stimulus with holds, late inputs,
 * back-to-back edges and resets still matches the oracle. The activity
 * tests pin how much of its program the compiled engine runs.
 */

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "driver/isax_catalog.hh"
#include "driver/longnail.hh"
#include "rtl/netlist.hh"
#include "rtl/sim.hh"

using namespace longnail;
using namespace longnail::rtl;

namespace {

ApInt
randomValue(std::mt19937_64 &rng, unsigned width)
{
    if (width <= 64)
        return ApInt(width, rng());
    ApInt value(width);
    for (unsigned bit = 0; bit < width; ++bit)
        value.setBit(bit, (rng() & 1) != 0);
    return value;
}

/** Compare every net of @p actual against @p expected (same module). */
void
expectSameNets(const Module &module, const Simulator &expected,
               const Simulator &actual, unsigned cycle,
               const std::string &what)
{
    for (NetId id = 0; id < NetId(module.numNets()); ++id) {
        const ApInt &a = expected.net(id);
        const ApInt &b = actual.net(id);
        ASSERT_EQ(a.width(), b.width())
            << what << ": net " << id << " cycle " << cycle;
        ASSERT_TRUE(a == b)
            << what << ": net " << id << " (" << module.netName(id)
            << ") diverges at cycle " << cycle << " width " << a.width();
        ASSERT_EQ(expected.netU64(id), actual.netU64(id))
            << what << ": netU64 " << id << " cycle " << cycle;
    }
}

/** Drive both engines with identical random stimulus and compare
 * every net after every evalComb(). */
void
runDifferential(const Module &module, unsigned cycles, uint64_t seed,
                const std::string &what)
{
    Simulator oracle(module, SimEngine::Interp);
    Simulator compiled(module, SimEngine::Compiled);
    ASSERT_EQ(oracle.engine(), SimEngine::Interp);
    ASSERT_EQ(compiled.engine(), SimEngine::Compiled);

    std::mt19937_64 rng(seed);
    for (unsigned cycle = 0; cycle < cycles; ++cycle) {
        for (const auto &[name, net] : module.inputs()) {
            ApInt value = randomValue(rng, module.widthOf(net));
            oracle.setInput(net, value);
            compiled.setInput(net, value);
        }
        oracle.evalComb();
        compiled.evalComb();
        expectSameNets(module, oracle, compiled, cycle, what);
        if (::testing::Test::HasFatalFailure())
            return;
        oracle.clockEdge();
        compiled.clockEdge();
    }
}

/** Run @p engine for 200 random cycles, reset(), and check that it
 * behaves exactly like a freshly constructed simulator from then on:
 * first with no input driven, then under identical random stimulus. */
void
runResetEqualsFresh(const Module &module, SimEngine engine, uint64_t seed,
                    const std::string &what)
{
    std::mt19937_64 rng(seed);
    Simulator reused(module, engine);
    reused.reset();
    for (unsigned cycle = 0; cycle < 200; ++cycle) {
        for (const auto &[name, net] : module.inputs())
            reused.setInput(net, randomValue(rng, module.widthOf(net)));
        reused.tick();
    }
    reused.reset();

    Simulator fresh(module, engine);
    for (unsigned cycle = 0; cycle < 50; ++cycle) {
        if (cycle > 0) {
            for (const auto &[name, net] : module.inputs()) {
                ApInt value = randomValue(rng, module.widthOf(net));
                fresh.setInput(net, value);
                reused.setInput(net, value);
            }
        }
        fresh.evalComb();
        reused.evalComb();
        expectSameNets(module, fresh, reused, cycle, what);
        if (::testing::Test::HasFatalFailure())
            return;
        fresh.clockEdge();
        reused.clockEdge();
    }
}

/** Differential run under sparse stimulus: each cycle re-drives a
 * random subset of the inputs (often none, sometimes with the value a
 * port already holds, sometimes through the uint64_t overload with
 * bits above the port width) and evaluates up to three times. Then it
 * sometimes re-drives an input after the last evaluation, sometimes
 * holds instead of clocking, and now and then resets both engines.
 * A cycle with no evaluation puts two clock edges back to back. */
void
runSparseDifferential(const Module &module, unsigned cycles,
                      uint64_t seed, const std::string &what)
{
    Simulator oracle(module, SimEngine::Interp);
    Simulator compiled(module, SimEngine::Compiled);
    std::mt19937_64 rng(seed);
    std::vector<ApInt> held; // the value each input holds
    for (const auto &[name, net] : module.inputs())
        held.emplace_back(module.widthOf(net), 0);

    for (unsigned cycle = 0; cycle < cycles; ++cycle) {
        bool drive_any = rng() % 3 != 0;
        for (size_t i = 0; drive_any && i < held.size(); ++i) {
            NetId net = module.inputs()[i].second;
            unsigned width = module.widthOf(net);
            switch (rng() % 6) {
              case 0: // a new value
                held[i] = randomValue(rng, width);
                oracle.setInput(net, held[i]);
                compiled.setInput(net, held[i]);
                break;
              case 1: // the value already there
                oracle.setInput(net, held[i]);
                compiled.setInput(net, held[i]);
                break;
              case 2: { // raw 64-bit value, masked by the engines
                uint64_t raw = rng() % 2 ? rng() : held[i].toUint64();
                if (width < 64 && rng() % 2)
                    raw |= ~uint64_t(0) << width;
                held[i] = ApInt(width, raw);
                oracle.setInput(net, raw);
                compiled.setInput(net, raw);
                break;
              }
              default: // not driven this cycle
                break;
            }
        }
        unsigned evals = unsigned(rng() % 4);
        if (cycle == 0 && evals == 0)
            evals = 1; // clockEdge() follows at least one evalComb()
        for (unsigned e = 0; e < evals; ++e) {
            oracle.evalComb();
            compiled.evalComb();
            expectSameNets(module, oracle, compiled, cycle, what);
            if (::testing::Test::HasFatalFailure())
                return;
        }
        if (rng() % 4 == 0) { // re-drive after the evaluation
            size_t i = rng() % (held.size() + 1);
            if (i < held.size()) {
                NetId net = module.inputs()[i].second;
                held[i] = randomValue(rng, module.widthOf(net));
                oracle.setInput(net, held[i]);
                compiled.setInput(net, held[i]);
            }
        }
        if (rng() % 4 != 0) {
            oracle.clockEdge();
            compiled.clockEdge();
        }
        if (rng() % 64 == 0) { // reset mid-run
            oracle.reset();
            compiled.reset();
            for (ApInt &value : held)
                value = ApInt(value.width(), 0);
        }
    }
}

/** Every catalog ISAX's key. */
std::vector<std::string>
catalogNames()
{
    std::vector<std::string> names;
    for (const auto &entry : catalog::allIsaxes())
        names.push_back(entry.name);
    return names;
}

} // namespace

// ---------------------------------------------------------------------
// Catalog fuzz: every benchmark ISAX module, >= 1000 random cycles.

class SimDiffCatalogTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(SimDiffCatalogTest, CompiledMatchesInterpreterEverywhere)
{
    driver::CompileOptions options;
    driver::CompiledIsax isax =
        driver::compileCatalogIsax(GetParam(), options);
    ASSERT_TRUE(isax.ok()) << isax.errors;
    ASSERT_FALSE(isax.units.empty());
    for (const auto &unit : isax.units) {
        SCOPED_TRACE(unit.name);
        runDifferential(unit.module.module, 1000,
                        0x5EEDull ^ std::hash<std::string>{}(unit.name),
                        std::string(GetParam()) + "/" + unit.name);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, SimDiffCatalogTest,
    ::testing::Values("autoinc", "dotp", "ijmp", "sbox", "sparkle",
                      "sqrt_tightly", "sqrt_decoupled", "zol",
                      "autoinc_zol"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return std::string(info.param);
    });

// ---------------------------------------------------------------------
// Reuse and skipped evaluation: every catalog module (VexRiscv, -O0).

class SimReuseCatalogTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SimReuseCatalogTest, ResetEqualsFreshOnBothEngines)
{
    driver::CompileOptions options;
    driver::CompiledIsax isax =
        driver::compileCatalogIsax(GetParam(), options);
    ASSERT_TRUE(isax.ok()) << isax.errors;
    for (const auto &unit : isax.units) {
        for (SimEngine engine : {SimEngine::Interp, SimEngine::Compiled}) {
            std::string what =
                GetParam() + "/" + unit.name + "/" + simEngineName(engine);
            SCOPED_TRACE(what);
            runResetEqualsFresh(unit.module.module, engine,
                                0x7E5Eull ^
                                    std::hash<std::string>{}(unit.name),
                                what);
            if (HasFatalFailure())
                return;
        }
    }
}

TEST_P(SimReuseCatalogTest, SparseStimulusMatchesInterpreter)
{
    driver::CompileOptions options;
    driver::CompiledIsax isax =
        driver::compileCatalogIsax(GetParam(), options);
    ASSERT_TRUE(isax.ok()) << isax.errors;
    for (const auto &unit : isax.units) {
        SCOPED_TRACE(unit.name);
        runSparseDifferential(unit.module.module, 600,
                              0x5A15Eull ^
                                  std::hash<std::string>{}(unit.name),
                              GetParam() + "/" + unit.name);
        if (HasFatalFailure())
            return;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, SimReuseCatalogTest, ::testing::ValuesIn(catalogNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

// ---------------------------------------------------------------------
// Activity: how much of its program the compiled engine runs.

TEST(SimActivityTest, SqrtExecutionRunsOnlyChangedCones)
{
    driver::CompileOptions options; // VexRiscv, -O0
    driver::CompiledIsax isax =
        driver::compileCatalogIsax("sqrt_tightly", options);
    ASSERT_TRUE(isax.ok()) << isax.errors;
    const hwgen::GeneratedModule &gm = isax.units.front().module;
    const Module &m = gm.module;
    auto program = simjit::Program::compile(m);
    ASSERT_TRUE(program->activityDriven());
    const uint64_t whole = program->numOps() - 1; // Halt excluded
    simjit::Machine machine(program);
    auto input = [&](const std::string &name) {
        std::optional<NetId> net = m.findInput(name);
        EXPECT_TRUE(net.has_value()) << name;
        return net.value_or(0);
    };

    // Two executions driven the way hwgen::runIsolated drives one: the
    // operands held from the start, then per stage the stall inputs
    // cleared, two evaluations and an edge. The second execution runs
    // on the reset() machine, as the core models recycle simulators.
    for (uint64_t rs1 : {0x12345678ull, 0xFFFFFFF0ull}) {
        SCOPED_TRACE(rs1);
        machine.reset();
        for (const auto &port : gm.ports) {
            if (port.iface == scaiev::SubInterface::RdRS1)
                machine.setInput(input(port.dataPort), rs1);
            else if (port.iface == scaiev::SubInterface::RdInstr)
                machine.setInput(input(port.dataPort), uint64_t(0x0000200B));
        }
        uint64_t later = 0;
        for (int stage = 0; stage <= gm.lastStage; ++stage) {
            for (const std::string &name : gm.stallInputs)
                if (!name.empty())
                    machine.setInput(input(name), uint64_t(0));
            uint64_t before = machine.opsExecuted();
            machine.evalComb();
            uint64_t ran = machine.opsExecuted() - before;
            machine.evalComb(); // nothing changed: runs nothing
            EXPECT_EQ(machine.opsExecuted() - before, ran)
                << "stage " << stage;
            if (stage == 0 && rs1 == 0x12345678ull)
                EXPECT_EQ(ran, whole); // a new machine evaluates all
            else if (stage > 0)
                later += ran;
            machine.clockEdge();
        }
        // In the sqrt kernel these evaluations run 31 of the 646
        // instructions on average; running them whole would read 100%.
        EXPECT_LT(double(later) / gm.lastStage, 0.2 * double(whole));
    }
}

TEST(SimActivityTest, TinyModulesRunTheWholeStream)
{
    // The Sec. 5.5 kernel's hot modules: too small for cones to pay.
    driver::CompileOptions options;
    driver::CompiledIsax isax =
        driver::compileCatalogIsax("autoinc_zol", options);
    ASSERT_TRUE(isax.ok()) << isax.errors;
    unsigned checked = 0;
    for (const auto &unit : isax.units) {
        if (unit.name != "lw_autoinc" && unit.name != "zol")
            continue;
        SCOPED_TRACE(unit.name);
        ++checked;
        const Module &m = unit.module.module;
        auto program = simjit::Program::compile(m);
        EXPECT_LT(program->numOps(), simjit::Program::minActivityOps);
        EXPECT_FALSE(program->activityDriven());
        // Every evaluation that runs at all runs every instruction.
        simjit::Machine machine(program);
        std::mt19937_64 rng(42);
        for (unsigned cycle = 0; cycle < 50; ++cycle) {
            const auto &[name, net] =
                m.inputs()[rng() % m.inputs().size()];
            machine.setInput(net, randomValue(rng, m.widthOf(net)));
            uint64_t before = machine.opsExecuted();
            machine.evalComb();
            uint64_t ran = machine.opsExecuted() - before;
            EXPECT_TRUE(ran == 0 || ran == program->numOps() - 1) << ran;
            machine.clockEdge();
        }
    }
    EXPECT_EQ(checked, 2u);
}

// ---------------------------------------------------------------------
// Targeted edge cases on hand-built netlists.

TEST(SimDiffTest, WideArithmeticAndConcat)
{
    Module m("wide");
    NetId a = m.addInput("a", 96);
    NetId b = m.addInput("b", 96);
    NetId sum = m.addNode(NodeKind::Add, 96, {a, b});
    NetId prod = m.addNode(NodeKind::Mul, 96, {a, b});
    NetId hi = m.addExtract(prod, 64, 32);
    NetId cat = m.addNode(NodeKind::Concat, 192, {sum, prod});
    NetId narrow = m.addExtract(cat, 10, 16);
    m.addOutput("sum", sum);
    m.addOutput("hi", hi);
    m.addOutput("cat", cat);
    m.addOutput("narrow", narrow);
    runDifferential(m, 200, 1, "wide");
}

TEST(SimDiffTest, DivisionAndRemainderByZero)
{
    Module m("div0");
    NetId a = m.addInput("a", 32);
    NetId b = m.addInput("b", 4); // frequently zero under fuzz
    NetId bw = m.addNode(NodeKind::Concat, 32,
                         {m.addConstant(ApInt(28, 0)), b});
    m.addOutput("divu", m.addNode(NodeKind::DivU, 32, {a, bw}));
    m.addOutput("divs", m.addNode(NodeKind::DivS, 32, {a, bw}));
    m.addOutput("modu", m.addNode(NodeKind::ModU, 32, {a, bw}));
    m.addOutput("mods", m.addNode(NodeKind::ModS, 32, {a, bw}));
    // Guaranteed zero divisor.
    NetId zero = m.addConstant(ApInt(32, 0));
    m.addOutput("divu0", m.addNode(NodeKind::DivU, 32, {a, zero}));
    m.addOutput("mods0", m.addNode(NodeKind::ModS, 32, {a, zero}));
    runDifferential(m, 500, 2, "div0");
}

TEST(SimDiffTest, ShiftAmountClamping)
{
    Module m("shifts");
    NetId v = m.addInput("v", 32);
    NetId amt = m.addInput("amt", 8); // often >= 32
    m.addOutput("shl", m.addNode(NodeKind::Shl, 32, {v, amt}));
    m.addOutput("shru", m.addNode(NodeKind::ShrU, 32, {v, amt}));
    m.addOutput("shrs", m.addNode(NodeKind::ShrS, 32, {v, amt}));
    // Constant amounts: in range, at width, beyond width.
    for (uint64_t k : {1ull, 31ull, 32ull, 200ull}) {
        NetId c = m.addConstant(ApInt(8, k));
        m.addOutput("shl" + std::to_string(k),
                    m.addNode(NodeKind::Shl, 32, {v, c}));
        m.addOutput("shrs" + std::to_string(k),
                    m.addNode(NodeKind::ShrS, 32, {v, c}));
    }
    runDifferential(m, 500, 3, "shifts");
}

TEST(SimDiffTest, RomIndexOutOfBounds)
{
    Module m("rom");
    NetId idx = m.addInput("idx", 6); // table has 16 entries; 6-bit
                                      // index goes out of bounds
    std::vector<ApInt> table;
    for (unsigned i = 0; i < 16; ++i)
        table.push_back(ApInt(12, 0x9A0u + i * 37));
    m.addOutput("val", m.addRom(table, 12, idx));
    runDifferential(m, 300, 4, "rom");
}

TEST(SimDiffTest, EnableRegistersAndRegisterChains)
{
    Module m("regs");
    NetId d = m.addInput("d", 16);
    NetId en = m.addInput("en", 1);
    NetId hold = m.addInput("hold", 1);
    NetId wd = m.addInput("wd", 160);
    // Enabled register, then an always-on register fed by it: the
    // chain must capture pre-edge values (two-phase clock edge).
    NetId r1 = m.addRegister(d, en, ApInt(16, 0x1234));
    NetId r2 = m.addRegister(r1, invalidNet, ApInt(16, 0));
    NetId r3 = m.addRegister(r2, invalidNet, ApInt(16, 0xFFFF));
    // An enable that toggles while the data stays constant.
    NetId r4 = m.addRegister(m.addConstant(ApInt(16, 0xBEEF)), hold,
                             ApInt(16, 1));
    // Data straight from an input, with no enable.
    NetId r5 = m.addRegister(d, invalidNet, ApInt(16, 7));
    // An ApInt-lane register and a chain behind it.
    NetId rw = m.addRegister(wd, en, ApInt(160, 5));
    NetId rw2 = m.addRegister(rw, invalidNet, ApInt(160, 0));
    m.addOutput("r1", r1);
    m.addOutput("r2", r2);
    m.addOutput("r3", r3);
    m.addOutput("sum", m.addNode(NodeKind::Add, 16, {r1, r3}));
    m.addOutput("r4r5", m.addNode(NodeKind::Xor, 16, {r4, r5}));
    m.addOutput("wide", m.addNode(NodeKind::Xor, 160, {rw, rw2}));
    m.addOutput("wlo", m.addExtract(rw2, 0, 16));
    // A long chain on its own input makes the program big enough for
    // activity tables, so the cases above run through the cones.
    NetId chain = m.addInput("pad", 16);
    for (unsigned i = 0; i < 80; ++i)
        chain = m.addNode(i % 2 ? NodeKind::Add : NodeKind::Xor, 16,
                          {chain, m.addConstant(ApInt(16, i + 1))});
    m.addOutput("chain", chain);
    ASSERT_TRUE(simjit::Program::compile(m)->activityDriven());
    runDifferential(m, 500, 5, "regs");
    runSparseDifferential(m, 2000, 15, "regs/sparse");
}

TEST(SimDiffTest, FusedCompareMuxAndExportedCompare)
{
    Module m("cmpmux");
    NetId a = m.addInput("a", 32);
    NetId b = m.addInput("b", 32);
    // Compare used only as mux selects (fusion/elision candidate).
    NetId lt = m.addICmp(ir::ICmpPred::Slt, a, b);
    NetId min = m.addNode(NodeKind::Mux, 32, {lt, a, b});
    NetId max = m.addNode(NodeKind::Mux, 32, {lt, b, a});
    m.addOutput("min", min);
    m.addOutput("max", max);
    // Compare that is also an output (must not be elided).
    NetId eq = m.addICmp(ir::ICmpPred::Eq, a, b);
    m.addOutput("eq", eq);
    m.addOutput("pick", m.addNode(NodeKind::Mux, 32, {eq, min, max}));
    // Compare feeding non-mux logic.
    NetId uge = m.addICmp(ir::ICmpPred::Uge, a, b);
    m.addOutput("both", m.addNode(NodeKind::And, 1, {uge, eq}));
    runDifferential(m, 500, 6, "cmpmux");
}

TEST(SimDiffTest, ReplicateAndMultiConcat)
{
    Module m("bits");
    NetId s = m.addInput("s", 1);
    NetId v = m.addInput("v", 8);
    NetId rep = m.addNode(NodeKind::Replicate, 24, {s});
    NetId cat3 = m.addNode(NodeKind::Concat, 33, {rep, v, s});
    m.addOutput("sext", cat3);
    runDifferential(m, 300, 7, "bits");
}

TEST(SimDiffTest, SparseStimulusAndResetAcrossLanes)
{
    // One register per lane of the compiled engine: narrow (8 bit),
    // packed 128 (100 bit) and ApInt (160 bit).
    Module m("lanes");
    NetId n = m.addInput("n", 8);
    NetId en = m.addInput("en", 1);
    NetId w2 = m.addInput("w2", 100);
    NetId w = m.addInput("w", 160);
    NetId rn = m.addRegister(n, en, ApInt(8, 0x5A));
    NetId r2 = m.addRegister(w2, en, ApInt(100, 3));
    NetId rw = m.addRegister(w, invalidNet, ApInt(160, 9));
    m.addOutput("sum8", m.addNode(NodeKind::Add, 8, {n, rn}));
    m.addOutput("sum100", m.addNode(NodeKind::Add, 100, {w2, r2}));
    m.addOutput("xor160", m.addNode(NodeKind::Xor, 160, {w, rw}));
    m.addOutput("mid", m.addExtract(rw, 70, 20));
    runSparseDifferential(m, 800, 8, "lanes");
    for (SimEngine engine : {SimEngine::Interp, SimEngine::Compiled})
        runResetEqualsFresh(m, engine, 9,
                            std::string("lanes/") + simEngineName(engine));
}

// ---------------------------------------------------------------------
// API-level checks shared by both engines.

TEST(SimDiffTest, NameIndexLookupsWork)
{
    Module m("named");
    NetId a = m.addInput("a", 32);
    NetId b = m.addInput("b", 32);
    m.addOutput("sum", m.addNode(NodeKind::Add, 32, {a, b}));
    for (SimEngine engine : {SimEngine::Interp, SimEngine::Compiled}) {
        Simulator sim(m, engine);
        sim.setInput("a", uint64_t(40));
        sim.setInput("b", ApInt(32, 2));
        sim.evalComb();
        EXPECT_EQ(sim.outputU64("sum"), 42u);
        EXPECT_EQ(sim.output("sum").toUint64(), 42u);
    }
}

TEST(SimDiffTest, SharedProgramAcrossMachines)
{
    Module m("shared");
    NetId a = m.addInput("a", 32);
    NetId r = m.addRegister(a, invalidNet, ApInt(32, 7));
    m.addOutput("r", r);
    auto program = simjit::Program::compile(m);
    Simulator s1(m, program);
    Simulator s2(m, program);
    s1.setInput("a", uint64_t(11));
    s2.setInput("a", uint64_t(22));
    s1.tick();
    s2.tick();
    s1.evalComb();
    s2.evalComb();
    EXPECT_EQ(s1.outputU64("r"), 11u);
    EXPECT_EQ(s2.outputU64("r"), 22u);
}

TEST(SimDiffTest, EngineSelectionDefaults)
{
    EXPECT_STREQ(simEngineName(SimEngine::Interp), "interp");
    EXPECT_STREQ(simEngineName(SimEngine::Compiled), "compiled");

    Module m("def");
    NetId a = m.addInput("a", 8);
    m.addOutput("a2", m.addNode(NodeKind::Add, 8, {a, a}));
    EXPECT_EQ(Simulator(m).engine(), SimEngine::Compiled);
    EXPECT_EQ(Simulator(m, SimEngine::Interp).engine(), SimEngine::Interp);
}
