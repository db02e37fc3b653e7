/**
 * @file
 * Tests for the netlist IR, the cycle simulator, and the SystemVerilog
 * emitter.
 */

#include <gtest/gtest.h>

#include "rtl/netlist.hh"
#include "rtl/sim.hh"
#include "rtl/verilog.hh"

using namespace longnail;
using namespace longnail::rtl;

TEST(Netlist, BuildAndVerify)
{
    Module m("adder");
    NetId a = m.addInput("a", 8);
    NetId b = m.addInput("b", 8);
    NetId sum = m.addNode(NodeKind::Add, 8, {a, b});
    m.addOutput("sum", sum);
    EXPECT_EQ(m.verify(), "");
    EXPECT_EQ(m.numRegisters(), 0u);
}

TEST(Netlist, VerifyCatchesWidthMismatch)
{
    Module m("bad");
    NetId a = m.addInput("a", 8);
    NetId b = m.addInput("b", 4);
    m.addNode(NodeKind::Add, 8, {a, b});
    EXPECT_NE(m.verify(), "");
}

TEST(Netlist, VerifyCatchesExtractOutOfRange)
{
    Module m("bad");
    NetId a = m.addInput("a", 8);
    NetId ext = m.addNode(NodeKind::Extract, 4, {a});
    (void)ext;
    // Fix up via direct node access is not possible; use addExtract.
    Module m2("bad2");
    NetId a2 = m2.addInput("a", 8);
    m2.addExtract(a2, 6, 4); // bits 9:6 of an 8-bit net
    EXPECT_NE(m2.verify(), "");
}

TEST(Sim, CombinationalDatapath)
{
    Module m("alu");
    NetId a = m.addInput("a", 32);
    NetId b = m.addInput("b", 32);
    NetId sum = m.addNode(NodeKind::Add, 32, {a, b});
    NetId diff = m.addNode(NodeKind::Sub, 32, {a, b});
    NetId sel = m.addInput("sel", 1);
    NetId out = m.addNode(NodeKind::Mux, 32, {sel, sum, diff});
    m.addOutput("out", out);

    Simulator sim(m);
    sim.setInput("a", ApInt(32, 100));
    sim.setInput("b", ApInt(32, 42));
    sim.setInput("sel", ApInt(1, 1));
    sim.evalComb();
    EXPECT_EQ(sim.output("out").toUint64(), 142u);
    sim.setInput("sel", ApInt(1, 0));
    sim.evalComb();
    EXPECT_EQ(sim.output("out").toUint64(), 58u);
}

TEST(Sim, RegisterPipeline)
{
    Module m("pipe");
    NetId d = m.addInput("d", 8);
    NetId q1 = m.addRegister(d, invalidNet, ApInt(8, 0));
    NetId q2 = m.addRegister(q1, invalidNet, ApInt(8, 0));
    m.addOutput("q", q2);

    Simulator sim(m);
    sim.reset();
    sim.setInput("d", ApInt(8, 7));
    sim.tick();
    sim.setInput("d", ApInt(8, 9));
    sim.tick();
    sim.evalComb();
    EXPECT_EQ(sim.output("q").toUint64(), 7u);
    sim.tick();
    sim.evalComb();
    EXPECT_EQ(sim.output("q").toUint64(), 9u);
}

TEST(Sim, StallableRegisterHoldsValue)
{
    Module m("stall");
    NetId d = m.addInput("d", 8);
    NetId en = m.addInput("en", 1);
    NetId q = m.addRegister(d, en, ApInt(8, 0));
    m.addOutput("q", q);

    Simulator sim(m);
    sim.reset();
    sim.setInput("d", ApInt(8, 5));
    sim.setInput("en", ApInt(1, 1));
    sim.tick();
    sim.setInput("d", ApInt(8, 6));
    sim.setInput("en", ApInt(1, 0)); // stalled
    sim.tick();
    sim.evalComb();
    EXPECT_EQ(sim.output("q").toUint64(), 5u);
    sim.setInput("en", ApInt(1, 1));
    sim.tick();
    sim.evalComb();
    EXPECT_EQ(sim.output("q").toUint64(), 6u);
}

TEST(Sim, RomAndShift)
{
    Module m("romshift");
    NetId idx = m.addInput("idx", 2);
    NetId rom = m.addRom({ApInt(8, 1), ApInt(8, 2), ApInt(8, 4),
                          ApInt(8, 8)},
                         8, idx);
    NetId amount = m.addInput("amount", 3);
    NetId shifted = m.addNode(NodeKind::Shl, 8, {rom, amount});
    m.addOutput("out", shifted);

    Simulator sim(m);
    sim.setInput("idx", ApInt(2, 2));
    sim.setInput("amount", ApInt(3, 3));
    sim.evalComb();
    EXPECT_EQ(sim.output("out").toUint64(), 4u << 3);
}

TEST(Sim, SignedOps)
{
    Module m("signed");
    NetId a = m.addInput("a", 8);
    NetId b = m.addInput("b", 8);
    NetId lt = m.addICmp(ir::ICmpPred::Slt, a, b);
    NetId sra = m.addNode(NodeKind::ShrS, 8, {a, b});
    m.addOutput("lt", lt);
    m.addOutput("sra", sra);

    Simulator sim(m);
    sim.setInput("a", ApInt(8, 0xf0)); // -16
    sim.setInput("b", ApInt(8, 2));
    sim.evalComb();
    EXPECT_EQ(sim.output("lt").toUint64(), 1u);
    EXPECT_EQ(sim.output("sra").toUint64(), 0xfcu); // -4
}

TEST(Verilog, EmitsStructure)
{
    Module m("ADDI");
    NetId instr = m.addInput("instr_word_2", 32);
    NetId rs1 = m.addInput("rdrs1_2", 32);
    NetId stall = m.addInput("stall_in_2", 1);
    NetId zero = m.addConstant(ApInt(1, 0));
    NetId en = m.addICmp(ir::ICmpPred::Eq, stall, zero);
    NetId imm = m.addExtract(instr, 20, 12);
    NetId sign = m.addExtract(instr, 31, 1);
    NetId rep = m.addNode(NodeKind::Replicate, 20, {sign});
    NetId sext = m.addNode(NodeKind::Concat, 32, {rep, imm});
    NetId sum = m.addNode(NodeKind::Add, 32, {rs1, sext});
    NetId pipe = m.addRegister(sum, en, ApInt(32, 0));
    m.nameNet(pipe, "pipe_2");
    m.addOutput("wrrd_data_3", pipe);
    ASSERT_EQ(m.verify(), "");

    std::string verilog = emitVerilog(m);
    EXPECT_NE(verilog.find("module ADDI("), std::string::npos);
    EXPECT_NE(verilog.find("input [31:0] instr_word_2"),
              std::string::npos);
    EXPECT_NE(verilog.find("output [31:0] wrrd_data_3"),
              std::string::npos);
    EXPECT_NE(verilog.find("always_ff @(posedge clk)"),
              std::string::npos);
    EXPECT_NE(verilog.find("[31:20]"), std::string::npos);
    EXPECT_NE(verilog.find("{20{"), std::string::npos);
    EXPECT_NE(verilog.find("endmodule"), std::string::npos);
}

TEST(Verilog, DivisionByZeroYieldsZero)
{
    // rtl::Simulator, simjit and TV define x / 0 and x % 0 as 0; bare
    // SV operators would yield X.
    Module m("divmod");
    NetId a = m.addInput("a", 16);
    NetId b = m.addInput("b", 16);
    const std::pair<NodeKind, const char *> nodes[] = {
        {NodeKind::DivU, "qu"},
        {NodeKind::DivS, "qs"},
        {NodeKind::ModU, "ru"},
        {NodeKind::ModS, "rs"},
    };
    for (const auto &[kind, name] : nodes) {
        NetId net = m.addNode(kind, 16, {a, b});
        m.nameNet(net, name);
        m.addOutput(name, net);
    }
    ASSERT_EQ(m.verify(), "");

    std::string verilog = emitVerilog(m);
    for (const char *line : {
             "assign qu_w = (b == 16'd0) ? 16'd0 : a / b;",
             "assign qs_w = (b == 16'd0) ? 16'sd0 : "
             "$signed(a) / $signed(b);",
             "assign ru_w = (b == 16'd0) ? 16'd0 : a % b;",
             "assign rs_w = (b == 16'd0) ? 16'sd0 : "
             "$signed(a) % $signed(b);",
         })
        EXPECT_NE(verilog.find(line), std::string::npos)
            << line << "\n" << verilog;

    Simulator sim(m);
    sim.setInput("a", ApInt(16, 1234));
    sim.setInput("b", ApInt(16, 0));
    sim.evalComb();
    for (const char *out : {"qu", "qs", "ru", "rs"})
        EXPECT_TRUE(sim.output(out).isZero()) << out;
}

TEST(Verilog, RomEmitsCase)
{
    Module m("rom");
    NetId idx = m.addInput("idx", 2);
    NetId rom = m.addRom({ApInt(8, 0x63), ApInt(8, 0x7c), ApInt(8, 0x77),
                          ApInt(8, 0x7b)},
                         8, idx);
    m.addOutput("data", rom);
    std::string verilog = emitVerilog(m);
    EXPECT_NE(verilog.find("case (idx)"), std::string::npos);
    EXPECT_NE(verilog.find("8'h63"), std::string::npos);
    EXPECT_NE(verilog.find("default:"), std::string::npos);
}

TEST(Verilog, OutputPortNameCollisionResolved)
{
    Module m("collide");
    NetId a = m.addInput("a", 4);
    NetId inv = m.addNode(NodeKind::Xor, 4,
                          {a, m.addConstant(ApInt(4, 0xf))});
    m.nameNet(inv, "out"); // same as the port name
    m.addOutput("out", inv);
    std::string verilog = emitVerilog(m);
    // The internal wire must be renamed and assigned to the port.
    EXPECT_NE(verilog.find("out_w"), std::string::npos);
    EXPECT_NE(verilog.find("assign out = out_w;"), std::string::npos);
}
