/**
 * @file
 * The SCAIE-V interface table (ir/iface.def), checked row by row in
 * two ways:
 *
 *  - against hand-written expectations: the Table 1 / YAML name, the
 *    LIL spelling, read or write, the late variants, and the port
 *    names, both in the table and on a module hwgen generates for an
 *    instruction that uses every sub-interface;
 *  - against lil::interpret, the golden model: a one-op graph whose
 *    operands in the row's address, data, predicate and
 *    register-index positions carry distinct values must land each
 *    value in the interpreter's matching field.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "driver/longnail.hh"
#include "ir/iface.hh"
#include "ir/ir.hh"
#include "lil/interp.hh"
#include "scaiev/config.hh"
#include "scaiev/datasheet.hh"
#include "scaiev/interface.hh"

using namespace longnail;
using ir::OpKind;
using scaiev::SubInterface;

namespace {

/** What the paper, the YAML files and the generated ports say. */
struct Expect
{
    SubInterface iface;
    OpKind op;
    const char *name;    ///< Table 1 / datasheet YAML
    const char *lil;     ///< LIL spelling
    bool write;
    bool late;           ///< tightly-coupled/decoupled variants
    const char *addr;    ///< port stems, "" = no such port; R is the
    const char *data;    ///< custom register of the test ISAX
    const char *valid;
};

const Expect expected[] = {
    {SubInterface::RdInstr, OpKind::LilInstrWord, "RdInstr",
     "lil.instr_word", false, false, "", "instr_word", ""},
    {SubInterface::RdRS1, OpKind::LilReadRs1, "RdRS1", "lil.read_rs1",
     false, false, "", "rdrs1", ""},
    {SubInterface::RdRS2, OpKind::LilReadRs2, "RdRS2", "lil.read_rs2",
     false, false, "", "rdrs2", ""},
    {SubInterface::RdCustReg, OpKind::LilReadCustReg, "RdCustReg",
     "lil.read_custreg", false, false, "rdR_addr", "rdR_data", ""},
    {SubInterface::RdPC, OpKind::LilReadPC, "RdPC", "lil.read_pc", false,
     false, "", "rdpc", ""},
    {SubInterface::RdMem, OpKind::LilReadMem, "RdMem", "lil.read_mem",
     false, true, "rdmem_addr", "rdmem_data", "rdmem_valid"},
    {SubInterface::WrRD, OpKind::LilWriteRd, "WrRD", "lil.write_rd", true,
     true, "", "wrrd_data", "wrrd_valid"},
    {SubInterface::WrCustRegAddr, OpKind::LilWriteCustRegAddr,
     "WrCustReg.addr", "lil.write_custreg_addr", true, false, "wrR_addr",
     "", ""},
    {SubInterface::WrCustRegData, OpKind::LilWriteCustRegData,
     "WrCustReg.data", "lil.write_custreg_data", true, false, "",
     "wrR_data", "wrR_valid"},
    {SubInterface::WrPC, OpKind::LilWritePC, "WrPC", "lil.write_pc", true,
     false, "", "wrpc_data", "wrpc_valid"},
    {SubInterface::WrMem, OpKind::LilWriteMem, "WrMem", "lil.write_mem",
     true, true, "wrmem_addr", "wrmem_data", "wrmem_valid"},
};

const ir::IfaceInfo &
rowOf(const Expect &e)
{
    return scaiev::interfaceInfo(e.iface);
}

/** A port spelling of the table for register R, "" when absent. */
std::string
portStem(const char *spelling)
{
    return spelling ? ir::ifaceName(spelling, "R") : "";
}

/** One instruction that uses all eleven sub-interfaces. */
const char *everyInterface = R"(
import "RV32I.core_desc"

InstructionSet every_iface extends RV32I {
    architectural_state {
        register unsigned<32> R[4];
    }
    instructions {
        every {
            encoding: 7'd0 :: rs2[4:0] :: rs1[4:0] :: 3'b000 :: rd[4:0]
                      :: 7'b0001011;
            behavior: {
                unsigned<32> a = X[rs1];
                unsigned<32> b = X[rs2];
                unsigned<32> m = MEM[a+3:a];
                MEM[b+3:b] = (unsigned<32>)(m + R[rd[1:0]]);
                R[rs1[1:0]] = m;
                X[rd] = PC;
                PC = (unsigned<32>)(PC + 8);
            }
        }
    }
}
)";

std::string
suffixed(const char *stem, int stage)
{
    return *stem ? std::string(stem) + "_" + std::to_string(stage) : "";
}

} // namespace

TEST(IfaceTable, NamesSpellingsAndKindsFollowTheTable)
{
    ASSERT_EQ(std::size(expected), size_t(ir::numIfaceOps));
    for (unsigned row = 0; row < ir::numIfaceOps; ++row) {
        const Expect &e = expected[row];
        SCOPED_TRACE(e.name);
        // Both enums expand the rows in table order.
        EXPECT_EQ(scaiev::SubInterface(row), e.iface);
        EXPECT_EQ(scaiev::opKindFor(e.iface), e.op);
        ASSERT_TRUE(scaiev::subInterfaceFor(e.op).has_value());
        EXPECT_EQ(*scaiev::subInterfaceFor(e.op), e.iface);
        EXPECT_EQ(ir::ifaceInfo(e.op), &rowOf(e));

        const ir::IfaceInfo &info = rowOf(e);
        EXPECT_STREQ(info.name, e.name);
        EXPECT_STREQ(scaiev::subInterfaceName(e.iface), e.name);
        EXPECT_EQ(scaiev::subInterfaceByName(e.name), e.iface);
        EXPECT_STREQ(ir::opKindName(e.op), e.lil);
        EXPECT_TRUE(ir::isInterfaceOp(e.op));
        EXPECT_EQ(info.write, e.write);
        EXPECT_EQ(scaiev::isWriteInterface(e.iface), e.write);
        EXPECT_EQ(ir::isStateUpdateOp(e.op), e.write);
        EXPECT_EQ(info.lateVariants, e.late);
        EXPECT_EQ(scaiev::supportsLateVariants(e.iface), e.late);
        EXPECT_EQ(portStem(info.addrPort), e.addr);
        EXPECT_EQ(portStem(info.dataPort), e.data);
        EXPECT_EQ(portStem(info.validPort), e.valid);
    }
    EXPECT_FALSE(ir::isInterfaceOp(OpKind::LilSink));
    EXPECT_EQ(ir::ifaceInfo(OpKind::LilSink), nullptr);
    EXPECT_FALSE(scaiev::subInterfaceFor(OpKind::LilSink).has_value());
    EXPECT_FALSE(scaiev::subInterfaceFor(OpKind::CombAdd).has_value());
    EXPECT_FALSE(scaiev::subInterfaceByName("RdCOUNT").has_value());
}

TEST(IfaceTable, YamlNamesRoundTrip)
{
    // Datasheet keys are the Table 1 names, in table order.
    const scaiev::Datasheet &vex = scaiev::Datasheet::forCore("VexRiscv");
    scaiev::Datasheet back = scaiev::Datasheet::fromYaml(vex.toYaml());
    ASSERT_EQ(back.timings.size(), std::size(expected));
    for (const Expect &e : expected)
        EXPECT_EQ(back.timing(e.iface).earliest,
                  vex.timing(e.iface).earliest)
            << e.name;

    // Schedule entries name custom registers in place of "CustReg".
    scaiev::ScaievConfig config;
    config.isaxName = "t";
    config.coreName = "VexRiscv";
    scaiev::ConfigFunctionality fn;
    fn.name = "every";
    fn.mask = std::string(32, '-');
    for (const Expect &e : expected) {
        scaiev::ScheduledUse use;
        use.iface = e.iface;
        std::string want = e.name;
        if (size_t at = want.find("CustReg"); at != std::string::npos) {
            use.reg = "COUNT";
            want.replace(at, 7, "COUNT");
        }
        EXPECT_EQ(use.displayName(), want);
        fn.schedule.push_back(use);
    }
    config.functionality.push_back(fn);
    scaiev::ScaievConfig parsed =
        scaiev::ScaievConfig::fromYaml(config.toYaml());
    ASSERT_EQ(parsed.functionality.size(), 1u);
    const auto &uses = parsed.functionality[0].schedule;
    ASSERT_EQ(uses.size(), std::size(expected));
    for (size_t i = 0; i < uses.size(); ++i) {
        EXPECT_EQ(uses[i].iface, expected[i].iface) << expected[i].name;
        EXPECT_EQ(uses[i].reg, fn.schedule[i].reg) << expected[i].name;
    }
}

TEST(IfaceTable, GeneratedPortsCarryTheTableNames)
{
    driver::CompiledIsax isax = driver::compile(everyInterface);
    ASSERT_TRUE(isax.ok()) << isax.errors;
    const driver::CompiledUnit *unit = isax.findUnit("every");
    ASSERT_NE(unit, nullptr);
    const hwgen::GeneratedModule &mod = unit->module;
    ASSERT_EQ(mod.ports.size(), std::size(expected));
    for (const Expect &e : expected) {
        SCOPED_TRACE(e.name);
        const hwgen::InterfacePort *port =
            mod.findPort(e.iface, rowOf(e).perRegister ? "R" : "");
        ASSERT_NE(port, nullptr);
        int t = port->stage;
        EXPECT_EQ(port->addrPort, suffixed(e.addr, t));
        EXPECT_EQ(port->validPort, suffixed(e.valid, t));
        EXPECT_EQ(port->dataPort,
                  suffixed(e.data, t + int(port->latency)));
        // Reads take their data in; everything else drives out.
        if (!port->dataPort.empty()) {
            EXPECT_EQ(mod.module.findInput(port->dataPort).has_value(),
                      !e.write);
            EXPECT_EQ(mod.module.findOutput(port->dataPort).has_value(),
                      e.write);
        }
        for (const std::string &out : {port->addrPort, port->validPort}) {
            if (!out.empty()) {
                EXPECT_TRUE(mod.module.findOutput(out).has_value())
                    << out;
            }
        }
    }
}

TEST(IfaceTable, OperandRolesMatchTheGoldenModel)
{
    const ApInt addr(32, 0x1230), data(32, 0xdeadbeef);
    const ApInt index(2, 2);
    std::vector<ApInt> reg_r = {ApInt(32, 10), ApInt(32, 11),
                                ApInt(32, 12), ApInt(32, 13)};
    for (const Expect &e : expected) {
        for (uint64_t enabled : {1u, 0u}) {
            SCOPED_TRACE(std::string(e.name) +
                         (enabled ? " enabled" : " disabled"));
            const ir::IfaceInfo &layout = rowOf(e);
            lil::LilGraph graph;
            graph.name = "one";
            ir::Graph &g = graph.graph;
            auto constant = [&](const ApInt &v) {
                ir::Operation *c = g.append(OpKind::CombConstant, {},
                                            {ir::WireType(v.width())});
                c->setAttr("value", v);
                return c->result();
            };
            std::vector<ir::Value *> operands(layout.numOperands());
            if (layout.addr >= 0)
                operands[layout.addr] = constant(addr);
            if (layout.data >= 0)
                operands[layout.data] = constant(data);
            if (layout.pred >= 0)
                operands[layout.pred] = constant(ApInt(1, enabled));
            if (layout.index >= 0)
                operands[layout.index] = constant(index);
            for (ir::Value *v : operands)
                ASSERT_NE(v, nullptr) << "layout leaves a gap";
            std::vector<ir::WireType> results;
            if (!e.write)
                results.push_back(ir::WireType(32));
            ir::Operation *op = g.append(e.op, operands, results);
            if (layout.perRegister)
                op->setAttr("reg", std::string("R"));
            // The address leg is observable only through a data write.
            if (e.iface == SubInterface::WrCustRegAddr) {
                ir::Operation *w = g.append(
                    OpKind::LilWriteCustRegData,
                    {constant(data), constant(ApInt(1, 1))}, {});
                w->setAttr("reg", std::string("R"));
            }
            ir::Value *result = e.write ? nullptr : op->result();
            // Read the result back through a write whose operands the
            // interpreter is known to use (WrRD: value, predicate).
            if (result)
                g.append(OpKind::LilWriteRd,
                         {result, constant(ApInt(1, 1))}, {});
            g.append(OpKind::LilSink, {}, {});

            lil::InterpInput in;
            in.instrWord = ApInt(32, 0x0000100b);
            in.rs1 = ApInt(32, 0x11111111);
            in.rs2 = ApInt(32, 0x22222222);
            in.pc = ApInt(32, 0x00400000);
            in.readMem = lil::hashMemWord;
            in.custRegs["R"] = reg_r;
            lil::InterpResult out = lil::interpret(graph, in);
            auto read = [&]() { return out.rd.value.toUint64(); };

            switch (e.iface) {
              case SubInterface::RdInstr:
                EXPECT_EQ(read(), in.instrWord.toUint64());
                break;
              case SubInterface::RdRS1:
                EXPECT_EQ(read(), in.rs1.toUint64());
                break;
              case SubInterface::RdRS2:
                EXPECT_EQ(read(), in.rs2.toUint64());
                break;
              case SubInterface::RdPC:
                EXPECT_EQ(read(), in.pc.toUint64());
                break;
              case SubInterface::RdCustReg:
                EXPECT_EQ(read(), reg_r[index.toUint64()].toUint64());
                break;
              case SubInterface::RdMem:
                EXPECT_EQ(out.memReadUsed, bool(enabled));
                if (enabled) {
                    EXPECT_EQ(out.memReadAddr.toUint64(),
                              addr.toUint64());
                    EXPECT_EQ(read(),
                              lil::hashMemWord(addr).toUint64());
                }
                break;
              case SubInterface::WrRD:
                EXPECT_EQ(out.rd.enabled, bool(enabled));
                if (enabled) {
                    EXPECT_EQ(read(), data.toUint64());
                }
                break;
              case SubInterface::WrPC:
                EXPECT_EQ(out.pcWrite.enabled, bool(enabled));
                if (enabled) {
                    EXPECT_EQ(out.pcWrite.value.toUint64(),
                              data.toUint64());
                }
                break;
              case SubInterface::WrMem:
                EXPECT_EQ(out.mem.enabled, bool(enabled));
                if (enabled) {
                    EXPECT_EQ(out.mem.addr.toUint64(), addr.toUint64());
                    EXPECT_EQ(out.mem.value.toUint64(), data.toUint64());
                }
                break;
              case SubInterface::WrCustRegAddr: {
                ASSERT_TRUE(out.custWrites.count("R"));
                EXPECT_EQ(out.custWrites["R"].index.toUint64(),
                          index.toUint64());
                break;
              }
              case SubInterface::WrCustRegData: {
                EXPECT_EQ(out.custWrites.count("R") != 0, bool(enabled));
                if (enabled) {
                    EXPECT_EQ(out.custWrites["R"].value.toUint64(),
                              data.toUint64());
                }
                break;
              }
            }
        }
    }
}
