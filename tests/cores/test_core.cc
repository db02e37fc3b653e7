/**
 * @file
 * Tests for the cycle-level host-core models running base RV32I
 * programs: architectural agreement with the ISS on all four cores,
 * plus pipeline timing behaviors (hazard stalls, branch penalties,
 * memory wait states, FSM sequencing), and the recycling of ISAX
 * module simulators between executions.
 */

#include <gtest/gtest.h>

#include "cores/core.hh"
#include "cores/rv32i.hh"
#include "rvasm/assembler.hh"
#include "scaiev/datasheet.hh"

using namespace longnail;
using namespace longnail::cores;
using scaiev::Datasheet;

namespace {

rvasm::Program
assemble(const std::string &src)
{
    rvasm::Assembler as;
    rvasm::Program p = as.assemble(src, 0);
    EXPECT_TRUE(p.ok) << p.error;
    return p;
}

/** Run a program on the ISS; return the final state. */
ArchState
runIss(const rvasm::Program &p, Memory &mem)
{
    ArchState state;
    for (size_t i = 0; i < p.words.size(); ++i)
        mem.writeWord(uint32_t(i * 4), p.words[i]);
    Iss iss(state, mem);
    iss.run();
    return state;
}

RunStats
runCore(Core &core, const rvasm::Program &p,
        uint64_t max_cycles = 100000)
{
    core.loadProgram(p.words, 0);
    return core.run(max_cycles);
}

const char *fibProgram = R"(
    li a0, 12
    li a1, 0
    li a2, 1
loop:
    beqz a0, done
    add a3, a1, a2
    mv a1, a2
    mv a2, a3
    addi a0, a0, -1
    j loop
done:
    ecall
)";

const char *memProgram = R"(
    li a0, 0x1000
    li a1, 7
    sw a1, 0(a0)
    lw a2, 0(a0)
    addi a2, a2, 1      # load-use dependency
    sw a2, 4(a0)
    lh a3, 0(a0)
    lb a4, 4(a0)
    sb a4, 8(a0)
    lbu a5, 8(a0)
    ecall
)";

const char *hazardProgram = R"(
    li a0, 5
    addi a1, a0, 1      # RAW on a0
    addi a2, a1, 1      # RAW on a1
    add a3, a1, a2
    sub a4, a3, a0
    ecall
)";

} // namespace

class BaseCoreTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(BaseCoreTest, MatchesIssOnPrograms)
{
    for (const char *src : {fibProgram, memProgram, hazardProgram}) {
        rvasm::Program p = assemble(src);
        Memory golden_mem;
        ArchState golden = runIss(p, golden_mem);

        Core core(Datasheet::forCore(GetParam()));
        RunStats stats = runCore(core, p);
        ASSERT_TRUE(stats.halted) << GetParam();
        for (unsigned r = 0; r < 32; ++r)
            EXPECT_EQ(core.reg(r), golden.reg(r))
                << GetParam() << " x" << r;
    }
}

TEST_P(BaseCoreTest, MemoryContentsMatchIss)
{
    rvasm::Program p = assemble(memProgram);
    Memory golden_mem;
    runIss(p, golden_mem);
    Core core(Datasheet::forCore(GetParam()));
    RunStats stats = runCore(core, p);
    ASSERT_TRUE(stats.halted);
    for (uint32_t addr = 0x1000; addr < 0x100c; ++addr)
        EXPECT_EQ(core.memory().readByte(addr),
                  golden_mem.readByte(addr))
            << GetParam() << " @" << std::hex << addr;
}

INSTANTIATE_TEST_SUITE_P(Cores, BaseCoreTest,
                         ::testing::Values("ORCA", "Piccolo", "PicoRV32",
                                           "VexRiscv"));

TEST(CoreTiming, PipelinedCoreOverlaps)
{
    // A straight-line program on a pipelined core approaches 1 IPC;
    // the FSM core (PicoRV32) takes ~numStages cycles per instruction.
    std::string src;
    for (int i = 0; i < 40; ++i)
        src += "addi x1, x1, 1\n";
    src += "ecall\n";
    rvasm::Program p = assemble(src);

    Core vex(Datasheet::forCore("VexRiscv"));
    RunStats vex_stats = runCore(vex, p);
    ASSERT_TRUE(vex_stats.halted);
    EXPECT_LT(vex_stats.cycles, 60u); // ~41 + fill

    Core pico(Datasheet::forCore("PicoRV32"));
    RunStats pico_stats = runCore(pico, p);
    ASSERT_TRUE(pico_stats.halted);
    EXPECT_GT(pico_stats.cycles, 4 * 40u);
    EXPECT_EQ(pico.reg(1), 40u);
}

TEST(CoreTiming, BranchCostsPipelineRefill)
{
    // Taken branches flush the front of the pipeline.
    const char *loop = R"(
        li a0, 20
    back:
        addi a0, a0, -1
        bnez a0, back
        ecall
    )";
    rvasm::Program p = assemble(loop);
    Core core(Datasheet::forCore("VexRiscv"));
    RunStats stats = runCore(core, p);
    ASSERT_TRUE(stats.halted);
    // 2 instructions per iteration but > 2 cycles per iteration due to
    // the branch redirect.
    EXPECT_GT(stats.cycles, 20 * 3u);
    EXPECT_EQ(core.reg(10), 0u);
}

TEST(CoreTiming, LoadWaitStatesStall)
{
    const char *loads = R"(
        li a0, 0x400
        lw a1, 0(a0)
        lw a2, 4(a0)
        lw a3, 8(a0)
        ecall
    )";
    rvasm::Program p = assemble(loads);

    CoreTiming fast;
    fast.bus.loadWaitStates = 0;
    Core fast_core(Datasheet::forCore("VexRiscv"), fast);
    RunStats fast_stats = runCore(fast_core, p);

    CoreTiming slow;
    slow.bus.loadWaitStates = 4;
    Core slow_core(Datasheet::forCore("VexRiscv"), slow);
    RunStats slow_stats = runCore(slow_core, p);

    ASSERT_TRUE(fast_stats.halted);
    ASSERT_TRUE(slow_stats.halted);
    EXPECT_GE(slow_stats.cycles, fast_stats.cycles + 3 * 4u);
}

TEST(CoreTiming, FetchWaitStatesSlowEverything)
{
    std::string src;
    for (int i = 0; i < 10; ++i)
        src += "addi x1, x1, 1\n";
    src += "ecall\n";
    rvasm::Program p = assemble(src);

    Core fast_core(Datasheet::forCore("VexRiscv"));
    RunStats fast_stats = runCore(fast_core, p);

    CoreTiming slow;
    slow.fetchWaitStates = 2;
    Core slow_core(Datasheet::forCore("VexRiscv"), slow);
    RunStats slow_stats = runCore(slow_core, p);

    EXPECT_GE(slow_stats.cycles, fast_stats.cycles + 2 * 10u);
    EXPECT_EQ(slow_core.reg(1), 10u);
}

TEST(CoreTiming, InstructionCountMatches)
{
    rvasm::Program p = assemble(fibProgram);
    Core core(Datasheet::forCore("Piccolo"));
    RunStats stats = runCore(core, p);
    ASSERT_TRUE(stats.halted);
    // ISS executes the same dynamic instruction count.
    Memory mem;
    ArchState state;
    for (size_t i = 0; i < p.words.size(); ++i)
        mem.writeWord(uint32_t(i * 4), p.words[i]);
    Iss iss(state, mem);
    uint64_t iss_steps = iss.run();
    EXPECT_EQ(stats.instructions, iss_steps);
}

TEST(CoreTiming, JalrReturnsCorrectly)
{
    const char *src = R"(
        li sp, 0x2000
        jal ra, func
        addi a1, a0, 1
        ecall
    func:
        li a0, 41
        ret
    )";
    rvasm::Program p = assemble(src);
    for (const char *core_name : {"ORCA", "VexRiscv", "PicoRV32"}) {
        Core core(Datasheet::forCore(core_name));
        RunStats stats = runCore(core, p);
        ASSERT_TRUE(stats.halted) << core_name;
        EXPECT_EQ(core.reg(11), 42u) << core_name;
    }
}

TEST(CoreIsax, RecycledSimulatorStartsFromResetState)
{
    // A one-stage ISAX whose result is a register read before its
    // first write: it delivers the register's init value 7, then the
    // clock edge loads the instruction word. The second execution
    // reuses the first one's simulator (the nops retire the first
    // before the second is fetched), so it delivers 7 again only if
    // the reused simulator was reset.
    IsaxInstrUnit unit;
    unit.name = "latch";
    unit.mask = 0x7f;
    unit.match = 0x0b; // custom-0
    hwgen::GeneratedModule &mod = unit.module;
    mod.name = "latch";
    mod.module = rtl::Module("latch");
    rtl::NetId instr = mod.module.addInput("instr_word_0", 32);
    rtl::NetId held =
        mod.module.addRegister(instr, rtl::invalidNet, ApInt(32, 7));
    mod.module.addOutput("wrrd_data_0", held);
    mod.module.addOutput("wrrd_valid_0",
                         mod.module.addConstant(ApInt(1, 1)));
    hwgen::InterfacePort read;
    read.iface = scaiev::SubInterface::RdInstr;
    read.dataPort = "instr_word_0";
    hwgen::InterfacePort write;
    write.iface = scaiev::SubInterface::WrRD;
    write.dataPort = "wrrd_data_0";
    write.validPort = "wrrd_valid_0";
    mod.ports = {read, write};
    mod.stallInputs = {""};
    auto bundle = std::make_shared<IsaxBundle>();
    bundle->name = "latch";
    bundle->instructions.push_back(std::move(unit));

    rvasm::Program p = assemble(R"(
        .word 0x0000058b   # latch a1
        nop
        nop
        nop
        nop
        nop
        nop
        nop
        nop
        nop
        nop
        .word 0x0000060b   # latch a2
        ecall
    )");
    for (const char *core_name : {"ORCA", "Piccolo", "PicoRV32",
                                  "VexRiscv"}) {
        Core core(Datasheet::forCore(core_name));
        core.attachIsax(bundle);
        core.loadProgram(p.words, 0);
        RunStats stats = core.run();
        ASSERT_TRUE(stats.halted) << core_name;
        EXPECT_EQ(core.reg(11), 7u) << core_name;
        EXPECT_EQ(core.reg(12), 7u) << core_name;
    }
}
