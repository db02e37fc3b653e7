/**
 * @file
 * Cycle-level models of the evaluation host cores (Sec. 5.2) with
 * SCAIE-V integration: ORCA and VexRiscv (5-stage pipelines), Piccolo
 * (3-stage), and PicoRV32 (non-pipelined FSM sequencing, modeled as a
 * no-overlap pipeline).
 *
 * The integration layer plays the role of the SCAIE-V-generated logic:
 * it decodes ISAX opcodes, drives the generated modules' stage-suffixed
 * ports in lock-step with the pipeline (the modules themselves run in
 * the RTL simulator), applies their state updates (WrRD/WrPC/WrMem/
 * custom registers), performs register data-hazard handling (stalls +
 * forwarding, including the scoreboard for decoupled ISAXes), hosts the
 * SCAIE-V-managed custom registers, evaluates always-blocks every
 * cycle, and arbitrates between multiple attached ISAXes
 * (first-attached wins, Sec. 3.3).
 */

#ifndef LONGNAIL_CORES_CORE_HH
#define LONGNAIL_CORES_CORE_HH

#include <array>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cores/memory.hh"
#include "cores/rv32i.hh"
#include "hwgen/hwgen.hh"
#include "rtl/sim.hh"
#include "scaiev/datasheet.hh"

namespace longnail {
namespace cores {

/** One ISAX instruction with its generated hardware module. */
struct IsaxInstrUnit
{
    std::string name;
    uint32_t mask = 0;
    uint32_t match = 0;
    hwgen::GeneratedModule module;
};

/** A compiled ISAX ready for integration. */
struct IsaxBundle
{
    std::string name;

    struct CustomReg
    {
        std::string name;
        unsigned width = 32;
        uint64_t elements = 1;
    };

    std::vector<IsaxInstrUnit> instructions;
    std::vector<hwgen::GeneratedModule> alwaysBlocks;
    std::vector<CustomReg> customRegs;
};

/** Per-run statistics. */
struct RunStats
{
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    /** Cycles (since core construction) in which the pipeline front
     * end was held back: a global tightly-coupled/commit stall, or a
     * fetch/decode stall from hazards and bus waits. */
    uint64_t stallCycles = 0;
    bool halted = false;

    double ipc() const
    {
        return cycles ? double(instructions) / double(cycles) : 0.0;
    }
};

/** Extra timing knobs beyond the datasheet. */
struct CoreTiming
{
    BusTiming bus;
    /** Extra cycles per instruction fetch (uncached iBus). */
    unsigned fetchWaitStates = 0;
};

class Core
{
  public:
    explicit Core(const scaiev::Datasheet &sheet, CoreTiming timing = {});

    /** Attach a compiled ISAX; attach order fixes arbitration
     * priority. Its modules run on the compiled simulation engine. */
    void attachIsax(std::shared_ptr<IsaxBundle> bundle);

    /** Copy a program into memory and point the PC at it. */
    void loadProgram(const std::vector<uint32_t> &words, uint32_t base);

    Memory &memory() { return memory_; }
    uint32_t reg(unsigned i) const { return state_.reg(i); }
    void setReg(unsigned i, uint32_t v) { state_.setReg(i, v); }
    uint32_t pc() const { return fetchPc_; }

    /** Architectural custom-register contents. */
    const ApInt &customReg(const std::string &name,
                           uint64_t index = 0) const;
    void setCustomReg(const std::string &name, uint64_t index,
                      const ApInt &value);

    /** Advance one clock cycle. @return false once halted. */
    bool stepCycle();

    /** Run until ECALL/EBREAK retires or @p max_cycles pass. */
    RunStats run(uint64_t max_cycles = 1'000'000);

    bool halted() const { return halted_; }

  private:
    // ------------------------------------------------------------------
    /** One interface port of a generated module, resolved at attach
     * time: net ids instead of port names, the custom register's
     * storage instead of its name. */
    struct PortNets
    {
        scaiev::SubInterface iface = scaiev::SubInterface::RdInstr;
        int stage = 0;
        rtl::NetId data = rtl::invalidNet;  ///< data input or output
        rtl::NetId addr = rtl::invalidNet;  ///< address/index output
        rtl::NetId valid = rtl::invalidNet; ///< valid/predicate output
        std::vector<ApInt> *reg = nullptr;  ///< custom register storage
    };

    /** What the per-cycle path needs of one ISAX instruction's module,
     * derived once by attachIsax(), plus the free list of simulators
     * its executions borrow. */
    struct InstrModule
    {
        const IsaxInstrUnit *unit = nullptr;
        /** Shared by all simulators of the module. */
        std::shared_ptr<const rtl::simjit::Program> program;
        std::vector<rtl::NetId> stallInputs;
        std::vector<std::vector<PortNets>> stagePorts; ///< index = stage
        /** Custom registers the instruction reads or writes. */
        std::vector<const std::vector<ApInt> *> customRegs;
        /** Register and stage of every WrCustRegData port. */
        std::vector<std::pair<const std::vector<ApInt> *, int>>
            customRegWrites;
        bool readsRs1 = false;
        bool readsRs2 = false;
        bool writesRd = false;
        /** Spawn ports after writeback: the execution decouples. */
        bool spawnsPastWriteback = false;
        /** Simulators of executions no longer alive, reset when taken;
         * never more than executions were ever alive at once. */
        std::vector<std::unique_ptr<rtl::Simulator>> idleSims;
    };

    /** A custom (ISAX) instruction execution driving its module. */
    struct IsaxExec
    {
        InstrModule *mod = nullptr;
        /** Taken from mod->idleSims at fetch and handed back when the
         * execution is dropped (retired, squashed, or finished after
         * detaching). */
        std::unique_ptr<rtl::Simulator> sim;
        int stage = -1;       ///< current module stage (time step)
        bool stalledThisCycle = false;
        bool rdPending = false; ///< WrRD not yet delivered
        bool resultReady = false; ///< sampled, awaiting WB commit
        uint32_t resultValue = 0;
        unsigned rd = 0;
        bool decoupled = false; ///< detached from the pipeline
        bool finished = false;
        unsigned memWait = 0;   ///< bus wait for an ISAX memory access
        uint64_t seq = 0;

        IsaxExec() = default;
        IsaxExec(const IsaxExec &) = delete;
        IsaxExec &operator=(const IsaxExec &) = delete;
        ~IsaxExec()
        {
            if (sim)
                mod->idleSims.push_back(std::move(sim));
        }
    };

    /** One pipeline slot (the instruction occupying a stage). */
    struct Slot
    {
        bool valid = false;
        uint64_t seq = 0;
        uint32_t pc = 0;
        uint32_t instr = 0;
        DecodedInstr d;
        bool operandsRead = false;
        uint32_t rs1v = 0;
        uint32_t rs2v = 0;
        bool resultValid = false;
        uint32_t result = 0;
        bool addrValid = false;  ///< EX computed the memory address
        unsigned waitCycles = 0; ///< bus wait countdown in MEM
        bool memDone = false;
        bool isHalt = false;
        std::shared_ptr<IsaxExec> isax; ///< non-null for ISAX instrs
    };

    struct AlwaysUnit
    {
        std::unique_ptr<rtl::Simulator> sim;
        std::vector<PortNets> ports; ///< in declaration order
    };

    // Stage processing (called once per cycle, last stage first).
    void processWriteback();
    void processMemory();
    void processExecute();
    void processDecode();
    void processFetch();
    void advancePipeline();
    void runAlwaysUnits();
    void stepIsaxExecs(bool force_hold_attached);
    void stepOneExec(IsaxExec &exec, Slot *slot, bool force_hold);

    bool readOperand(unsigned reg_index, uint64_t reader_seq,
                     uint32_t &value) const;
    InstrModule *matchIsax(uint32_t word) const;

    void sampleIsaxOutputs(Slot *slot, IsaxExec &exec);
    /** WrCustRegAddr/WrCustRegData sampling, shared by instructions
     * and always-blocks. */
    void sampleCustomRegWrite(const rtl::Simulator &sim,
                              const PortNets &port);
    void applyRedirect(uint32_t new_pc, uint64_t younger_than_seq);

    unsigned stageOf(const Slot *slot) const;
    bool slotWillAdvance(unsigned stage) const;
    bool customRegHasPendingWrite(const std::vector<ApInt> *reg,
                                  uint64_t reader_seq) const;
    /** The module's ports, with names resolved to nets and registers
     * to storage (attach time only). */
    std::vector<PortNets> resolvePorts(const hwgen::GeneratedModule &mod);
    /** A simulator for @p mod in its freshly constructed state, from
     * the free list when one is idle. */
    static std::unique_ptr<rtl::Simulator> takeSimulator(InstrModule &mod);

    // ------------------------------------------------------------------
    const scaiev::Datasheet &sheet_;
    CoreTiming timing_;

    unsigned numStages_;
    bool overlap_; ///< false models FSM sequencing (PicoRV32)
    unsigned decodeStage_;
    unsigned execStage_;
    unsigned memStage_;
    unsigned wbStage_;

    ArchState state_;
    Memory memory_;
    uint32_t fetchPc_ = 0;
    unsigned fetchWait_ = 0;
    bool fetchedThisCycle_ = false;
    uint32_t fetchedPc_ = 0;
    uint64_t nextSeq_ = 1;
    uint64_t cycle_ = 0;
    uint64_t retired_ = 0;
    uint64_t stallCycles_ = 0;
    bool halted_ = false;
    /** Extra full-pipeline stall cycles (tightly-coupled / commit). */
    unsigned globalStall_ = 0;

    // Declared before the in-flight state below: executions hand their
    // simulators back to instrModules_ when they are destroyed.
    std::vector<std::shared_ptr<IsaxBundle>> bundles_;
    std::map<std::string, std::vector<ApInt>> customRegs_;
    /** Attach order = arbitration priority (first attached wins). */
    std::vector<std::unique_ptr<InstrModule>> instrModules_;
    std::vector<AlwaysUnit> alwaysUnits_;

    std::vector<Slot> slots_; ///< index = stage
    std::vector<std::shared_ptr<IsaxExec>> detachedExecs_;
    /** GPR scoreboard for decoupled writes: reg -> owning seq. */
    std::map<unsigned, uint64_t> rdScoreboard_;

    /** Direct-mapped fetch decode cache: decode() + matchIsax() are
     * pure functions of the instruction word and the attached
     * bundles, so memoize them (invalidated by attachIsax). */
    struct DecodeCacheEntry
    {
        uint32_t word = 0;
        bool valid = false;
        DecodedInstr d;
        InstrModule *isax = nullptr;
    };
    std::array<DecodeCacheEntry, 256> decodeCache_{};
    /** Reusable scratch for WrCustRegAddr/WrCustRegData pairing,
     * avoiding a per-cycle map allocation. */
    std::vector<std::pair<const std::vector<ApInt> *, uint64_t>>
        pendingIdxScratch_;

    // Per-cycle stall flags computed during stage processing.
    bool stallFetch_ = false;
    bool stallDecode_ = false;
    bool stallExecute_ = false;
    bool stallMemory_ = false;
};

} // namespace cores
} // namespace longnail

#endif // LONGNAIL_CORES_CORE_HH
