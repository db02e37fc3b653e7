#include "cores/core.hh"

#include <algorithm>
#include <optional>

#include "obs/metrics.hh"
#include "support/logging.hh"

namespace longnail {
namespace cores {

using hwgen::GeneratedModule;
using hwgen::InterfacePort;
using scaiev::SubInterface;

namespace {

/** The module's program when the compiled engine is the default, else
 * null (interpret). Decided once per module, at attach time. */
std::shared_ptr<const rtl::simjit::Program>
programForDefaultEngine(const GeneratedModule &mod)
{
    if (rtl::defaultSimEngine() != rtl::SimEngine::Compiled)
        return nullptr;
    return rtl::simjit::Program::compile(mod.module);
}

std::unique_ptr<rtl::Simulator>
newSimulator(const GeneratedModule &mod,
             const std::shared_ptr<const rtl::simjit::Program> &program)
{
    if (program)
        return std::make_unique<rtl::Simulator>(mod.module, program);
    return std::make_unique<rtl::Simulator>(mod.module,
                                            rtl::SimEngine::Interp);
}

rtl::NetId
inputNet(const GeneratedModule &mod, const std::string &name)
{
    std::optional<rtl::NetId> net = mod.module.findInput(name);
    if (!net)
        LN_PANIC("module '", mod.name, "' has no input '", name, "'");
    return *net;
}

rtl::NetId
outputNet(const GeneratedModule &mod, const std::string &name)
{
    std::optional<rtl::NetId> net = mod.module.findOutput(name);
    if (!net)
        LN_PANIC("module '", mod.name, "' has no output '", name, "'");
    return *net;
}

/** Drive a RdCustReg data input from the register element its address
 * output selects (element 0 without one; 0 when out of range). */
void
readCustomReg(rtl::Simulator &sim, const std::vector<ApInt> &storage,
              rtl::NetId data, rtl::NetId addr)
{
    uint64_t index = addr == rtl::invalidNet ? 0 : sim.netU64(addr);
    if (index < storage.size())
        sim.setInput(data, storage[index]);
    else
        sim.setInput(data, uint64_t(0));
}

} // namespace

Core::Core(const scaiev::Datasheet &sheet, CoreTiming timing)
    : sheet_(sheet), timing_(timing)
{
    numStages_ = sheet.numStages;
    overlap_ = sheet.pipelined;
    decodeStage_ = std::min(1u, numStages_ - 1);
    execStage_ = sheet.operandStage;
    memStage_ = sheet.memoryStage;
    wbStage_ = numStages_ - 1;
    slots_.resize(numStages_);
}

std::vector<Core::PortNets>
Core::resolvePorts(const GeneratedModule &mod)
{
    auto storage = [&](const std::string &reg) {
        auto it = customRegs_.find(reg);
        if (it == customRegs_.end())
            LN_PANIC("module '", mod.name,
                     "' uses unknown custom register '", reg, "'");
        return &it->second;
    };
    auto optional_output = [&](const std::string &name) {
        return name.empty() ? rtl::invalidNet : outputNet(mod, name);
    };
    std::vector<PortNets> ports;
    for (const InterfacePort &port : mod.ports) {
        PortNets r;
        r.iface = port.iface;
        r.stage = port.stage;
        switch (port.iface) {
          case SubInterface::RdInstr:
          case SubInterface::RdRS1:
          case SubInterface::RdRS2:
          case SubInterface::RdPC:
            r.data = inputNet(mod, port.dataPort);
            break;
          case SubInterface::RdCustReg:
            r.data = inputNet(mod, port.dataPort);
            r.addr = optional_output(port.addrPort);
            r.reg = storage(port.reg);
            break;
          case SubInterface::RdMem:
            r.data = inputNet(mod, port.dataPort);
            r.addr = outputNet(mod, port.addrPort);
            r.valid = outputNet(mod, port.validPort);
            break;
          case SubInterface::WrMem:
            r.addr = outputNet(mod, port.addrPort);
            [[fallthrough]];
          case SubInterface::WrRD:
          case SubInterface::WrPC:
            r.data = outputNet(mod, port.dataPort);
            r.valid = outputNet(mod, port.validPort);
            break;
          case SubInterface::WrCustRegAddr:
            r.addr = optional_output(port.addrPort);
            r.reg = storage(port.reg);
            break;
          case SubInterface::WrCustRegData:
            r.data = outputNet(mod, port.dataPort);
            r.valid = outputNet(mod, port.validPort);
            r.reg = storage(port.reg);
            break;
        }
        ports.push_back(r);
    }
    return ports;
}

void
Core::attachIsax(std::shared_ptr<IsaxBundle> bundle)
{
    for (const auto &reg : bundle->customRegs) {
        auto &storage = customRegs_[reg.name];
        storage.assign(reg.elements, ApInt(reg.width, 0));
    }
    for (const auto &always : bundle->alwaysBlocks) {
        AlwaysUnit unit;
        unit.sim = newSimulator(always, programForDefaultEngine(always));
        unit.sim->reset();
        unit.ports = resolvePorts(always);
        alwaysUnits_.push_back(std::move(unit));
    }
    // Everything the per-cycle path needs of an instruction's module is
    // derived here, once: port nets, register storage, stage buckets.
    for (const auto &unit : bundle->instructions) {
        const GeneratedModule &gm = unit.module;
        auto mod = std::make_unique<InstrModule>();
        mod->unit = &unit;
        mod->program = programForDefaultEngine(gm);
        for (const std::string &name : gm.stallInputs)
            if (!name.empty())
                mod->stallInputs.push_back(inputNet(gm, name));
        // Stages 0..lastStage run; ports outside them never fire.
        mod->stagePorts.resize(size_t(std::max(gm.lastStage, 0)) + 1);
        for (const PortNets &port : resolvePorts(gm)) {
            if (port.stage >= 0 && port.stage <= gm.lastStage)
                mod->stagePorts[size_t(port.stage)].push_back(port);
            if (port.iface != SubInterface::RdCustReg &&
                port.iface != SubInterface::WrCustRegData)
                continue;
            if (std::find(mod->customRegs.begin(), mod->customRegs.end(),
                          port.reg) == mod->customRegs.end())
                mod->customRegs.push_back(port.reg);
            if (port.iface == SubInterface::WrCustRegData)
                mod->customRegWrites.emplace_back(port.reg, port.stage);
        }
        mod->readsRs1 = gm.findPort(SubInterface::RdRS1) != nullptr;
        mod->readsRs2 = gm.findPort(SubInterface::RdRS2) != nullptr;
        mod->writesRd = gm.findPort(SubInterface::WrRD) != nullptr;
        for (const auto &port : gm.ports)
            if (port.stage > int(wbStage_) && port.fromSpawn)
                mod->spawnsPastWriteback = true;
        instrModules_.push_back(std::move(mod));
    }
    // New instructions can change what a fetched word decodes to.
    for (auto &entry : decodeCache_)
        entry.valid = false;
    bundles_.push_back(std::move(bundle));
}

std::unique_ptr<rtl::Simulator>
Core::takeSimulator(InstrModule &mod)
{
    std::unique_ptr<rtl::Simulator> sim;
    if (mod.idleSims.empty()) {
        sim = newSimulator(mod.unit->module, mod.program);
    } else {
        sim = std::move(mod.idleSims.back());
        mod.idleSims.pop_back();
    }
    sim->reset();
    return sim;
}

void
Core::loadProgram(const std::vector<uint32_t> &words, uint32_t base)
{
    for (size_t i = 0; i < words.size(); ++i)
        memory_.writeWord(base + uint32_t(i) * 4, words[i]);
    fetchPc_ = base;
    state_.pc = base;
}

const ApInt &
Core::customReg(const std::string &name, uint64_t index) const
{
    auto it = customRegs_.find(name);
    if (it == customRegs_.end())
        LN_PANIC("no custom register '", name, "'");
    return it->second.at(index);
}

void
Core::setCustomReg(const std::string &name, uint64_t index,
                   const ApInt &value)
{
    auto it = customRegs_.find(name);
    if (it == customRegs_.end())
        LN_PANIC("no custom register '", name, "'");
    ApInt &slot = it->second.at(index);
    slot = value.zextOrTrunc(slot.width());
}

Core::InstrModule *
Core::matchIsax(uint32_t word) const
{
    // Static arbitration priority: first attached, first matched
    // (Sec. 3.3).
    for (const auto &mod : instrModules_)
        if ((word & mod->unit->mask) == mod->unit->match)
            return mod.get();
    return nullptr;
}

unsigned
Core::stageOf(const Slot *slot) const
{
    for (unsigned s = 0; s < slots_.size(); ++s)
        if (&slots_[s] == slot)
            return s;
    LN_PANIC("slot not in pipeline");
}

bool
Core::readOperand(unsigned reg_index, uint64_t reader_seq,
                  uint32_t &value) const
{
    if (reg_index == 0) {
        value = 0;
        return true;
    }
    // Decoupled scoreboard: the register is owned by an ISAX still
    // computing its result.
    auto owned = rdScoreboard_.find(reg_index);
    if (owned != rdScoreboard_.end())
        return false;
    // Nearest older in-flight producer (ascending stages = most
    // recently issued first).
    for (unsigned s = decodeStage_ + 1; s < slots_.size(); ++s) {
        const Slot &slot = slots_[s];
        if (!slot.valid || slot.seq >= reader_seq)
            continue;
        if (slot.isax && slot.isax->rd == reg_index) {
            // In-pipeline ISAX results forward as soon as the module
            // delivers them; the register file commit happens at WB.
            IsaxExec &exec = *slot.isax;
            if (exec.resultReady) {
                value = exec.resultValue;
                return true;
            }
            if (exec.rdPending && !exec.finished)
                return false; // stall until the module delivers
            continue; // predicated off / no WrRD: not a producer
        }
        if (!(slot.d.writesRd() && slot.d.rd == reg_index))
            continue;
        if (slot.resultValid) {
            value = slot.result;
            return true;
        }
        return false; // stall until the producer computes
    }
    value = state_.reg(reg_index);
    return true;
}

void
Core::applyRedirect(uint32_t new_pc, uint64_t younger_than_seq)
{
    fetchPc_ = new_pc;
    fetchWait_ = 0;
    for (auto &slot : slots_) {
        if (slot.valid && slot.seq > younger_than_seq) {
            if (slot.isax)
                slot.isax->finished = true; // squashed
            slot = Slot{};
        }
    }
}

// ---------------------------------------------------------------------------
// Stage processing
// ---------------------------------------------------------------------------

void
Core::processWriteback()
{
    Slot &slot = slots_[wbStage_];
    if (!slot.valid)
        return;
    if (slot.isHalt) {
        halted_ = true;
        ++retired_;
        slot = Slot{};
        return;
    }
    if (slot.isax) {
        IsaxExec &exec = *slot.isax;
        // Commit an in-pipeline result in program order.
        if (exec.resultReady) {
            state_.setReg(exec.rd, exec.resultValue);
            exec.resultReady = false;
        }
        // Decide how the remaining module stages execute.
        int last_stage = exec.mod->unit->module.lastStage;
        if (!exec.finished && exec.stage <= last_stage) {
            // Either way the register stays owned by the ISAX until
            // its WrRD fires; readers stall via the scoreboard.
            if (exec.rdPending && exec.rd != 0)
                rdScoreboard_[exec.rd] = exec.seq;
            if (exec.mod->spawnsPastWriteback) {
                // Decoupled execution: the instruction retires, the
                // module keeps running in parallel.
                exec.decoupled = true;
            } else {
                // Tightly-coupled: stall the whole core until the
                // module delivers its last result.
                globalStall_ = unsigned(last_stage - exec.stage);
            }
            detachedExecs_.push_back(slot.isax);
        }
        ++retired_;
        slot = Slot{};
        return;
    }
    // Base instruction commit.
    if (slot.d.writesRd() && slot.resultValid)
        state_.setReg(slot.d.rd, slot.result);
    state_.pc = slot.pc + 4;
    ++retired_;
    slot = Slot{};
}

void
Core::processMemory()
{
    Slot &slot = slots_[memStage_];
    if (!slot.valid || slot.isax || slot.memDone)
        return;
    if (slot.d.opcode != Opcode::Load && slot.d.opcode != Opcode::Store) {
        slot.memDone = true;
        return;
    }
    if (!slot.addrValid)
        return; // the address has not been computed yet
    if (slot.waitCycles == 0) {
        unsigned waits = slot.d.opcode == Opcode::Load
                             ? timing_.bus.loadWaitStates
                             : timing_.bus.storeWaitStates;
        slot.waitCycles = waits + 1;
    }
    --slot.waitCycles;
    if (slot.waitCycles > 0)
        return; // still waiting; occupancy stalls upstream
    uint32_t addr = slot.result; // ALU computed the address
    if (slot.d.opcode == Opcode::Load) {
        uint32_t value = 0;
        switch (slot.d.funct3) {
          case 0x0:
            value = uint32_t(int32_t(int8_t(memory_.readByte(addr))));
            break;
          case 0x1:
            value = uint32_t(int32_t(int16_t(memory_.readHalf(addr))));
            break;
          case 0x2: value = memory_.readWord(addr); break;
          case 0x4: value = memory_.readByte(addr); break;
          case 0x5: value = memory_.readHalf(addr); break;
          default: break;
        }
        slot.result = value;
        slot.resultValid = true;
    } else {
        uint32_t value = slot.rs2v;
        switch (slot.d.funct3) {
          case 0x0: memory_.writeByte(addr, uint8_t(value)); break;
          case 0x1: memory_.writeHalf(addr, uint16_t(value)); break;
          case 0x2: memory_.writeWord(addr, value); break;
          default: break;
        }
    }
    slot.memDone = true;
}

void
Core::processExecute()
{
    Slot &slot = slots_[execStage_];
    if (!slot.valid || slot.isax || slot.resultValid || !slot.operandsRead)
        return;
    if (slot.d.opcode == Opcode::System || slot.d.opcode == Opcode::Fence)
        return;
    slot.result = executeAlu(slot.d, slot.rs1v, slot.rs2v, slot.pc);
    // Loads/stores: 'result' is the address until MEM replaces it.
    slot.addrValid = true;
    slot.resultValid = slot.d.opcode != Opcode::Load;
    // Control flow resolves here.
    if (slot.d.opcode == Opcode::Jal) {
        applyRedirect(slot.pc + uint32_t(slot.d.imm), slot.seq);
    } else if (slot.d.opcode == Opcode::Jalr) {
        applyRedirect((slot.rs1v + uint32_t(slot.d.imm)) & ~1u,
                      slot.seq);
    } else if (slot.d.opcode == Opcode::Branch &&
               branchTaken(slot.d, slot.rs1v, slot.rs2v)) {
        applyRedirect(slot.pc + uint32_t(slot.d.imm), slot.seq);
    }
}

void
Core::processDecode()
{
    Slot &slot = slots_[decodeStage_];
    stallDecode_ = false;
    if (!slot.valid || slot.operandsRead)
        return;

    // Structural hazard: only one execution per ISAX module at a time.
    if (slot.isax) {
        for (unsigned s = decodeStage_ + 1; s < slots_.size(); ++s) {
            const Slot &older = slots_[s];
            if (older.valid && older.isax &&
                older.isax->mod == slot.isax->mod &&
                !older.isax->finished) {
                stallDecode_ = true;
                return;
            }
        }
        for (const auto &exec : detachedExecs_) {
            if (!exec->finished && exec->mod == slot.isax->mod) {
                stallDecode_ = true;
                return;
            }
        }
    }

    // Register operands (with forwarding / stall).
    bool needs_rs1 =
        slot.isax ? slot.isax->mod->readsRs1 : slot.d.readsRs1();
    bool needs_rs2 =
        slot.isax ? slot.isax->mod->readsRs2 : slot.d.readsRs2();
    if (needs_rs1 && !readOperand(slot.d.rs1, slot.seq, slot.rs1v)) {
        stallDecode_ = true;
        return;
    }
    if (needs_rs2 && !readOperand(slot.d.rs2, slot.seq, slot.rs2v)) {
        stallDecode_ = true;
        return;
    }
    // WAW with an ISAX write in flight (either already detached and
    // tracked by the scoreboard, or still moving through the
    // pipeline).
    if ((slot.d.writesRd() || slot.isax) && slot.d.rd != 0) {
        auto owned = rdScoreboard_.find(slot.d.rd);
        if (owned != rdScoreboard_.end()) {
            stallDecode_ = true;
            return;
        }
        for (unsigned s = decodeStage_ + 1; s < slots_.size(); ++s) {
            const Slot &older = slots_[s];
            if (older.valid && older.seq < slot.seq && older.isax &&
                !older.isax->finished && older.isax->rdPending &&
                older.isax->rd == slot.d.rd) {
                stallDecode_ = true;
                return;
            }
        }
    }
    // Custom-register RAW/WAW against older unfinished ISAXes writing
    // the same register.
    if (slot.isax) {
        for (const std::vector<ApInt> *reg : slot.isax->mod->customRegs) {
            if (customRegHasPendingWrite(reg, slot.seq)) {
                stallDecode_ = true;
                return;
            }
        }
    }
    slot.operandsRead = true;
}

bool
Core::customRegHasPendingWrite(const std::vector<ApInt> *reg,
                               uint64_t reader_seq) const
{
    auto pending = [&](const IsaxExec &exec) {
        if (exec.finished || exec.seq >= reader_seq)
            return false;
        for (const auto &[written, stage] : exec.mod->customRegWrites)
            if (written == reg && stage >= exec.stage)
                return true;
        return false;
    };
    for (unsigned s = 0; s < slots_.size(); ++s)
        if (slots_[s].valid && slots_[s].isax && pending(*slots_[s].isax))
            return true;
    for (const auto &exec : detachedExecs_)
        if (pending(*exec))
            return true;
    return false;
}

void
Core::processFetch()
{
    stallFetch_ = false;
    if (halted_)
        return;
    if (slots_[0].valid)
        return; // fetch stage occupied
    if (fetchWait_ > 0) {
        --fetchWait_;
        return;
    }
    if (!overlap_) {
        // FSM sequencing: one instruction at a time.
        for (const auto &slot : slots_)
            if (slot.valid)
                return;
    }
    uint32_t word = memory_.readWord(fetchPc_);
    DecodeCacheEntry &cached = decodeCache_[(word >> 2) & 0xff];
    if (!cached.valid || cached.word != word) {
        cached.word = word;
        cached.d = decode(word);
        cached.isax = cached.d.opcode == Opcode::Custom
                          ? matchIsax(word)
                          : nullptr;
        cached.valid = true;
    }
    Slot slot;
    slot.valid = true;
    slot.seq = nextSeq_++;
    slot.pc = fetchPc_;
    slot.instr = word;
    slot.d = cached.d;
    slot.isHalt = slot.d.opcode == Opcode::System;
    if (slot.d.opcode == Opcode::Custom) {
        if (InstrModule *mod = cached.isax) {
            auto exec = std::make_shared<IsaxExec>();
            exec->mod = mod;
            exec->sim = takeSimulator(*mod);
            exec->stage = 0;
            exec->seq = slot.seq;
            exec->rdPending = mod->writesRd;
            exec->rd = slot.d.rd;
            slot.isax = std::move(exec);
        }
        // Unmatched custom opcodes trap as illegal: halt.
        if (!slot.isax)
            slot.isHalt = true;
    }
    slots_[0] = std::move(slot);
    fetchedThisCycle_ = true;
    fetchedPc_ = slots_[0].pc;
    fetchPc_ += 4;
    fetchWait_ = timing_.fetchWaitStates;
}

// ---------------------------------------------------------------------------
// ISAX module driving
// ---------------------------------------------------------------------------

void
Core::stepOneExec(IsaxExec &exec, Slot *slot, bool force_hold)
{
    const InstrModule &mod = *exec.mod;
    rtl::Simulator &sim = *exec.sim;

    bool hold;
    if (slot) {
        unsigned s = stageOf(slot);
        if (exec.stage != int(s)) {
            // The module ran ahead while the slot stalled at fetch
            // time; wait for the slot to catch up.
            hold = true;
        } else {
            hold = force_hold || !slotWillAdvance(s);
        }
    } else {
        hold = false;
    }
    if (exec.memWait > 0) {
        --exec.memWait;
        hold = true;
    }
    exec.stalledThisCycle = hold;

    // Drive stall inputs uniformly (one instruction per module).
    for (rtl::NetId net : mod.stallInputs)
        sim.setInput(net, uint64_t(hold ? 1 : 0));

    // Drive data inputs for ports in the current module stage.
    const std::vector<PortNets> &ports = mod.stagePorts[size_t(exec.stage)];
    for (const PortNets &port : ports) {
        switch (port.iface) {
          case SubInterface::RdInstr:
            sim.setInput(port.data, uint64_t(slot ? slot->instr : 0));
            break;
          case SubInterface::RdRS1:
            sim.setInput(port.data, uint64_t(slot ? slot->rs1v : 0));
            break;
          case SubInterface::RdRS2:
            sim.setInput(port.data, uint64_t(slot ? slot->rs2v : 0));
            break;
          case SubInterface::RdPC:
            sim.setInput(port.data, uint64_t(slot ? slot->pc : 0));
            break;
          default:
            break;
        }
    }
    // The engine skips either evaluation when nothing it depends on
    // changed (a hold cycle, a custom register read returning the same
    // value).
    sim.evalComb();
    // Custom-register reads resolve combinationally.
    for (const PortNets &port : ports)
        if (port.iface == SubInterface::RdCustReg)
            readCustomReg(sim, *port.reg, port.data, port.addr);
    sim.evalComb();

    if (!hold) {
        sampleIsaxOutputs(slot, exec);
        sim.clockEdge();
        ++exec.stage;
        if (exec.stage > mod.unit->module.lastStage)
            exec.finished = true;
    }
}

void
Core::stepIsaxExecs(bool force_hold_attached)
{
    for (auto &slot : slots_)
        if (slot.valid && slot.isax && !slot.isax->finished)
            stepOneExec(*slot.isax, &slot, force_hold_attached);
    for (auto &exec : detachedExecs_)
        if (!exec->finished)
            stepOneExec(*exec, nullptr, false);
    std::erase_if(detachedExecs_,
                  [](const std::shared_ptr<IsaxExec> &exec) {
                      return exec->finished;
                  });
}

void
Core::sampleCustomRegWrite(const rtl::Simulator &sim, const PortNets &port)
{
    if (port.iface == SubInterface::WrCustRegAddr) {
        pendingIdxScratch_.emplace_back(
            port.reg,
            port.addr == rtl::invalidNet ? 0 : sim.netU64(port.addr));
        return;
    }
    if (sim.netU64(port.valid) == 0)
        return;
    uint64_t index = 0;
    for (const auto &[reg, idx] : pendingIdxScratch_)
        if (reg == port.reg)
            index = idx;
    std::vector<ApInt> &storage = *port.reg;
    if (index >= storage.size())
        return;
    const ApInt &value = sim.net(port.data);
    ApInt &element = storage[index];
    if (value.width() == element.width())
        element = value;
    else
        element = value.zextOrTrunc(element.width());
}

void
Core::sampleIsaxOutputs(Slot *slot, IsaxExec &exec)
{
    rtl::Simulator &sim = *exec.sim;
    pendingIdxScratch_.clear();

    for (const PortNets &port : exec.mod->stagePorts[size_t(exec.stage)]) {
        switch (port.iface) {
          case SubInterface::RdMem: {
            if (sim.netU64(port.valid) == 0)
                break;
            uint32_t addr = uint32_t(sim.netU64(port.addr));
            uint32_t word = memory_.readWord(addr);
            sim.setInput(port.data, uint64_t(word));
            if (timing_.bus.loadWaitStates > 0)
                exec.memWait = timing_.bus.loadWaitStates;
            break;
          }
          case SubInterface::WrMem: {
            if (sim.netU64(port.valid) == 0)
                break;
            uint32_t addr = uint32_t(sim.netU64(port.addr));
            uint32_t value = uint32_t(sim.netU64(port.data));
            memory_.writeWord(addr, value);
            if (timing_.bus.storeWaitStates > 0)
                exec.memWait = timing_.bus.storeWaitStates;
            break;
          }
          case SubInterface::WrRD: {
            bool enabled = sim.netU64(port.valid) != 0;
            if (enabled) {
                uint32_t value = uint32_t(sim.netU64(port.data));
                if (slot) {
                    // In-pipeline: forwardable immediately, committed
                    // to the register file in program order at WB.
                    exec.resultReady = true;
                    exec.resultValue = value;
                } else {
                    state_.setReg(exec.rd, value);
                }
            }
            exec.rdPending = false;
            // Release the scoreboard entry if this execution owns it.
            auto owned = rdScoreboard_.find(exec.rd);
            if (owned != rdScoreboard_.end() &&
                owned->second == exec.seq)
                rdScoreboard_.erase(owned);
            if (enabled && exec.decoupled) {
                // Sec. 3.2: the base pipeline is stalled for one cycle
                // to avoid write-back conflicts.
                globalStall_ += 1;
            }
            break;
          }
          case SubInterface::WrPC: {
            if (sim.netU64(port.valid) == 0)
                break;
            uint32_t target = uint32_t(sim.netU64(port.data));
            applyRedirect(target, exec.seq);
            break;
          }
          case SubInterface::WrCustRegAddr:
          case SubInterface::WrCustRegData:
            sampleCustomRegWrite(sim, port);
            break;
          default:
            break;
        }
    }
}

void
Core::runAlwaysUnits()
{
    // Gated by fetch-valid: the always-block sees each fetched PC
    // exactly once (cf. RdIValid in Table 1).
    uint32_t pc_value = fetchedThisCycle_ ? fetchedPc_ : 0xffffffffu;
    for (auto &unit : alwaysUnits_) {
        rtl::Simulator &sim = *unit.sim;
        for (const PortNets &port : unit.ports)
            if (port.iface == SubInterface::RdPC)
                sim.setInput(port.data, uint64_t(pc_value));
        sim.evalComb();
        for (const PortNets &port : unit.ports)
            if (port.iface == SubInterface::RdCustReg)
                readCustomReg(sim, *port.reg, port.data, port.addr);
        sim.evalComb();

        pendingIdxScratch_.clear();
        for (const PortNets &port : unit.ports) {
            switch (port.iface) {
              case SubInterface::WrPC:
                if (sim.netU64(port.valid) != 0) {
                    // Redirect the next fetch; the already fetched
                    // instruction proceeds (ZOL semantics).
                    fetchPc_ = uint32_t(sim.netU64(port.data));
                    fetchWait_ = 0;
                }
                break;
              case SubInterface::WrCustRegAddr:
              case SubInterface::WrCustRegData:
                sampleCustomRegWrite(sim, port);
                break;
              default:
                break;
            }
        }
        sim.clockEdge();
    }
}

// ---------------------------------------------------------------------------
// Cycle loop
// ---------------------------------------------------------------------------

bool
Core::slotWillAdvance(unsigned stage) const
{
    const Slot &slot = slots_[stage];
    if (!slot.valid)
        return false;
    if (stage == wbStage_)
        return true; // retires
    // Hold conditions.
    if (stage == decodeStage_ && !slot.operandsRead)
        return false;
    if (stage == memStage_ && !slot.isax && !slot.memDone)
        return false;
    if (slot.isax && slot.isax->memWait > 0)
        return false;
    return !slots_[stage + 1].valid || slotWillAdvance(stage + 1);
}

void
Core::advancePipeline()
{
    // Writeback already retired its slot. Move the rest upward.
    for (int s = int(wbStage_) - 1; s >= 0; --s) {
        Slot &slot = slots_[s];
        if (!slot.valid)
            continue;
        if (s == int(decodeStage_) && !slot.operandsRead)
            continue;
        if (s == int(memStage_) && !slot.isax && !slot.memDone)
            continue;
        if (slot.isax && slot.isax->memWait > 0)
            continue;
        if (slots_[s + 1].valid)
            continue;
        slots_[s + 1] = std::move(slot);
        slot = Slot{};
        // Instructions passing through decode before decodeStage_?
        // (Not possible: decodeStage_ <= 1.)
    }
}

bool
Core::stepCycle()
{
    if (halted_)
        return false;
    ++cycle_;
    fetchedThisCycle_ = false;

    if (globalStall_ > 0) {
        --globalStall_;
        ++stallCycles_;
        stepIsaxExecs(/*force_hold_attached=*/true);
        runAlwaysUnits();
        return !halted_;
    }

    // Fetch first: the fetched instruction occupies the fetch stage
    // during this cycle and moves into decode at the cycle's end.
    processFetch();

    processWriteback();
    processExecute();
    processMemory();
    processDecode();
    // Merged decode/execute/memory stages (3-stage Piccolo) need the
    // younger processing order within the same cycle.
    if (execStage_ == decodeStage_) {
        processExecute();
        processMemory();
    }

    // ISAX modules advance in lock-step with their slots; evaluate
    // before moving the slots so stage-s inputs are sampled in stage s.
    stepIsaxExecs(/*force_hold_attached=*/false);

    if (stallFetch_ || stallDecode_)
        ++stallCycles_;
    advancePipeline();
    runAlwaysUnits();
    return !halted_;
}

RunStats
Core::run(uint64_t max_cycles)
{
    uint64_t retired_before = retired_;
    uint64_t stalls_before = stallCycles_;
    RunStats stats;
    while (!halted_ && stats.cycles < max_cycles) {
        stepCycle();
        ++stats.cycles;
    }
    // Drain: decoupled/tightly-coupled executions still in flight
    // commit their results even though the core has halted (their
    // architectural effects precede the halting instruction in
    // program order).
    uint64_t drain_budget = 100000;
    while (!detachedExecs_.empty() && drain_budget-- > 0) {
        stepIsaxExecs(/*force_hold_attached=*/true);
        ++stats.cycles;
    }
    stats.instructions = retired_;
    stats.stallCycles = stallCycles_;
    stats.halted = halted_;
    obs::count("core.cycles", stats.cycles);
    obs::count("core.instructions_retired", retired_ - retired_before);
    obs::count("core.stall_cycles", stallCycles_ - stalls_before);
    return stats;
}

} // namespace cores
} // namespace longnail
