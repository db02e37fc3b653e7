#include "hwgen/hwgen.hh"

#include <map>
#include <set>

#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "support/logging.hh"

namespace longnail {
namespace hwgen {

using coredsl::StateInfo;
using ir::OpKind;
using ir::Value;
using rtl::invalidNet;
using rtl::Module;
using rtl::NetId;
using scaiev::ExecutionMode;
using scaiev::SubInterface;

const InterfacePort *
GeneratedModule::findPort(SubInterface iface, const std::string &reg) const
{
    for (const auto &port : ports)
        if (port.iface == iface && port.reg == reg)
            return &port;
    return nullptr;
}

namespace {

class Generator
{
  public:
    Generator(const lil::LilGraph &graph,
              const sched::BuiltProblem &built,
              const scaiev::Datasheet &core,
              const coredsl::ElaboratedIsa &isa)
        : graph_(graph), built_(built), core_(core), isa_(isa),
          out_(graph.name)
    {}

    GeneratedModule
    run()
    {
        GeneratedModule result;
        result.name = graph_.name;
        result.isAlways = graph_.isAlways;

        {
            obs::TraceSpan span("hwgen.stages");
            computeStageRange(result);
            createStallInputs(result);
        }

        {
            obs::TraceSpan span("hwgen.netlist");
            for (const auto &op : graph_.graph.ops())
                emitOp(*op, result);
        }

        result.module = std::move(out_);
        {
            obs::TraceSpan span("hwgen.verify");
            std::string err = result.module.verify();
            if (!err.empty())
                LN_PANIC("generated module for ", graph_.name,
                         " is invalid: ", err);
        }
        obs::count("hwgen.modules");
        obs::count("hwgen.pipeline_registers",
                   result.module.numRegisters());
        obs::count("hwgen.interface_ports", result.ports.size());
        return result;
    }

  private:
    int
    stageOf(const ir::Operation *op) const
    {
        return built_.startTimeOf(op);
    }

    void
    computeStageRange(GeneratedModule &result)
    {
        first_ = 1 << 30;
        last_ = 0;
        for (const auto &op : graph_.graph.ops()) {
            int t = stageOf(op.get());
            const sched::OperatorType &type = built_.problem.operatorTypeOf(
                built_.problem.operation(built_.indexOf.at(op.get())));
            first_ = std::min(first_, t);
            last_ = std::max(last_, t + int(type.latency));
        }
        if (graph_.graph.empty())
            first_ = 0;
        result.firstStage = first_;
        result.lastStage = last_;
    }

    void
    createStallInputs(GeneratedModule &result)
    {
        // Determine which stage boundaries carry pipeline registers.
        std::set<int> boundaries;
        for (const auto &op : graph_.graph.ops()) {
            int use_at = stageOf(op.get());
            for (unsigned i = 0; i < op->numOperands(); ++i) {
                const ir::Operation *def = op->operand(i)->owner;
                // Constants are timeless wiring (see pipeTo): a
                // boundary only they cross needs no register, and its
                // stall gate would be dead logic (LN4604).
                if (def->kind() == OpKind::CombConstant ||
                    def->kind() == OpKind::HwConstant)
                    continue;
                const sched::OperatorType &def_type =
                    built_.problem.operatorTypeOf(built_.problem.operation(
                        built_.indexOf.at(def)));
                int avail = stageOf(def) + int(def_type.latency);
                for (int s = avail; s < use_at; ++s)
                    boundaries.insert(s);
            }
        }
        result.stallInputs.assign(size_t(last_) + 1, "");
        notStall_.assign(size_t(last_) + 1, invalidNet);
        for (int s : boundaries) {
            std::string name = "stall_in_" + std::to_string(s);
            NetId stall = out_.addInput(name, 1);
            NetId zero = out_.addConstant(ApInt(1, 0));
            notStall_[s] = out_.addICmp(ir::ICmpPred::Eq, stall, zero);
            result.stallInputs[s] = name;
        }
    }

    /** Net carrying @p value in stage @p target (registers inserted). */
    NetId
    pipeTo(const Value *value, int target)
    {
        // Constants are timeless wiring: never pipeline them.
        auto constant = constants_.find(value);
        if (constant != constants_.end())
            return constant->second;
        auto &stages = pipes_[value];
        auto exact = stages.find(target);
        if (exact != stages.end())
            return exact->second;
        // Find the latest available stage before target.
        auto it = stages.upper_bound(target);
        if (it == stages.begin())
            LN_PANIC("value %", value->id, " not available at stage ",
                     target);
        --it;
        int stage = it->first;
        NetId net = it->second;
        while (stage < target) {
            NetId enable = notStall_.at(stage);
            net = out_.addRegister(net, enable,
                                   ApInt(out_.widthOf(net), 0));
            ++stage;
            stages[stage] = net;
        }
        return net;
    }

    void
    define(const Value *value, int stage, NetId net)
    {
        pipes_[value][stage] = net;
    }

    ExecutionMode
    modeFor(const ir::Operation &op, SubInterface iface, int stage)
    {
        if (graph_.isAlways)
            return ExecutionMode::Always;
        const scaiev::InterfaceTiming &native = core_.timing(iface);
        if (stage <= native.latest)
            return ExecutionMode::InPipeline;
        if (op.hasAttr("spawn"))
            return ExecutionMode::Decoupled;
        return ExecutionMode::TightlyCoupled;
    }

    InterfacePort &
    newPort(GeneratedModule &result, const ir::Operation &op,
            SubInterface iface, int stage, const std::string &reg = "")
    {
        InterfacePort port;
        port.iface = iface;
        port.reg = reg;
        port.stage = stage;
        port.fromSpawn = op.hasAttr("spawn");
        port.mode = modeFor(op, iface, stage);
        result.ports.push_back(port);
        return result.ports.back();
    }

    std::string
    suffixed(const std::string &base, int stage)
    {
        return base + "_" + std::to_string(stage);
    }

    void
    emitComb(const ir::Operation &op, ir::CombOp comb, int t)
    {
        if (comb == ir::CombOp::Constant) {
            constants_[op.result()] = out_.addConstant(op.apAttr("value"));
            return;
        }
        std::vector<NetId> operands;
        for (unsigned i = 0; i < op.numOperands(); ++i)
            operands.push_back(pipeTo(op.operand(i), t));
        unsigned width = op.result()->type.width;
        NetId net = invalidNet;
        switch (comb) {
          case ir::CombOp::Extract:
            net = out_.addExtract(operands.at(0),
                                  unsigned(op.intAttr("lo")), width);
            break;
          case ir::CombOp::ICmp:
            net = out_.addICmp(
                static_cast<ir::ICmpPred>(op.intAttr("pred")),
                operands.at(0), operands.at(1));
            break;
          case ir::CombOp::Rom:
            net = out_.addRom(op.romAttr("values"), width, operands.at(0));
            break;
          default:
            net = out_.addNode(rtl::nodeKindOf(comb), width,
                               std::move(operands));
            break;
        }
        define(op.result(), t, net);
    }

    void
    emitOp(const ir::Operation &op, GeneratedModule &result)
    {
        int t = stageOf(&op);
        if (auto comb = ir::combOpOf(op.kind())) {
            emitComb(op, *comb, t);
            return;
        }
        switch (op.kind()) {
          case OpKind::LilInstrWord: {
            InterfacePort &port = newPort(result, op,
                                          SubInterface::RdInstr, t);
            port.dataPort = suffixed("instr_word", t);
            define(op.result(), t,
                   out_.addInput(port.dataPort, 32));
            return;
          }
          case OpKind::LilReadRs1:
          case OpKind::LilReadRs2: {
            SubInterface iface = op.kind() == OpKind::LilReadRs1
                                     ? SubInterface::RdRS1
                                     : SubInterface::RdRS2;
            InterfacePort &port = newPort(result, op, iface, t);
            port.dataPort = suffixed(
                iface == SubInterface::RdRS1 ? "rdrs1" : "rdrs2", t);
            define(op.result(), t, out_.addInput(port.dataPort, 32));
            return;
          }
          case OpKind::LilReadPC: {
            InterfacePort &port = newPort(result, op,
                                          SubInterface::RdPC, t);
            port.dataPort = suffixed("rdpc", t);
            define(op.result(), t, out_.addInput(port.dataPort, 32));
            return;
          }
          case OpKind::LilReadMem: {
            const sched::OperatorType &type =
                built_.problem.operatorTypeOf(built_.problem.operation(
                    built_.indexOf.at(&op)));
            InterfacePort &port = newPort(result, op,
                                          SubInterface::RdMem, t);
            port.latency = type.latency;
            port.addrPort = suffixed("rdmem_addr", t);
            port.validPort = suffixed("rdmem_valid", t);
            port.dataPort = suffixed("rdmem_data",
                                     t + int(type.latency));
            NetId addr = pipeTo(op.operand(0), t);
            NetId pred = pipeTo(op.operand(1), t);
            out_.nameNet(addr, port.addrPort + "_w");
            out_.addOutput(port.addrPort, addr);
            out_.addOutput(port.validPort, pred);
            NetId data = out_.addInput(port.dataPort, 32);
            define(op.result(), t + int(type.latency), data);
            return;
          }
          case OpKind::LilWriteRd: {
            InterfacePort &port = newPort(result, op,
                                          SubInterface::WrRD, t);
            port.dataPort = suffixed("wrrd_data", t);
            port.validPort = suffixed("wrrd_valid", t);
            out_.addOutput(port.dataPort, pipeTo(op.operand(0), t));
            out_.addOutput(port.validPort, pipeTo(op.operand(1), t));
            return;
          }
          case OpKind::LilWritePC: {
            InterfacePort &port = newPort(result, op,
                                          SubInterface::WrPC, t);
            port.dataPort = suffixed("wrpc_data", t);
            port.validPort = suffixed("wrpc_valid", t);
            out_.addOutput(port.dataPort, pipeTo(op.operand(0), t));
            out_.addOutput(port.validPort, pipeTo(op.operand(1), t));
            return;
          }
          case OpKind::LilWriteMem: {
            InterfacePort &port = newPort(result, op,
                                          SubInterface::WrMem, t);
            port.addrPort = suffixed("wrmem_addr", t);
            port.dataPort = suffixed("wrmem_data", t);
            port.validPort = suffixed("wrmem_valid", t);
            out_.addOutput(port.addrPort, pipeTo(op.operand(0), t));
            out_.addOutput(port.dataPort, pipeTo(op.operand(1), t));
            out_.addOutput(port.validPort, pipeTo(op.operand(2), t));
            return;
          }
          case OpKind::LilReadCustReg: {
            const std::string &reg = op.strAttr("reg");
            const StateInfo *state = isa_.findState(reg);
            if (!state)
                LN_PANIC("unknown custom register ", reg);
            InterfacePort &port = newPort(result, op,
                                          SubInterface::RdCustReg, t,
                                          reg);
            // Single-element registers do not get a physical address
            // port (Sec. 4.6).
            if (state->isArray()) {
                port.addrPort = suffixed("rd" + reg + "_addr", t);
                out_.addOutput(port.addrPort, pipeTo(op.operand(0), t));
            }
            port.dataPort = suffixed("rd" + reg + "_data", t);
            NetId data = out_.addInput(port.dataPort,
                                       state->elementType.width);
            define(op.result(), t, data);
            return;
          }
          case OpKind::LilWriteCustRegAddr: {
            const std::string &reg = op.strAttr("reg");
            const StateInfo *state = isa_.findState(reg);
            if (!state)
                LN_PANIC("unknown custom register ", reg);
            InterfacePort &port = newPort(
                result, op, SubInterface::WrCustRegAddr, t, reg);
            if (state->isArray()) {
                port.addrPort = suffixed("wr" + reg + "_addr", t);
                out_.addOutput(port.addrPort, pipeTo(op.operand(0), t));
            }
            return;
          }
          case OpKind::LilWriteCustRegData: {
            const std::string &reg = op.strAttr("reg");
            InterfacePort &port = newPort(
                result, op, SubInterface::WrCustRegData, t, reg);
            port.dataPort = suffixed("wr" + reg + "_data", t);
            port.validPort = suffixed("wr" + reg + "_valid", t);
            out_.addOutput(port.dataPort, pipeTo(op.operand(0), t));
            out_.addOutput(port.validPort, pipeTo(op.operand(1), t));
            return;
          }
          case OpKind::LilSink:
            return;
          default:
            LN_PANIC("cannot generate hardware for ",
                     ir::opKindName(op.kind()));
        }
    }

    const lil::LilGraph &graph_;
    const sched::BuiltProblem &built_;
    const scaiev::Datasheet &core_;
    const coredsl::ElaboratedIsa &isa_;
    Module out_;

    int first_ = 0;
    int last_ = 0;
    std::vector<NetId> notStall_;
    std::map<const Value *, std::map<int, NetId>> pipes_;
    std::map<const Value *, NetId> constants_;
};

} // namespace

GeneratedModule
generateModule(const lil::LilGraph &graph,
               const sched::BuiltProblem &built,
               const scaiev::Datasheet &core,
               const coredsl::ElaboratedIsa &isa)
{
    Generator generator(graph, built, core, isa);
    return generator.run();
}

std::vector<scaiev::ScheduledUse>
scheduleEntries(const GeneratedModule &module)
{
    std::vector<scaiev::ScheduledUse> entries;
    for (const auto &port : module.ports) {
        scaiev::ScheduledUse use;
        use.iface = port.iface;
        use.reg = port.reg;
        use.stage = port.stage;
        use.hasValid = !port.validPort.empty();
        use.mode = port.mode;
        entries.push_back(use);
    }
    return entries;
}

} // namespace hwgen
} // namespace longnail
