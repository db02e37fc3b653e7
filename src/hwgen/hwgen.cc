#include "hwgen/hwgen.hh"

#include <map>
#include <set>

#include "ir/iface.hh"
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
                built_.problem.operation(built_.indexOf(op.get())));
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
                if (ir::isConstantOp(def->kind()))
                    continue;
                const sched::OperatorType &def_type =
                    built_.problem.operatorTypeOf(built_.problem.operation(
                        built_.indexOf(def)));
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
        if (const ir::IfaceInfo *iface = ir::ifaceInfo(op.kind())) {
            emitInterface(op, *iface, t, result);
            return;
        }
        if (op.kind() != OpKind::LilSink)
            LN_PANIC("cannot generate hardware for ",
                     ir::opKindName(op.kind()));
    }

    /**
     * An interface op becomes the ports of its ir/iface.def row: the
     * address (or register index), the written data and the predicate
     * drive outputs, in that order; a read's data comes in, its
     * latency after the request when the row says so (RdMem).
     */
    void
    emitInterface(const ir::Operation &op, const ir::IfaceInfo &iface,
                  int t, GeneratedModule &result)
    {
        std::string reg;
        const StateInfo *state = nullptr;
        if (iface.perRegister) {
            reg = op.strAttr("reg");
            state = isa_.findState(reg);
            if (!state)
                LN_PANIC("unknown custom register ", reg);
        }
        InterfacePort &port = newPort(
            result, op, *scaiev::subInterfaceFor(op.kind()), t, reg);
        if (iface.delayedData)
            port.latency = built_.problem
                               .operatorTypeOf(built_.problem.operation(
                                   built_.indexOf(&op)))
                               .latency;
        int data_at = t + int(port.latency);
        auto name = [&](const char *spelling, int stage) {
            return suffixed(ir::ifaceName(spelling, reg), stage);
        };

        // Single-element registers do not get a physical address port
        // (Sec. 4.6).
        if (iface.addrPort && (!state || state->isArray())) {
            port.addrPort = name(iface.addrPort, t);
            NetId addr = pipeTo(
                op.operand(iface.addr >= 0 ? iface.addr : iface.index), t);
            if (iface.delayedData)
                out_.nameNet(addr, port.addrPort + "_w");
            out_.addOutput(port.addrPort, addr);
        }
        if (iface.dataPort)
            port.dataPort = name(iface.dataPort, data_at);
        if (iface.data >= 0)
            out_.addOutput(port.dataPort,
                           pipeTo(op.operand(iface.data), t));
        if (iface.validPort) {
            port.validPort = name(iface.validPort, t);
            out_.addOutput(port.validPort,
                           pipeTo(op.operand(iface.pred), t));
        }
        if (!iface.write) {
            unsigned width = iface.word ? 32 : state->elementType.width;
            define(op.result(), data_at,
                   out_.addInput(port.dataPort, width));
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
