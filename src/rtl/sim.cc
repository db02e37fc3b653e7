#include "rtl/sim.hh"

#include <algorithm>
#include <atomic>

#include "ir/eval.hh"
#include "obs/metrics.hh"
#include "support/logging.hh"

namespace longnail {
namespace rtl {

namespace {
std::atomic<SimEngine> g_default_engine{SimEngine::Compiled};
} // namespace

SimEngine
defaultSimEngine()
{
    return g_default_engine.load(std::memory_order_relaxed);
}

void
setDefaultSimEngine(SimEngine engine)
{
    g_default_engine.store(engine, std::memory_order_relaxed);
}

std::optional<SimEngine>
parseSimEngine(const std::string &name)
{
    if (name == "interp")
        return SimEngine::Interp;
    if (name == "compiled")
        return SimEngine::Compiled;
    return std::nullopt;
}

const char *
simEngineName(SimEngine engine)
{
    return engine == SimEngine::Interp ? "interp" : "compiled";
}

Simulator::Simulator(const Module &module)
    : Simulator(module, defaultSimEngine())
{
}

Simulator::Simulator(const Module &module, SimEngine engine)
    : module_(module)
{
    std::string err = module.verify();
    if (!err.empty())
        LN_PANIC("cannot simulate invalid module '", module.name(),
                 "': ", err);
    for (const auto &[name, net] : module.inputs())
        inputIndex_.emplace(name, net);
    for (const auto &port : module.outputs())
        outputIndex_.emplace(port.name, port.net);
    if (engine == SimEngine::Compiled) {
        machine_ = std::make_unique<simjit::Machine>(
            simjit::Program::compile(module));
        return;
    }
    values_.reserve(module.numNets());
    for (NetId net = 0; net < module.numNets(); ++net)
        values_.emplace_back(module.widthOf(net), 0);
    for (size_t i = 0; i < module.nodes().size(); ++i) {
        if (module.nodes()[i].kind == NodeKind::Register) {
            regNodes_.push_back(i);
            regState_.push_back(module.nodes()[i].value);
        }
    }
}

Simulator::Simulator(const Module &module,
                     std::shared_ptr<const simjit::Program> program)
    : module_(module)
{
    if (!program || &program->module() != &module)
        LN_PANIC("shared program does not match module '",
                 module.name(), "'");
    for (const auto &[name, net] : module.inputs())
        inputIndex_.emplace(name, net);
    for (const auto &port : module.outputs())
        outputIndex_.emplace(port.name, port.net);
    machine_ = std::make_unique<simjit::Machine>(std::move(program));
}

Simulator::~Simulator()
{
    if (cycles_ > 0)
        obs::count("sim.cycles", cycles_);
}

void
Simulator::reset()
{
    if (machine_) {
        machine_->reset();
        return;
    }
    for (size_t i = 0; i < regNodes_.size(); ++i)
        regState_[i] = module_.nodes()[regNodes_[i]].value;
    for (const auto &[name, net] : module_.inputs())
        values_[net].setValue(0);
}

NetId
Simulator::inputNet(const std::string &name) const
{
    auto it = inputIndex_.find(name);
    if (it == inputIndex_.end())
        LN_PANIC("module '", module_.name(), "' has no input '", name,
                 "'");
    return it->second;
}

NetId
Simulator::outputNet(const std::string &name) const
{
    auto it = outputIndex_.find(name);
    if (it == outputIndex_.end())
        LN_PANIC("module '", module_.name(), "' has no output '", name,
                 "'");
    return it->second;
}

void
Simulator::setInput(const std::string &name, const ApInt &value)
{
    setInput(inputNet(name), value);
}

void
Simulator::setInput(const std::string &name, uint64_t value)
{
    setInput(inputNet(name), value);
}

void
Simulator::setInput(NetId net, const ApInt &value)
{
    if (machine_) {
        machine_->setInput(net, value);
        return;
    }
    values_.at(net) = value.zextOrTrunc(module_.widthOf(net));
}

void
Simulator::setInput(NetId net, uint64_t value)
{
    if (machine_) {
        machine_->setInput(net, value);
        return;
    }
    values_.at(net) = ApInt(module_.widthOf(net), value);
}

void
Simulator::evalComb()
{
    if (machine_) {
        machine_->evalComb();
        return;
    }
    evalCombInterp();
}

void
Simulator::evalCombInterp()
{
    size_t reg_index = 0;
    for (const Node &node : module_.nodes()) {
        ApInt &out = values_[node.result];
        auto in = [&](unsigned i) -> const ApInt & {
            return values_[node.operands[i]];
        };
        switch (node.kind) {
          case NodeKind::Input:
            break; // driven externally
          case NodeKind::Constant:
            out = node.value;
            break;
          case NodeKind::Add:
            out = in(0) + in(1);
            break;
          case NodeKind::Sub:
            out = in(0) - in(1);
            break;
          case NodeKind::Mul:
            out = in(0) * in(1);
            break;
          case NodeKind::DivU:
            out = in(1).isZero() ? ApInt(out.width(), 0)
                                 : in(0).udiv(in(1));
            break;
          case NodeKind::DivS:
            out = in(1).isZero() ? ApInt(out.width(), 0)
                                 : in(0).sdiv(in(1));
            break;
          case NodeKind::ModU:
            out = in(1).isZero() ? ApInt(out.width(), 0)
                                 : in(0).urem(in(1));
            break;
          case NodeKind::ModS:
            out = in(1).isZero() ? ApInt(out.width(), 0)
                                 : in(0).srem(in(1));
            break;
          case NodeKind::And:
            out = in(0) & in(1);
            break;
          case NodeKind::Or:
            out = in(0) | in(1);
            break;
          case NodeKind::Xor:
            out = in(0) ^ in(1);
            break;
          case NodeKind::Shl:
          case NodeKind::ShrU:
          case NodeKind::ShrS: {
            uint64_t raw = in(1).activeBits() > 32
                               ? in(0).width()
                               : in(1).toUint64();
            unsigned amount = unsigned(
                std::min<uint64_t>(raw, in(0).width()));
            if (node.kind == NodeKind::Shl)
                out = in(0).shl(amount);
            else if (node.kind == NodeKind::ShrU)
                out = in(0).lshr(amount);
            else
                out = in(0).ashr(amount);
            break;
          }
          case NodeKind::ICmp:
            out = ApInt(1, ir::applyICmp(node.pred, in(0), in(1)));
            break;
          case NodeKind::Mux:
            out = in(0).isZero() ? in(2) : in(1);
            break;
          case NodeKind::Extract:
            out = in(0).extract(node.lo, out.width());
            break;
          case NodeKind::Concat: {
            ApInt acc = in(node.operands.size() - 1);
            for (size_t i = node.operands.size() - 1; i-- > 0;)
                acc = in(i).concat(acc);
            out = acc;
            break;
          }
          case NodeKind::Replicate:
            out = in(0).isZero() ? ApInt(out.width(), 0)
                                 : ApInt::allOnes(out.width());
            break;
          case NodeKind::Rom: {
            uint64_t index = in(0).activeBits() > 63
                                 ? node.romValues.size()
                                 : in(0).toUint64();
            out = index < node.romValues.size()
                      ? node.romValues[index].zextOrTrunc(out.width())
                      : ApInt(out.width(), 0);
            break;
          }
          case NodeKind::Register:
            out = regState_[reg_index++];
            break;
        }
    }
}

void
Simulator::clockEdge()
{
    ++simjit::tlsSimStats().cycles;
    ++cycles_;
    if (machine_) {
        machine_->clockEdge();
        return;
    }
    for (size_t i = 0; i < regNodes_.size(); ++i) {
        const Node &node = module_.nodes()[regNodes_[i]];
        bool enabled = node.operands.size() < 2 ||
                       !values_[node.operands[1]].isZero();
        if (enabled)
            regState_[i] = values_[node.operands[0]];
    }
}

const ApInt &
Simulator::net(NetId id) const
{
    if (machine_)
        return machine_->netRef(id);
    return values_.at(id);
}

uint64_t
Simulator::netU64(NetId id) const
{
    if (machine_)
        return machine_->netU64(id);
    return values_.at(id).toUint64();
}

const ApInt &
Simulator::output(const std::string &name) const
{
    return net(outputNet(name));
}

uint64_t
Simulator::outputU64(const std::string &name) const
{
    return netU64(outputNet(name));
}

} // namespace rtl
} // namespace longnail
