#include "rtl/sim.hh"

#include "obs/metrics.hh"
#include "support/logging.hh"

namespace longnail {
namespace rtl {

const char *
simEngineName(SimEngine engine)
{
    return engine == SimEngine::Interp ? "interp" : "compiled";
}

Simulator::Simulator(const Module &module)
    : Simulator(module, SimEngine::Compiled)
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
    if (machine_ && machine_->opsExecuted() > 0)
        obs::count("sim.ops", machine_->opsExecuted());
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
        if (node.kind == NodeKind::Input)
            continue; // driven externally
        if (node.kind == NodeKind::Register) {
            out = regState_[reg_index++];
            continue;
        }
        auto in = [&](unsigned i) -> const ApInt & {
            return values_[node.operands[i]];
        };
        out = ir::evalComb(*combOpOf(node.kind), out.width(),
                           ir::CombOperands(node.operands.size(), in),
                           combAttrs(node));
    }
}

void
Simulator::clockEdge()
{
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
