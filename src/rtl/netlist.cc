#include "rtl/netlist.hh"

#include <map>

#include "support/logging.hh"

namespace longnail {
namespace rtl {

const char *
nodeKindName(NodeKind kind)
{
    if (auto comb = combOpOf(kind))
        return ir::combInfo(*comb).name;
    return kind == NodeKind::Input ? "input" : "register";
}

NetId
Module::newNet(unsigned width)
{
    if (width == 0)
        LN_PANIC("zero-width net");
    netWidths_.push_back(width);
    netNames_.emplace_back();
    return netWidths_.size() - 1;
}

NetId
Module::addInput(const std::string &name, unsigned width)
{
    NetId net = newNet(width);
    Node node;
    node.kind = NodeKind::Input;
    node.result = net;
    nodes_.push_back(std::move(node));
    inputs_.emplace_back(name, net);
    nameNet(net, name);
    return net;
}

void
Module::addOutput(const std::string &name, NetId net)
{
    outputs_.push_back({name, net});
}

NetId
Module::addConstant(const ApInt &value)
{
    NetId net = newNet(value.width());
    Node node;
    node.kind = NodeKind::Constant;
    node.result = net;
    node.value = value;
    nodes_.push_back(std::move(node));
    return net;
}

NetId
Module::addNode(NodeKind kind, unsigned width, std::vector<NetId> operands)
{
    NetId net = newNet(width);
    Node node;
    node.kind = kind;
    node.result = net;
    node.operands = std::move(operands);
    nodes_.push_back(std::move(node));
    return net;
}

NetId
Module::addICmp(ir::ICmpPred pred, NetId lhs, NetId rhs)
{
    NetId net = newNet(1);
    Node node;
    node.kind = NodeKind::ICmp;
    node.result = net;
    node.operands = {lhs, rhs};
    node.pred = pred;
    nodes_.push_back(std::move(node));
    return net;
}

NetId
Module::addExtract(NetId v, unsigned lo, unsigned count)
{
    if (lo == 0 && count == widthOf(v))
        return v;
    NetId net = newNet(count);
    Node node;
    node.kind = NodeKind::Extract;
    node.result = net;
    node.operands = {v};
    node.lo = lo;
    nodes_.push_back(std::move(node));
    return net;
}

NetId
Module::addRom(std::vector<ApInt> values, unsigned width, NetId index)
{
    NetId net = newNet(width);
    Node node;
    node.kind = NodeKind::Rom;
    node.result = net;
    node.operands = {index};
    node.romValues = std::move(values);
    nodes_.push_back(std::move(node));
    return net;
}

NetId
Module::addRegister(NetId d, NetId enable, const ApInt &init)
{
    NetId net = newNet(widthOf(d));
    Node node;
    node.kind = NodeKind::Register;
    node.result = net;
    node.operands = {d};
    if (enable != invalidNet)
        node.operands.push_back(enable);
    node.value = init.zextOrTrunc(widthOf(d));
    nodes_.push_back(std::move(node));
    return net;
}

void
Module::rebindOutput(const std::string &name, NetId net)
{
    for (auto &port : outputs_) {
        if (port.name == name) {
            port.net = net;
            return;
        }
    }
    LN_PANIC("no output port named ", name);
}

std::optional<NetId>
Module::findInput(const std::string &name) const
{
    for (const auto &[n, net] : inputs_)
        if (n == name)
            return net;
    return std::nullopt;
}

std::optional<NetId>
Module::findOutput(const std::string &name) const
{
    for (const auto &port : outputs_)
        if (port.name == name)
            return port.net;
    return std::nullopt;
}

void
Module::nameNet(NetId net, const std::string &name)
{
    netNames_.at(net) = name;
}

const std::string &
Module::netName(NetId net) const
{
    return netNames_.at(net);
}

unsigned
Module::numRegisters() const
{
    unsigned n = 0;
    for (const auto &node : nodes_)
        if (node.kind == NodeKind::Register)
            ++n;
    return n;
}

unsigned
Module::numRegisterBits() const
{
    unsigned bits = 0;
    for (const auto &node : nodes_)
        if (node.kind == NodeKind::Register)
            bits += netWidths_[node.result];
    return bits;
}

std::string
widthRule(const Module &m, const Node &node)
{
    auto w = [&](NetId net) { return m.widthOf(net); };
    unsigned rw = w(node.result);
    const auto &ops = node.operands;
    switch (node.kind) {
      case NodeKind::Add:
      case NodeKind::Sub:
      case NodeKind::Mul:
      case NodeKind::DivU:
      case NodeKind::DivS:
      case NodeKind::ModU:
      case NodeKind::ModS:
      case NodeKind::And:
      case NodeKind::Or:
      case NodeKind::Xor:
        if (ops.size() != 2)
            return "expects exactly two operands";
        if (w(ops[0]) != rw || w(ops[1]) != rw)
            return "operand widths " + std::to_string(w(ops[0])) +
                   "/" + std::to_string(w(ops[1])) +
                   " do not match result width " + std::to_string(rw);
        break;
      case NodeKind::Shl:
      case NodeKind::ShrU:
      case NodeKind::ShrS:
        if (ops.size() != 2)
            return "expects exactly two operands";
        if (w(ops[0]) != rw)
            return "shifted value width " + std::to_string(w(ops[0])) +
                   " does not match result width " + std::to_string(rw);
        break;
      case NodeKind::ICmp:
        if (ops.size() != 2)
            return "expects exactly two operands";
        if (rw != 1)
            return "result must be one bit";
        if (w(ops[0]) != w(ops[1]))
            return "compares operands of widths " +
                   std::to_string(w(ops[0])) + " and " +
                   std::to_string(w(ops[1]));
        break;
      case NodeKind::Mux:
        if (ops.size() != 3)
            return "expects select, then, else operands";
        if (w(ops[0]) != 1)
            return "select must be one bit";
        if (w(ops[1]) != rw || w(ops[2]) != rw)
            return "arm widths " + std::to_string(w(ops[1])) + "/" +
                   std::to_string(w(ops[2])) +
                   " do not match result width " + std::to_string(rw);
        break;
      case NodeKind::Extract:
        if (ops.size() != 1)
            return "expects exactly one operand";
        if (node.lo + rw > w(ops[0]))
            return "extracts bits [" + std::to_string(node.lo) + "+:" +
                   std::to_string(rw) + "] from a " +
                   std::to_string(w(ops[0])) + "-bit operand";
        break;
      case NodeKind::Concat: {
        if (ops.size() < 2)
            return "expects at least two operands";
        unsigned sum = 0;
        for (NetId op : ops)
            sum += w(op);
        if (sum != rw)
            return "operand widths sum to " + std::to_string(sum) +
                   ", result is " + std::to_string(rw) + " bits";
        break;
      }
      case NodeKind::Replicate:
        if (ops.size() != 1 || w(ops[0]) != 1)
            return "expects a single one-bit operand";
        break;
      case NodeKind::Rom:
        if (ops.size() != 1)
            return "expects exactly one index operand";
        break;
      case NodeKind::Register:
        if (ops.empty() || ops.size() > 2)
            return "expects data [, enable] operands";
        if (w(ops[0]) != rw)
            return "data width " + std::to_string(w(ops[0])) +
                   " does not match register width " +
                   std::to_string(rw);
        if (ops.size() == 2 && w(ops[1]) != 1)
            return "enable must be one bit";
        break;
      case NodeKind::Input:
      case NodeKind::Constant:
        if (!ops.empty())
            return "expects no operands";
        break;
    }
    return "";
}

std::string
Module::verify() const
{
    std::vector<bool> defined(netWidths_.size(), false);
    for (const auto &node : nodes_) {
        for (NetId operand : node.operands) {
            if (operand >= netWidths_.size())
                return "operand net out of range";
            if (!defined[operand])
                return std::string("net used before definition in ") +
                       nodeKindName(node.kind) + " node";
        }
        std::string finding = widthRule(*this, node);
        if (!finding.empty())
            return std::string(nodeKindName(node.kind)) + " node " +
                   finding;
        defined[node.result] = true;
    }
    for (const auto &port : outputs_) {
        if (port.net >= netWidths_.size() || !defined[port.net])
            return "output port '" + port.name +
                   "' bound to an undefined net";
    }
    return "";
}

} // namespace rtl
} // namespace longnail
