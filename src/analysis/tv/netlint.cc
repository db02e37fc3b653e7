#include "analysis/tv/netlint.hh"

#include <vector>

namespace longnail {
namespace analysis {
namespace tv {

using rtl::invalidNet;
using rtl::NetId;
using rtl::NodeKind;

namespace {

std::string
where(const rtl::Module &module, const rtl::Node &node, size_t index)
{
    std::string s = std::string(rtl::nodeKindName(node.kind)) +
                    " node #" + std::to_string(index);
    if (node.result < module.numNets() &&
        !module.netName(node.result).empty())
        s += " ('" + module.netName(node.result) + "')";
    return s;
}

} // namespace

NetlistLintResult
lintNetlist(const rtl::Module &module, DiagnosticEngine &diags)
{
    NetlistLintResult result;
    const std::string in = " in module '" + module.name() + "'";
    auto err = [&](const std::string &code, const std::string &msg) {
        ++result.errors;
        diags.error(SourceLoc{}, code, msg + in);
    };

    size_t num_nets = module.numNets();
    const auto &nodes = module.nodes();

    // Driver map: defOrder[net] = index of the defining node.
    constexpr size_t undriven = ~size_t(0);
    std::vector<size_t> def_order(num_nets, undriven);
    for (size_t i = 0; i < nodes.size(); ++i) {
        const rtl::Node &node = nodes[i];
        if (node.result >= num_nets) {
            err("LN4603", where(module, node, i) +
                              " drives an out-of-range net");
            continue;
        }
        if (def_order[node.result] != undriven)
            err("LN4603",
                "net " + std::to_string(node.result) +
                    " is driven by both node #" +
                    std::to_string(def_order[node.result]) + " and " +
                    where(module, node, i));
        else
            def_order[node.result] = i;
    }

    // Operand checks: every use must refer to an earlier driver
    // (Registers included -- hwgen never emits a feedback path; a
    // later driver in this topologically ordered IR means a
    // combinational loop once emitted as Verilog `assign`s).
    for (size_t i = 0; i < nodes.size(); ++i) {
        const rtl::Node &node = nodes[i];
        for (NetId op : node.operands) {
            if (op >= num_nets || def_order[op] == undriven) {
                err("LN4603", where(module, node, i) +
                                  " reads undriven net " +
                                  std::to_string(op));
            } else if (def_order[op] >= i) {
                err("LN4601",
                    where(module, node, i) + " reads net " +
                        std::to_string(op) +
                        " whose driver comes later (node #" +
                        std::to_string(def_order[op]) +
                        "): combinational loop");
            }
        }
    }

    // Width rules are only meaningful over valid nets.
    if (result.errors == 0) {
        for (size_t i = 0; i < nodes.size(); ++i) {
            std::string finding = rtl::widthRule(module, nodes[i]);
            if (!finding.empty())
                err("LN4602",
                    where(module, nodes[i], i) + " " + finding);
        }
    }

    // Output bindings.
    for (const rtl::OutputPort &port : module.outputs()) {
        if (port.net >= num_nets || def_order[port.net] == undriven)
            err("LN4603", "output port '" + port.name +
                              "' is bound to an undriven net");
    }

    // LN4604: reverse reachability from the output ports. Inputs are
    // exempt (an interface port a unit never reads is normal), and so
    // are constants (free literals hwgen interns eagerly); all other
    // unreachable nodes are logic hwgen built for nothing.
    if (result.errors == 0) {
        std::vector<bool> live(nodes.size(), false);
        std::vector<size_t> work;
        for (const rtl::OutputPort &port : module.outputs()) {
            size_t def = def_order[port.net];
            if (!live[def]) {
                live[def] = true;
                work.push_back(def);
            }
        }
        while (!work.empty()) {
            size_t i = work.back();
            work.pop_back();
            for (NetId op : nodes[i].operands) {
                size_t def = def_order[op];
                if (!live[def]) {
                    live[def] = true;
                    work.push_back(def);
                }
            }
        }
        for (size_t i = 0; i < nodes.size(); ++i) {
            if (live[i] || nodes[i].kind == NodeKind::Input ||
                nodes[i].kind == NodeKind::Constant)
                continue;
            ++result.deadNodes;
            diags.warning(SourceLoc{}, "LN4604",
                          where(module, nodes[i], i) +
                              " drives no output: dead logic" + in);
        }
    }

    return result;
}

} // namespace tv
} // namespace analysis
} // namespace longnail
