#include "analysis/tv/equiv.hh"

#include <map>
#include <random>

#include "analysis/tv/terms.hh"
#include "hwgen/runner.hh"
#include "lil/interp.hh"
#include "obs/metrics.hh"

namespace longnail {
namespace analysis {
namespace tv {

using ir::OpKind;
using rtl::NetId;
using rtl::NodeKind;
using scaiev::SubInterface;

namespace {

/** One per-output proof obligation. */
struct Obligation
{
    std::string port;
    TermId lil = invalidTerm;
    TermId net = invalidTerm;
};

/** Canonical shared-variable name for an interface read. */
std::string
readVarName(SubInterface iface, const std::string &reg)
{
    switch (iface) {
      case SubInterface::RdInstr: return "instr_word";
      case SubInterface::RdRS1: return "rs1";
      case SubInterface::RdRS2: return "rs2";
      case SubInterface::RdPC: return "pc";
      case SubInterface::RdMem: return "rdmem_data";
      case SubInterface::RdCustReg: return "rdreg_data:" + reg;
      default:
        return "";
    }
}

/**
 * Symbolically evaluate the LIL graph. Interface reads become shared
 * free variables; interface writes contribute obligations against the
 * netlist's output ports.
 */
void
evalLilSide(const lil::LilGraph &graph,
            const hwgen::GeneratedModule &module, TermBuilder &builder,
            std::vector<Obligation> &obligations,
            std::vector<std::string> &structural)
{
    std::map<const ir::Value *, TermId> values;
    auto get = [&](const ir::Value *v) { return values.at(v); };
    auto oblige = [&](const std::string &port, const ir::Value *v) {
        obligations.push_back({port, get(v), invalidTerm});
    };

    for (const auto &op : graph.graph.ops()) {
        unsigned rw = op->numResults() ? op->result()->type.width : 1;
        OpKind kind = op->kind();
        std::string reg =
            op->hasAttr("reg") ? op->strAttr("reg") : std::string();
        const hwgen::InterfacePort *port = nullptr;
        if (auto iface = scaiev::subInterfaceFor(kind)) {
            port = module.findPort(*iface, reg);
            if (!port) {
                structural.push_back(
                    "netlist has no port for interface op '" +
                    std::string(op->name()) + "'");
                if (op->numResults())
                    values[op->result()] = builder.opaque(rw);
                continue;
            }
        }
        if (ir::isComb(kind)) {
            values[op->result()] = builder.comb(*op, values);
            continue;
        }
        switch (kind) {
          case OpKind::LilInstrWord:
          case OpKind::LilReadRs1:
          case OpKind::LilReadRs2:
          case OpKind::LilReadPC:
            values[op->result()] = builder.var(
                readVarName(*scaiev::subInterfaceFor(kind), reg), rw);
            break;
          case OpKind::LilReadMem:
            // The environment drives the data port with the same value
            // on both sides once the address and valid obligations
            // hold (hwgen/runner.cc leaves it 0 when valid is low,
            // matching the interpreter's predicated-off result).
            oblige(port->addrPort, op->operand(0));
            oblige(port->validPort, op->operand(1));
            values[op->result()] =
                builder.var(readVarName(SubInterface::RdMem, ""), rw);
            break;
          case OpKind::LilReadCustReg:
            if (!port->addrPort.empty())
                oblige(port->addrPort, op->operand(0));
            values[op->result()] = builder.var(
                readVarName(SubInterface::RdCustReg, reg), rw);
            break;
          case OpKind::LilWriteRd:
          case OpKind::LilWritePC:
            oblige(port->dataPort, op->operand(0));
            oblige(port->validPort, op->operand(1));
            break;
          case OpKind::LilWriteMem:
            oblige(port->addrPort, op->operand(0));
            oblige(port->dataPort, op->operand(1));
            oblige(port->validPort, op->operand(2));
            break;
          case OpKind::LilWriteCustRegAddr:
            if (!port->addrPort.empty())
                oblige(port->addrPort, op->operand(0));
            break;
          case OpKind::LilWriteCustRegData:
            oblige(port->dataPort, op->operand(0));
            oblige(port->validPort, op->operand(1));
            break;
          case OpKind::LilSink:
            break;
          default:
            if (op->numResults())
                values[op->result()] = builder.opaque(rw);
            break;
        }
    }
}

/**
 * Symbolically evaluate the netlist under the isolated-execution
 * environment: stall inputs 0, interface data inputs shared free
 * variables, registers transparent (their enables fold to 1 once the
 * stalls are constant). Fills each obligation's netlist side.
 */
void
evalNetlistSide(const hwgen::GeneratedModule &module,
                TermBuilder &builder,
                std::vector<Obligation> &obligations,
                std::vector<std::string> &structural)
{
    const rtl::Module &m = module.module;

    // Input name -> canonical variable name.
    std::map<std::string, std::string> input_vars;
    for (const auto &port : module.ports) {
        std::string var = readVarName(port.iface, port.reg);
        if (!var.empty() && !port.dataPort.empty())
            input_vars[port.dataPort] = var;
    }
    std::map<std::string, bool> stall_inputs;
    for (const std::string &name : module.stallInputs)
        if (!name.empty())
            stall_inputs[name] = true;
    std::map<NetId, std::string> input_names;
    for (const auto &[name, net] : m.inputs())
        input_names[net] = name;

    std::vector<TermId> net_terms(m.numNets(), invalidTerm);
    for (const rtl::Node &node : m.nodes()) {
        unsigned rw = m.widthOf(node.result);
        TermId t = invalidTerm;
        switch (node.kind) {
          case NodeKind::Input: {
            const std::string &name = input_names.at(node.result);
            if (stall_inputs.count(name))
                t = builder.constant(ApInt(1, 0));
            else if (auto it = input_vars.find(name);
                     it != input_vars.end())
                t = builder.var(it->second, rw);
            else
                t = builder.var(name, rw);
            break;
          }
          case NodeKind::Register: {
            TermId d = net_terms[node.operands[0]];
            if (node.operands.size() < 2) {
                t = d; // free-running: pure delay, untimed identity
                break;
            }
            const Term &en = builder.term(net_terms[node.operands[1]]);
            if (en.kind == TermKind::Constant)
                t = en.cval.isZero() ? builder.constant(node.value) : d;
            else
                t = builder.opaque(rw); // data-dependent enable
            break;
          }
          default: {
            std::vector<TermId> operands;
            for (NetId op : node.operands)
                operands.push_back(net_terms[op]);
            t = builder.comb(*rtl::combOpOf(node.kind), rw,
                             std::move(operands), rtl::combAttrs(node));
            break;
          }
        }
        net_terms[node.result] = t;
    }

    for (Obligation &o : obligations) {
        auto net = m.findOutput(o.port);
        if (!net) {
            structural.push_back("netlist has no output port '" +
                                 o.port + "'");
            continue;
        }
        o.net = net_terms[*net];
    }
}

} // namespace

EquivResult
checkEquivalence(const lil::LilGraph &graph,
                 const hwgen::GeneratedModule &module,
                 const coredsl::ElaboratedIsa &isa,
                 DiagnosticEngine &diags, const EquivOptions &options)
{
    EquivResult result;
    TermBuilder builder;
    std::vector<Obligation> obligations;
    std::vector<std::string> structural;

    evalLilSide(graph, module, builder, obligations, structural);
    evalNetlistSide(module, builder, obligations, structural);
    result.termDagSize = builder.size();

    if (!structural.empty()) {
        // The port layout itself disagrees with the LIL graph; running
        // the co-simulation harness would panic on the missing ports.
        for (const std::string &s : structural)
            diags.error(SourceLoc{}, "LN4501",
                        "'" + graph.name + "': " + s);
        result.refuted = true;
        return result;
    }

    std::vector<const Obligation *> unproved;
    for (const Obligation &o : obligations) {
        ++result.outputsChecked;
        if (o.lil == o.net)
            ++result.outputsProved;
        else
            unproved.push_back(&o);
    }
    if (unproved.empty()) {
        result.proved = true;
        return result;
    }

    // Symbolic check inconclusive: hunt for a concrete counterexample.
    uint64_t cycles_per_run = uint64_t(module.lastStage) + 1;
    std::mt19937 rng(0x4c4e5456u); // deterministic: "LNTV"
    for (unsigned trial = 0; trial < options.cosimTrials; ++trial) {
        lil::InterpInput input = lil::cosimInput(graph, &isa, trial, rng);
        lil::InterpResult want = lil::interpret(graph, input);
        lil::InterpResult got = hwgen::runIsolated(module, input);
        result.cexCycles += cycles_per_run;
        std::string diff = lil::diffEffects(want, got, "golden", "rtl");
        if (diff.empty())
            continue;
        result.refuted = true;
        const Obligation &o = *unproved.front();
        diags.error(
            SourceLoc{}, "LN4501",
            "'" + graph.name +
                "': netlist is not equivalent to its LIL graph; "
                "counterexample (trial " +
                std::to_string(trial) + "): " + lil::describeInput(input) +
                ": " + diff + "; first unproved output '" + o.port +
                "': lil=" + builder.render(o.lil) +
                " vs rtl=" + builder.render(o.net));
        return result;
    }

    std::string ports;
    for (const Obligation *o : unproved)
        ports += (ports.empty() ? "" : ", ") + o->port;
    const Obligation &o = *unproved.front();
    diags.warning(
        SourceLoc{}, "LN4502",
        "'" + graph.name + "': could not symbolically prove output" +
            (unproved.size() > 1 ? "s " : " ") + ports +
            " equivalent; " + std::to_string(options.cosimTrials) +
            " co-simulation trials agree (lil=" +
            builder.render(o.lil) + " vs rtl=" + builder.render(o.net) +
            ")");
    return result;
}

} // namespace tv
} // namespace analysis
} // namespace longnail
