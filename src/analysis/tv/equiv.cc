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

TermKind
termKindOfComb(OpKind kind)
{
    switch (kind) {
      case OpKind::CombAdd: return TermKind::Add;
      case OpKind::CombSub: return TermKind::Sub;
      case OpKind::CombMul: return TermKind::Mul;
      case OpKind::CombDivU: return TermKind::DivU;
      case OpKind::CombDivS: return TermKind::DivS;
      case OpKind::CombModU: return TermKind::ModU;
      case OpKind::CombModS: return TermKind::ModS;
      case OpKind::CombAnd: return TermKind::And;
      case OpKind::CombOr: return TermKind::Or;
      case OpKind::CombXor: return TermKind::Xor;
      case OpKind::CombShl: return TermKind::Shl;
      case OpKind::CombShrU: return TermKind::ShrU;
      case OpKind::CombShrS: return TermKind::ShrS;
      case OpKind::CombMux: return TermKind::Mux;
      case OpKind::CombConcat: return TermKind::Concat;
      case OpKind::CombReplicate: return TermKind::Replicate;
      default:
        return TermKind::Var; // caller treats as "not a comb op"
    }
}

bool
isCombBinaryLike(OpKind kind)
{
    return termKindOfComb(kind) != TermKind::Var;
}

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
        switch (kind) {
          case OpKind::CombConstant:
            values[op->result()] =
                builder.constant(op->apAttr("value"));
            break;
          case OpKind::CombExtract:
            values[op->result()] = builder.extract(
                get(op->operand(0)), unsigned(op->intAttr("lo")), rw);
            break;
          case OpKind::CombICmp:
            values[op->result()] = builder.icmp(
                static_cast<ir::ICmpPred>(op->intAttr("pred")),
                get(op->operand(0)), get(op->operand(1)));
            break;
          case OpKind::CombRom:
            values[op->result()] = builder.rom(
                op->romAttr("values"), rw, get(op->operand(0)));
            break;
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
            if (isCombBinaryLike(kind)) {
                std::vector<TermId> operands;
                for (unsigned i = 0; i < op->numOperands(); ++i)
                    operands.push_back(get(op->operand(i)));
                values[op->result()] = builder.make(
                    termKindOfComb(kind), rw, std::move(operands));
            } else if (op->numResults()) {
                values[op->result()] = builder.opaque(rw);
            }
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
          case NodeKind::Constant:
            t = builder.constant(node.value);
            break;
          case NodeKind::ICmp:
            t = builder.icmp(node.pred, net_terms[node.operands[0]],
                             net_terms[node.operands[1]]);
            break;
          case NodeKind::Extract:
            t = builder.extract(net_terms[node.operands[0]], node.lo,
                                rw);
            break;
          case NodeKind::Rom:
            t = builder.rom(node.romValues, rw,
                            net_terms[node.operands[0]]);
            break;
          case NodeKind::Register: {
            TermId d = net_terms[node.operands[0]];
            if (node.operands.size() < 2) {
                t = d; // free-running: pure delay, untimed identity
                break;
            }
            const Term &en = builder.term(net_terms[node.operands[1]]);
            if (en.kind == TermKind::Const)
                t = en.cval.isZero() ? builder.constant(node.value) : d;
            else
                t = builder.opaque(rw); // data-dependent enable
            break;
          }
          default: {
            TermKind kind;
            switch (node.kind) {
              case NodeKind::Add: kind = TermKind::Add; break;
              case NodeKind::Sub: kind = TermKind::Sub; break;
              case NodeKind::Mul: kind = TermKind::Mul; break;
              case NodeKind::DivU: kind = TermKind::DivU; break;
              case NodeKind::DivS: kind = TermKind::DivS; break;
              case NodeKind::ModU: kind = TermKind::ModU; break;
              case NodeKind::ModS: kind = TermKind::ModS; break;
              case NodeKind::And: kind = TermKind::And; break;
              case NodeKind::Or: kind = TermKind::Or; break;
              case NodeKind::Xor: kind = TermKind::Xor; break;
              case NodeKind::Shl: kind = TermKind::Shl; break;
              case NodeKind::ShrU: kind = TermKind::ShrU; break;
              case NodeKind::ShrS: kind = TermKind::ShrS; break;
              case NodeKind::Mux: kind = TermKind::Mux; break;
              case NodeKind::Concat: kind = TermKind::Concat; break;
              case NodeKind::Replicate:
                kind = TermKind::Replicate;
                break;
              default:
                kind = TermKind::Var;
                break;
            }
            if (kind == TermKind::Var) {
                t = builder.opaque(rw);
                break;
            }
            std::vector<TermId> operands;
            for (NetId op : node.operands)
                operands.push_back(net_terms[op]);
            t = builder.make(kind, rw, std::move(operands));
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

// --- Co-simulation fallback ------------------------------------------------

std::string
hex(const ApInt &v)
{
    return "0x" + v.toStringUnsigned(16);
}

/** First difference between the golden-model and RTL effects; empty
 * when they agree. */
std::string
diffEffects(const lil::InterpResult &want, const lil::InterpResult &got)
{
    auto scalar = [](const char *what, const lil::InterpWrite &w,
                     const lil::InterpWrite &g) -> std::string {
        if (w.enabled != g.enabled)
            return std::string(what) + " valid: golden=" +
                   (w.enabled ? "1" : "0") +
                   " rtl=" + (g.enabled ? "1" : "0");
        if (w.enabled && !(w.value == g.value))
            return std::string(what) + ": golden=" + hex(w.value) +
                   " rtl=" + hex(g.value);
        return "";
    };
    std::string d = scalar("WrRD", want.rd, got.rd);
    if (d.empty())
        d = scalar("WrPC", want.pcWrite, got.pcWrite);
    if (!d.empty())
        return d;
    if (want.mem.enabled != got.mem.enabled)
        return std::string("WrMem valid: golden=") +
               (want.mem.enabled ? "1" : "0") +
               " rtl=" + (got.mem.enabled ? "1" : "0");
    if (want.mem.enabled &&
        (!(want.mem.addr == got.mem.addr) ||
         !(want.mem.value == got.mem.value)))
        return "WrMem: golden=[" + hex(want.mem.addr) + "]<-" +
               hex(want.mem.value) + " rtl=[" + hex(got.mem.addr) +
               "]<-" + hex(got.mem.value);
    if (want.memReadUsed != got.memReadUsed)
        return std::string("RdMem valid: golden=") +
               (want.memReadUsed ? "1" : "0") +
               " rtl=" + (got.memReadUsed ? "1" : "0");
    if (want.memReadUsed && !(want.memReadAddr == got.memReadAddr))
        return "RdMem addr: golden=" + hex(want.memReadAddr) +
               " rtl=" + hex(got.memReadAddr);
    for (const auto &[reg, w] : want.custWrites) {
        auto it = got.custWrites.find(reg);
        bool got_enabled =
            it != got.custWrites.end() && it->second.enabled;
        if (w.enabled != got_enabled)
            return "Wr" + reg + " valid: golden=" +
                   (w.enabled ? "1" : "0") +
                   " rtl=" + (got_enabled ? "1" : "0");
        if (w.enabled && (!(w.value == it->second.value) ||
                          !(w.index == it->second.index)))
            return "Wr" + reg + ": golden=[" + hex(w.index) + "]<-" +
                   hex(w.value) + " rtl=[" + hex(it->second.index) +
                   "]<-" + hex(it->second.value);
    }
    for (const auto &[reg, g] : got.custWrites) {
        if (g.enabled && !want.custWrites.count(reg))
            return "Wr" + reg + " valid: golden=0 rtl=1";
    }
    return "";
}

/** Deterministic memory contents: a pure hash of the address. */
ApInt
hashMemWord(const ApInt &addr)
{
    uint64_t x = addr.toUint64() ^ 0x5bd1e995u;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return ApInt(32, uint32_t(x));
}

lil::InterpInput
cosimInput(const lil::LilGraph &graph,
           const coredsl::ElaboratedIsa &isa, unsigned trial,
           std::mt19937 &rng)
{
    auto word = [&]() -> uint32_t {
        if (trial == 0)
            return 0;
        if (trial == 1)
            return ~0u;
        return rng();
    };
    lil::InterpInput input;
    uint32_t raw = word();
    input.instrWord =
        ApInt(32, graph.instr
                      ? (graph.instr->match | (raw & ~graph.instr->mask))
                      : raw);
    input.rs1 = ApInt(32, word());
    input.rs2 = ApInt(32, word());
    input.pc = ApInt(32, word() & ~3u);
    input.readMem = hashMemWord;
    for (const auto &state : isa.state) {
        if (state.isCoreState || state.isConst ||
            state.kind != coredsl::StateInfo::Kind::Register)
            continue;
        std::vector<ApInt> contents;
        for (uint64_t i = 0; i < state.numElements; ++i) {
            uint64_t bits = trial == 0 ? 0 : ~0ull;
            if (trial > 1) {
                // One draw per statement: C++ leaves the order of two
                // calls in one expression unspecified. High word first.
                uint64_t high = rng();
                uint64_t low = rng();
                bits = high << 32 | low;
            }
            contents.push_back(ApInt(state.elementType.width, bits));
        }
        input.custRegs[state.name] = contents;
    }
    return input;
}

std::string
describeInput(const lil::InterpInput &input)
{
    return "instr_word=" + hex(input.instrWord) +
           " rs1=" + hex(input.rs1) + " rs2=" + hex(input.rs2) +
           " pc=" + hex(input.pc);
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
        lil::InterpInput input = cosimInput(graph, isa, trial, rng);
        lil::InterpResult want = lil::interpret(graph, input);
        lil::InterpResult got = hwgen::runIsolated(module, input);
        result.cexCycles += cycles_per_run;
        std::string diff = diffEffects(want, got);
        if (diff.empty())
            continue;
        result.refuted = true;
        const Obligation &o = *unproved.front();
        diags.error(
            SourceLoc{}, "LN4501",
            "'" + graph.name +
                "': netlist is not equivalent to its LIL graph; "
                "counterexample (trial " +
                std::to_string(trial) + "): " + describeInput(input) +
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
