#include "passes/sigcheck.hh"

#include <random>

#include "lil/interp.hh"
#include "support/logging.hh"

namespace longnail {
namespace passes {

using analysis::tv::TermBuilder;
using analysis::tv::TermId;
using analysis::tv::TermKind;
using analysis::tv::invalidTerm;
using ir::OpKind;

namespace {

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

std::string
hex(const ApInt &v)
{
    return "0x" + v.toStringUnsigned(16);
}

/** Deterministic memory contents: the same pure address hash the
 * netlist co-simulation uses (analysis/tv/equiv.cc). */
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
           const coredsl::ElaboratedIsa *isa, unsigned trial,
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
    if (!isa)
        return input;
    for (const auto &state : isa->state) {
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

/** First difference between the pre-pass and post-pass effects; empty
 * when they agree (mirrors tv/equiv.cc diffEffects). */
std::string
diffResults(const lil::InterpResult &want, const lil::InterpResult &got)
{
    auto scalar = [](const char *what, const lil::InterpWrite &w,
                     const lil::InterpWrite &g) -> std::string {
        if (w.enabled != g.enabled)
            return std::string(what) + " valid: before=" +
                   (w.enabled ? "1" : "0") +
                   " after=" + (g.enabled ? "1" : "0");
        if (w.enabled && !(w.value == g.value))
            return std::string(what) + ": before=" + hex(w.value) +
                   " after=" + hex(g.value);
        return "";
    };
    std::string d = scalar("WrRD", want.rd, got.rd);
    if (d.empty())
        d = scalar("WrPC", want.pcWrite, got.pcWrite);
    if (!d.empty())
        return d;
    if (want.mem.enabled != got.mem.enabled)
        return std::string("WrMem valid: before=") +
               (want.mem.enabled ? "1" : "0") +
               " after=" + (got.mem.enabled ? "1" : "0");
    if (want.mem.enabled &&
        (!(want.mem.addr == got.mem.addr) ||
         !(want.mem.value == got.mem.value)))
        return "WrMem: before=[" + hex(want.mem.addr) + "]<-" +
               hex(want.mem.value) + " after=[" + hex(got.mem.addr) +
               "]<-" + hex(got.mem.value);
    if (want.memReadUsed != got.memReadUsed)
        return std::string("RdMem valid: before=") +
               (want.memReadUsed ? "1" : "0") +
               " after=" + (got.memReadUsed ? "1" : "0");
    if (want.memReadUsed && !(want.memReadAddr == got.memReadAddr))
        return "RdMem addr: before=" + hex(want.memReadAddr) +
               " after=" + hex(got.memReadAddr);
    for (const auto &[reg, w] : want.custWrites) {
        auto it = got.custWrites.find(reg);
        bool got_enabled =
            it != got.custWrites.end() && it->second.enabled;
        if (w.enabled != got_enabled)
            return "Wr" + reg + " valid: before=" +
                   (w.enabled ? "1" : "0") +
                   " after=" + (got_enabled ? "1" : "0");
        if (w.enabled && (!(w.value == it->second.value) ||
                          !(w.index == it->second.index)))
            return "Wr" + reg + ": before=[" + hex(w.index) + "]<-" +
                   hex(w.value) + " after=[" + hex(it->second.index) +
                   "]<-" + hex(it->second.value);
    }
    for (const auto &[reg, g] : got.custWrites) {
        if (g.enabled && !want.custWrites.count(reg))
            return "Wr" + reg + " valid: before=0 after=1";
    }
    return "";
}

} // namespace

SignatureChecker::SignatureChecker(const coredsl::ElaboratedIsa *isa,
                                   unsigned trials)
    : isa_(isa), trials_(trials)
{}

Signature
SignatureChecker::buildSignature(const lil::LilGraph &graph)
{
    TermBuilder &b = builder_;
    const TermId zero1 = b.constant(ApInt(1, 0));
    const TermId one1 = b.constant(ApInt(1, 1));

    // Pending-index terms are widened to 64 bits so chains with
    // different source widths still mux; lil operand widths are
    // pass-invariant, so the widening never hides a real width change.
    auto widen = [&](TermId t) -> TermId {
        unsigned w = b.term(t).width;
        if (w >= 64)
            return t;
        return b.make(TermKind::Concat, 64,
                      {b.constant(ApInt(64 - w, 0)), t});
    };

    Signature sig;
    std::map<const ir::Value *, TermId> values;
    auto get = [&](const ir::Value *v) { return values.at(v); };
    auto predOf = [&](const ir::Operation &op, unsigned idx) {
        return op.numOperands() > idx ? get(op.operand(idx)) : one1;
    };
    // Last-enabled-wins accumulation, exactly lil::interpret():
    // valid |= pred, payload_i = mux(pred, new_i, payload_i).
    auto accumulate = [&](EffectSig &eff, TermId pred,
                          std::vector<TermId> payload,
                          const std::vector<unsigned> &widths) {
        if (eff.valid == invalidTerm) {
            eff.valid = zero1;
            for (unsigned w : widths)
                eff.payload.push_back(b.constant(ApInt(w, 0)));
        }
        eff.valid = b.make(TermKind::Or, 1, {eff.valid, pred});
        for (size_t i = 0; i < payload.size(); ++i)
            eff.payload[i] =
                b.make(TermKind::Mux, widths[i],
                       {pred, payload[i], eff.payload[i]});
    };

    std::map<std::string, TermId> pending; // custom write index, widened

    for (const auto &op : graph.graph.ops()) {
        unsigned rw = op->numResults() ? op->result()->type.width : 1;
        OpKind kind = op->kind();
        switch (kind) {
          case OpKind::CombConstant:
            values[op->result()] =
                b.constant(op->apAttr("value"));
            break;
          case OpKind::CombExtract:
            values[op->result()] = b.extract(
                get(op->operand(0)), unsigned(op->intAttr("lo")), rw);
            break;
          case OpKind::CombICmp:
            values[op->result()] = b.icmp(
                static_cast<ir::ICmpPred>(op->intAttr("pred")),
                get(op->operand(0)), get(op->operand(1)));
            break;
          case OpKind::CombRom:
            values[op->result()] = b.rom(
                op->romAttr("values"), rw, get(op->operand(0)));
            break;
          case OpKind::LilInstrWord:
            values[op->result()] = b.var("instr_word", rw);
            break;
          case OpKind::LilReadRs1:
            values[op->result()] = b.var("rs1", rw);
            break;
          case OpKind::LilReadRs2:
            values[op->result()] = b.var("rs2", rw);
            break;
          case OpKind::LilReadPC:
            values[op->result()] = b.var("pc", rw);
            break;
          case OpKind::LilReadMem: {
            // Memory is a pure function of the address (hashMemWord in
            // co-simulation), so the data variable is keyed by the
            // canonical address term; the result is guarded exactly
            // like lil::interpret() (predicated-off reads yield 0 and
            // leave mem_read_used untouched).
            TermId addr = get(op->operand(0));
            TermId pred = predOf(*op, 1);
            accumulate(sig.memRead, pred, {addr}, {32});
            TermId data = b.var(
                "rdmem_data@" + std::to_string(addr), rw);
            values[op->result()] = b.make(
                TermKind::Mux, rw,
                {pred, data, b.constant(ApInt(rw, 0))});
            break;
          }
          case OpKind::LilReadCustReg: {
            // Keyed by register and canonical index term: reads at
            // provably equal indices share a symbol, anything else
            // stays distinct (and falls back to co-simulation).
            TermId index = get(op->operand(0));
            values[op->result()] = b.var(
                "rdreg_data:" + op->strAttr("reg") + "@" +
                    std::to_string(index), rw);
            break;
          }
          case OpKind::LilWriteRd:
            accumulate(sig.rd, predOf(*op, 1), {get(op->operand(0))},
                       {op->operand(0)->type.width});
            break;
          case OpKind::LilWritePC:
            accumulate(sig.pc, predOf(*op, 1), {get(op->operand(0))},
                       {op->operand(0)->type.width});
            break;
          case OpKind::LilWriteMem:
            accumulate(sig.mem, predOf(*op, 2),
                       {get(op->operand(0)), get(op->operand(1))},
                       {op->operand(0)->type.width,
                        op->operand(1)->type.width});
            break;
          case OpKind::LilWriteCustRegAddr:
            pending[op->strAttr("reg")] = widen(get(op->operand(0)));
            break;
          case OpKind::LilWriteCustRegData: {
            const std::string &reg = op->strAttr("reg");
            auto pit = pending.find(reg);
            TermId index = pit != pending.end()
                               ? pit->second
                               : widen(zero1);
            accumulate(sig.cust[reg], predOf(*op, 1),
                       {get(op->operand(0)), index},
                       {op->operand(0)->type.width, 64});
            break;
          }
          case OpKind::LilSink:
            break;
          default:
            if (termKindOfComb(kind) != TermKind::Var) {
                std::vector<TermId> operands;
                for (unsigned i = 0; i < op->numOperands(); ++i)
                    operands.push_back(get(op->operand(i)));
                values[op->result()] = b.make(
                    termKindOfComb(kind), rw, std::move(operands));
            } else if (op->numResults()) {
                // Unmodeled: a fresh opaque can never prove equal, so
                // the check degrades to co-simulation, never to a
                // false proof.
                values[op->result()] = b.opaque(rw);
            }
            break;
        }
    }
    return sig;
}

bool
SignatureChecker::signaturesEqual(const Signature &a,
                                  const Signature &b) const
{
    // constant() hash-conses, so the const-0 valid of an absent or
    // fully-disabled effect always interns to one id per builder. The
    // builder is non-const only because constant() may intern; use the
    // ids already present instead.
    auto effectEqual = [&](const EffectSig &x, const EffectSig &y) {
        TermId xv = x.valid;
        TermId yv = y.valid;
        if (xv == yv) {
            // Same chain (or both absent): payloads can only differ if
            // present, and then element-for-element.
            if (x.payload.size() != y.payload.size())
                return xv == invalidTerm;
            for (size_t i = 0; i < x.payload.size(); ++i)
                if (x.payload[i] != y.payload[i])
                    return false;
            return true;
        }
        // One side absent: equal iff the other side's valid folded to
        // the constant 0 (its payload is then unobservable).
        auto isConstFalse = [&](TermId t) {
            return t != invalidTerm &&
                   builder_.term(t).kind == TermKind::Const &&
                   builder_.term(t).cval.isZero();
        };
        if (xv == invalidTerm)
            return isConstFalse(yv);
        if (yv == invalidTerm)
            return isConstFalse(xv);
        return false;
    };

    if (!effectEqual(a.rd, b.rd) || !effectEqual(a.pc, b.pc) ||
        !effectEqual(a.mem, b.mem) ||
        !effectEqual(a.memRead, b.memRead))
        return false;
    for (const auto &[reg, eff] : a.cust) {
        auto it = b.cust.find(reg);
        if (!effectEqual(eff, it != b.cust.end() ? it->second
                                                 : EffectSig{}))
            return false;
    }
    for (const auto &[reg, eff] : b.cust)
        if (!a.cust.count(reg) && !effectEqual(EffectSig{}, eff))
            return false;
    return true;
}

GraphCapture
SignatureChecker::capture(const lil::LilGraph &graph)
{
    GraphCapture cap;
    cap.sig = buildSignature(graph);
    std::mt19937 rng(0x4c4e5456u); // deterministic: "LNTV"
    for (unsigned trial = 0; trial < trials_; ++trial) {
        cap.inputs.push_back(cosimInput(graph, isa_, trial, rng));
        cap.results.push_back(
            lil::interpret(graph, cap.inputs.back()));
    }
    return cap;
}

SignatureChecker::Outcome
SignatureChecker::check(const lil::LilGraph &graph,
                        GraphCapture &baseline, std::string &detail)
{
    Signature after = buildSignature(graph);
    if (signaturesEqual(baseline.sig, after)) {
        baseline.sig = std::move(after);
        return Outcome::Proved;
    }

    for (size_t i = 0; i < baseline.inputs.size(); ++i) {
        lil::InterpResult got =
            lil::interpret(graph, baseline.inputs[i]);
        std::string diff = diffResults(baseline.results[i], got);
        if (diff.empty())
            continue;
        detail = "counterexample (trial " + std::to_string(i) +
                 "): " + describeInput(baseline.inputs[i]) + ": " + diff;
        return Outcome::Refuted;
    }
    // The stored results stay: the new graph matched them in every
    // field diffResults compares.
    baseline.sig = std::move(after);
    return Outcome::CosimAgreed;
}

} // namespace passes
} // namespace longnail
