#include "lil/interp.hh"

#include <map>

#include "ir/eval.hh"
#include "obs/metrics.hh"
#include "support/logging.hh"

namespace longnail {
namespace lil {

using ir::Operation;
using ir::OpKind;
using ir::Value;

InterpResult
interpret(const LilGraph &graph, const InterpInput &input)
{
    InterpResult result;
    // Retired-graph/op counters for the Sec. 5.5 case study: one
    // interpret() call is one retired ISAX instruction (or one
    // always-block evaluation) in the golden model.
    obs::count("interp.graphs_executed");
    obs::count("interp.ops_evaluated", graph.graph.ops().size());
    std::map<const Value *, ApInt> values;
    std::map<std::string, ApInt> pending_cust_index;

    auto get = [&](const Value *v) -> const ApInt & {
        auto it = values.find(v);
        if (it == values.end())
            LN_PANIC("interpreter: value %", v->id, " not computed");
        return it->second;
    };

    for (const auto &op : graph.graph.ops()) {
        switch (op->kind()) {
          case OpKind::LilInstrWord:
            values[op->result()] = input.instrWord;
            break;
          case OpKind::LilReadRs1:
            values[op->result()] = input.rs1;
            break;
          case OpKind::LilReadRs2:
            values[op->result()] = input.rs2;
            break;
          case OpKind::LilReadPC:
            values[op->result()] = input.pc;
            break;
          case OpKind::LilReadMem: {
            const ApInt &addr = get(op->operand(0));
            const ApInt &pred = get(op->operand(1));
            ApInt word(32, 0);
            if (!pred.isZero()) {
                result.memReadUsed = true;
                result.memReadAddr = addr;
                if (!input.readMem)
                    LN_PANIC("interpreter: RdMem used but no memory "
                             "callback provided");
                word = input.readMem(addr).zextOrTrunc(32);
            }
            values[op->result()] = word;
            break;
          }
          case OpKind::LilReadCustReg: {
            const std::string &reg = op->strAttr("reg");
            auto it = input.custRegs.find(reg);
            if (it == input.custRegs.end())
                LN_PANIC("interpreter: no contents for custom register ",
                         reg);
            const ApInt &index = get(op->operand(0));
            uint64_t i = index.toUint64();
            ApInt v = i < it->second.size()
                          ? it->second[i]
                          : ApInt(op->result()->type.width, 0);
            values[op->result()] =
                v.zextOrTrunc(op->result()->type.width);
            break;
          }
          case OpKind::LilWriteRd: {
            const ApInt &pred = get(op->operand(1));
            if (!pred.isZero()) {
                result.rd.enabled = true;
                result.rd.value = get(op->operand(0)).zextOrTrunc(32);
            }
            break;
          }
          case OpKind::LilWritePC: {
            const ApInt &pred = get(op->operand(1));
            if (!pred.isZero()) {
                result.pcWrite.enabled = true;
                result.pcWrite.value =
                    get(op->operand(0)).zextOrTrunc(32);
            }
            break;
          }
          case OpKind::LilWriteMem: {
            const ApInt &pred = get(op->operand(2));
            if (!pred.isZero()) {
                result.mem.enabled = true;
                result.mem.addr = get(op->operand(0)).zextOrTrunc(32);
                result.mem.value = get(op->operand(1)).zextOrTrunc(32);
            }
            break;
          }
          case OpKind::LilWriteCustRegAddr:
            pending_cust_index[op->strAttr("reg")] = get(op->operand(0));
            break;
          case OpKind::LilWriteCustRegData: {
            const std::string &reg = op->strAttr("reg");
            const ApInt &pred = get(op->operand(1));
            if (!pred.isZero()) {
                InterpCustWrite write;
                write.enabled = true;
                auto idx = pending_cust_index.find(reg);
                write.index = idx != pending_cust_index.end()
                                  ? idx->second
                                  : ApInt(1, 0);
                write.value = get(op->operand(0));
                result.custWrites[reg] = write;
            }
            break;
          }
          case OpKind::LilSink:
            break;
          default: {
            std::vector<ApInt> operands;
            operands.reserve(op->numOperands());
            for (unsigned i = 0; i < op->numOperands(); ++i)
                operands.push_back(get(op->operand(i)));
            auto v = ir::evaluate(*op, operands);
            if (!v) {
                // Division by zero and friends: hardware produces an
                // unspecified value; the interpreter defines it as 0.
                if (op->numResults())
                    values[op->result()] =
                        ApInt(op->result()->type.width, 0);
                break;
            }
            values[op->result()] = *v;
            break;
          }
        }
    }
    return result;
}

namespace {

std::string
hex(const ApInt &v)
{
    return "0x" + v.toStringUnsigned(16);
}

} // namespace

ApInt
hashMemWord(const ApInt &addr)
{
    uint64_t x = addr.toUint64() ^ 0x5bd1e995u;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return ApInt(32, uint32_t(x));
}

InterpInput
cosimInput(const LilGraph &graph, const coredsl::ElaboratedIsa *isa,
           unsigned trial, std::mt19937 &rng)
{
    auto word = [&]() -> uint32_t {
        if (trial == 0)
            return 0;
        if (trial == 1)
            return ~0u;
        return rng();
    };
    InterpInput input;
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
describeInput(const InterpInput &input)
{
    return "instr_word=" + hex(input.instrWord) +
           " rs1=" + hex(input.rs1) + " rs2=" + hex(input.rs2) +
           " pc=" + hex(input.pc);
}

std::string
diffEffects(const InterpResult &want, const InterpResult &got,
            const std::string &want_label, const std::string &got_label)
{
    auto sides = [&](const std::string &w, const std::string &g) {
        return want_label + "=" + w + " " + got_label + "=" + g;
    };
    auto bit = [](bool b) { return std::string(b ? "1" : "0"); };
    auto store = [](const ApInt &where, const ApInt &value) {
        return "[" + hex(where) + "]<-" + hex(value);
    };
    auto scalar = [&](const char *what, const InterpWrite &w,
                      const InterpWrite &g) -> std::string {
        if (w.enabled != g.enabled)
            return std::string(what) + " valid: " +
                   sides(bit(w.enabled), bit(g.enabled));
        if (w.enabled && !(w.value == g.value))
            return std::string(what) + ": " +
                   sides(hex(w.value), hex(g.value));
        return "";
    };
    std::string d = scalar("WrRD", want.rd, got.rd);
    if (d.empty())
        d = scalar("WrPC", want.pcWrite, got.pcWrite);
    if (!d.empty())
        return d;
    if (want.mem.enabled != got.mem.enabled)
        return "WrMem valid: " +
               sides(bit(want.mem.enabled), bit(got.mem.enabled));
    if (want.mem.enabled &&
        (!(want.mem.addr == got.mem.addr) ||
         !(want.mem.value == got.mem.value)))
        return "WrMem: " + sides(store(want.mem.addr, want.mem.value),
                                 store(got.mem.addr, got.mem.value));
    if (want.memReadUsed != got.memReadUsed)
        return "RdMem valid: " +
               sides(bit(want.memReadUsed), bit(got.memReadUsed));
    if (want.memReadUsed && !(want.memReadAddr == got.memReadAddr))
        return "RdMem addr: " +
               sides(hex(want.memReadAddr), hex(got.memReadAddr));
    for (const auto &[reg, w] : want.custWrites) {
        auto it = got.custWrites.find(reg);
        bool got_enabled =
            it != got.custWrites.end() && it->second.enabled;
        if (w.enabled != got_enabled)
            return "Wr" + reg + " valid: " +
                   sides(bit(w.enabled), bit(got_enabled));
        if (w.enabled && (!(w.value == it->second.value) ||
                          !(w.index == it->second.index)))
            return "Wr" + reg + ": " +
                   sides(store(w.index, w.value),
                         store(it->second.index, it->second.value));
    }
    for (const auto &[reg, g] : got.custWrites) {
        if (g.enabled && !want.custWrites.count(reg))
            return "Wr" + reg + " valid: " + sides("0", "1");
    }
    return "";
}

} // namespace lil
} // namespace longnail
