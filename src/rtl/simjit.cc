#include "rtl/simjit.hh"

#include <algorithm>
#include <bit>
#include <chrono>

#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "support/logging.hh"

namespace longnail {
namespace rtl {
namespace simjit {

namespace {

inline uint64_t
maskOf(unsigned width)
{
    return width >= 64 ? ~uint64_t(0) : (uint64_t(1) << width) - 1;
}

/** Sign-extend the low (64 - shift) bits of @p v. */
inline int64_t
sx(uint64_t v, unsigned shift)
{
    return int64_t(v << shift) >> shift;
}

/** Narrow compare; operands masked to their width, @p shift = 64 - w. */
inline bool
cmpEval(ir::ICmpPred pred, uint64_t a, uint64_t b, unsigned shift)
{
    switch (pred) {
      case ir::ICmpPred::Eq: return a == b;
      case ir::ICmpPred::Ne: return a != b;
      case ir::ICmpPred::Ult: return a < b;
      case ir::ICmpPred::Ule: return a <= b;
      case ir::ICmpPred::Ugt: return a > b;
      case ir::ICmpPred::Uge: return a >= b;
      case ir::ICmpPred::Slt: return sx(a, shift) < sx(b, shift);
      case ir::ICmpPred::Sle: return sx(a, shift) <= sx(b, shift);
      case ir::ICmpPred::Sgt: return sx(a, shift) > sx(b, shift);
      case ir::ICmpPred::Sge: return sx(a, shift) >= sx(b, shift);
    }
    return false;
}

/** ir::clampShiftAmount for a narrow amount: one of more than 32
 * active bits exceeds every narrow width anyway. */
inline unsigned
clampShift(uint64_t amount, unsigned width)
{
    return unsigned(std::min<uint64_t>(amount, width));
}

// --- u128-lane helpers. The double shifts keep every shift count
// below 64 so the bodies stay defined when u128 is the uint64_t
// fallback typedef (in which case they are never executed anyway).

inline uint64_t
lo64(u128 v)
{
    return uint64_t(v);
}

inline uint64_t
hi64(u128 v)
{
    return uint64_t(v >> 63 >> 1);
}

inline u128
make128(uint64_t lo, uint64_t hi)
{
    return (u128(hi) << 63 << 1) | lo;
}

/** Result mask for a u128-lane width (65..128; the shift count is
 * always below 64, defined even for the fallback typedef). */
inline u128
maskW2(unsigned width)
{
    return ~u128(0) >> (128 - width);
}

/** Sign-extend the low @p width bits of @p v (width 65..128). */
inline s128
sx2(u128 v, unsigned width)
{
    unsigned shift = 128 - width;
    return s128(v << shift) >> shift;
}

inline unsigned
clampShift2(u128 amount, unsigned width)
{
    return amount < width ? unsigned(amount) : width;
}

inline bool
cmpEval2(ir::ICmpPred pred, u128 a, u128 b, unsigned width)
{
    switch (pred) {
      case ir::ICmpPred::Eq: return a == b;
      case ir::ICmpPred::Ne: return a != b;
      case ir::ICmpPred::Ult: return a < b;
      case ir::ICmpPred::Ule: return a <= b;
      case ir::ICmpPred::Ugt: return a > b;
      case ir::ICmpPred::Uge: return a >= b;
      case ir::ICmpPred::Slt: return sx2(a, width) < sx2(b, width);
      case ir::ICmpPred::Sle: return sx2(a, width) <= sx2(b, width);
      case ir::ICmpPred::Sgt: return sx2(a, width) > sx2(b, width);
      case ir::ICmpPred::Sge: return sx2(a, width) >= sx2(b, width);
    }
    return false;
}

} // namespace

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

namespace {

inline void
setBit(uint64_t *words, uint32_t bit)
{
    words[bit >> 6] |= uint64_t(1) << (bit & 63);
}

/** Call @p fn with the index of every set bit of @p words, ascending. */
template <typename Fn>
inline void
forEachBit(const uint64_t *words, size_t count, Fn fn)
{
    for (size_t w = 0; w < count; ++w)
        for (uint64_t bits = words[w]; bits; bits &= bits - 1)
            fn(uint32_t(w * 64 + unsigned(std::countr_zero(bits))));
}

} // namespace

/**
 * Number the sources and, for programs of at least minActivityOps
 * instructions where some source's cone is under half the program,
 * build the groups, cones and reaches (simjit.hh). @p insn_node maps
 * each instruction (Halt excluded) to its node.
 */
void
Program::buildActivityTables(Program &p,
                             const std::vector<uint32_t> &insn_node)
{
    const Module &module = *p.module_;
    const auto &nodes = module.nodes();
    size_t num_nets = module.numNets();
    uint32_t num_narrow = uint32_t(p.regsN_.size());
    uint32_t num_wide2 = uint32_t(p.regs2_.size());
    p.numRegs_ = num_narrow + num_wide2 + uint32_t(p.regsW_.size());

    // Registers take the index of their entry in their lane's list,
    // offset by the lists before it; every list is in node order.
    std::vector<uint32_t> src_of_net(num_nets, ~0u);
    uint32_t next_n = 0, next_2 = 0, next_w = num_narrow + num_wide2;
    for (const Node &node : nodes) {
        if (node.kind != NodeKind::Register)
            continue;
        Lane lane = p.loc_[node.result].lane;
        src_of_net[node.result] = lane == Lane::Narrow ? next_n++
                                  : lane == Lane::Wide2
                                      ? num_narrow + next_2++
                                      : next_w++;
    }
    p.inputOfNet_.assign(num_nets, ~0u);
    for (uint32_t i = 0; i < p.inputs_.size(); ++i) {
        NetId net = p.inputs_[i];
        unsigned width = module.widthOf(net);
        p.inputOfNet_[net] = i;
        p.inputSlots_.push_back(
            {p.loc_[net].slot, p.loc_[net].lane, width, maskOf(width)});
        src_of_net[net] = p.numRegs_ + i;
    }
    // Until the tables exist, the program is one group, and its one
    // source 0 stands for every source.
    p.numSources_ = 1;
    size_t num_ops = p.insns_.size() - 1;
    if (num_ops < minActivityOps)
        return;

    // The sources each net depends on, through comb logic only. The
    // index after the inputs is the initial evaluation.
    const uint32_t initial_src = p.numRegs_ + uint32_t(p.inputs_.size());
    const size_t src_words = (initial_src + 1 + 63) / 64;
    std::vector<uint64_t> deps(num_nets * src_words, 0);
    auto deps_of = [&](NetId net) { return &deps[net * src_words]; };
    for (const Node &node : nodes) {
        uint64_t *out = deps_of(node.result);
        if (node.kind == NodeKind::Input ||
            node.kind == NodeKind::Register) {
            setBit(out, src_of_net[node.result]);
        } else if (node.kind != NodeKind::Constant) {
            for (NetId operand : node.operands) {
                const uint64_t *in = deps_of(operand);
                for (size_t w = 0; w < src_words; ++w)
                    out[w] |= in[w];
            }
        }
    }
    auto insn_deps = [&](size_t i) {
        return deps_of(nodes[insn_node[i]].result);
    };

    // A change runs less than the whole stream only when its cones
    // cover less than half of it (evalComb()); when no single source's
    // cone does, the tables would cost without ever paying.
    std::vector<uint32_t> cone_ops(initial_src + 1, 0);
    for (size_t i = 0; i < num_ops; ++i)
        forEachBit(insn_deps(i), src_words,
                   [&](uint32_t src) { ++cone_ops[src]; });
    if (std::none_of(cone_ops.begin(), cone_ops.begin() + initial_src,
                     [&](uint32_t ops) { return 2 * ops < num_ops; }))
        return;
    p.activity_ = true;
    p.numSources_ = initial_src + 1;
    for (uint32_t i = 0; i < p.inputs_.size(); ++i)
        p.inputSlots_[i].src = p.numRegs_ + i;
    cone_ops[initial_src] = uint32_t(num_ops);
    p.coneOps_ = std::move(cone_ops);

    // Groups: runs of consecutive instructions with equal source sets.
    for (size_t i = 0; i < num_ops; ++i)
        if (i == 0 || !std::equal(insn_deps(i), insn_deps(i) + src_words,
                                  insn_deps(i - 1)))
            p.groupStart_.push_back(uint32_t(i));
    p.groupStart_.push_back(uint32_t(num_ops));
    size_t num_groups = p.groupStart_.size() - 1;

    p.groupWords_ = uint32_t((num_groups + 63) / 64);
    p.regWords_ = uint32_t((p.numRegs_ + 63) / 64);
    p.cones_.assign(size_t(p.numSources_) * p.groupWords_, 0);
    p.reach_.assign(size_t(p.numSources_) * p.regWords_, 0);
    for (uint32_t g = 0; g < num_groups; ++g)
        forEachBit(insn_deps(p.groupStart_[g]), src_words,
                   [&](uint32_t src) {
                       setBit(&p.cones_[size_t(src) * p.groupWords_], g);
                   });
    // The initial source stands for the first evaluation, which no
    // net has seen yet: its cone is every group, its reach every
    // register. This also covers the logic that reads no source.
    for (uint32_t g = 0; g < num_groups; ++g)
        setBit(&p.cones_[size_t(initial_src) * p.groupWords_], g);
    for (uint32_t reg = 0; reg < p.numRegs_; ++reg)
        setBit(&p.reach_[size_t(initial_src) * p.regWords_], reg);
    for (const Node &node : nodes) {
        if (node.kind != NodeKind::Register)
            continue;
        uint32_t reg = src_of_net[node.result];
        for (NetId operand : node.operands)
            forEachBit(deps_of(operand), src_words, [&](uint32_t src) {
                setBit(&p.reach_[size_t(src) * p.regWords_], reg);
            });
    }
}

std::shared_ptr<const Program>
Program::compile(const Module &module)
{
    auto t0 = std::chrono::steady_clock::now();
    obs::TraceSpan span("sim.compile");

    std::string err = module.verify();
    if (!err.empty())
        LN_PANIC("cannot compile invalid module '", module.name(),
                 "': ", err);

    auto prog = std::shared_ptr<Program>(new Program());
    Program &p = *prog;
    p.module_ = &module;
    const auto &nodes = module.nodes();
    size_t num_nets = module.numNets();

    auto narrow = [&](NetId net) { return module.widthOf(net) <= 64; };

    // Net -> defining node.
    std::vector<uint32_t> driver(num_nets, ~0u);
    for (size_t i = 0; i < nodes.size(); ++i)
        driver[nodes[i].result] = uint32_t(i);

    // Use counts, to find ICmps whose only consumers are fusable muxes.
    std::vector<uint32_t> total_uses(num_nets, 0);
    std::vector<uint32_t> fusable_uses(num_nets, 0);
    std::vector<uint8_t> is_output(num_nets, 0);
    for (const Node &node : nodes)
        for (NetId operand : node.operands)
            ++total_uses[operand];
    for (const auto &port : module.outputs()) {
        ++total_uses[port.net];
        is_output[port.net] = 1;
    }
    auto fusable_cmp = [&](NetId net) {
        if (driver[net] == ~0u)
            return false;
        const Node &d = nodes[driver[net]];
        return d.kind == NodeKind::ICmp && narrow(d.operands[0]) &&
               narrow(d.operands[1]);
    };
    for (const Node &node : nodes)
        if (node.kind == NodeKind::Mux && narrow(node.result) &&
            fusable_cmp(node.operands[0]))
            ++fusable_uses[node.operands[0]];

    // Lane and slot assignment. An ICmp whose every use is a fused mux
    // select (and that is not an output) gets no slot at all; net()
    // recomputes it on demand.
    p.loc_.resize(num_nets);
    p.lazyNode_.assign(num_nets, ~0u);
    for (NetId net = 0; net < num_nets; ++net) {
        if (fusable_cmp(net) && !is_output[net] &&
            fusable_uses[net] == total_uses[net]) {
            p.loc_[net] = {0, Lane::Lazy};
            p.lazyNode_[net] = driver[net];
        } else if (narrow(net)) {
            p.loc_[net] = {p.numNarrow_++, Lane::Narrow};
        } else if (LN_SIMJIT_HAS_U128 && module.widthOf(net) <= 128) {
            p.loc_[net] = {p.numWide2_++, Lane::Wide2};
        } else {
            p.loc_[net] = {p.numWide_++, Lane::Wide};
            p.wideWidths_.push_back(module.widthOf(net));
        }
    }

    auto slot = [&](NetId net) { return p.loc_[net].slot; };
    auto lane = [&](NetId net) { return p.loc_[net].lane; };
    auto all_narrow = [&](const Node &node) {
        if (!narrow(node.result))
            return false;
        for (NetId operand : node.operands)
            if (lane(operand) != Lane::Narrow)
                return false;
        return true;
    };
    // A node qualifies for the u128 lane when its result lives there
    // and every operand is packed (narrow or u128) -- anything ApInt-
    // or Lazy-laned falls back to WideEval.
    auto w2_node = [&](const Node &node) {
        if (lane(node.result) != Lane::Wide2)
            return false;
        for (NetId operand : node.operands)
            if (lane(operand) != Lane::Narrow &&
                lane(operand) != Lane::Wide2)
                return false;
        return true;
    };
    // Operand lane flags for u128-lane ops: bit N set = instruction
    // field N of (a, b, c, d2) indexes the u128 register file.
    auto w2_flags = [&](std::initializer_list<NetId> operands) {
        uint16_t flags = 0;
        unsigned bit = 0;
        for (NetId operand : operands) {
            if (lane(operand) == Lane::Wide2)
                flags |= uint16_t(1) << bit;
            ++bit;
        }
        return flags;
    };
    auto const_amount = [&](NetId net) -> const ApInt * {
        if (driver[net] == ~0u)
            return nullptr;
        const Node &d = nodes[driver[net]];
        return d.kind == NodeKind::Constant ? &d.value : nullptr;
    };
    auto wide_eval = [&](uint32_t node_index) {
        Insn insn;
        insn.op = Op::WideEval;
        insn.aux = node_index;
        p.insns_.push_back(insn);
    };

    std::vector<uint32_t> insn_node; // per instruction: its node
    for (size_t ni = 0; ni < nodes.size(); ++ni) {
        const Node &node = nodes[ni];
        NetId res = node.result;
        unsigned w = module.widthOf(res);
        Insn insn;
        insn.dst = slot(res);
        insn.mask = maskOf(w);
        insn.auxw = uint16_t(w);

        switch (node.kind) {
          case NodeKind::Input:
            p.inputs_.push_back(res); // driven externally, no code
            break;
          case NodeKind::Constant:
            if (lane(res) == Lane::Narrow)
                p.constN_.emplace_back(slot(res), node.value.toUint64());
            else if (lane(res) == Lane::Wide2)
                p.const2_.emplace_back(
                    slot(res),
                    make128(node.value.word(0), node.value.word(1)));
            else
                p.constW_.emplace_back(slot(res), node.value);
            break;
          case NodeKind::Register: {
            // The data operand shares the result's width, hence its
            // lane; the enable (if any) is a 1-bit narrow net.
            if (lane(res) == Lane::Narrow) {
                RegN reg;
                reg.slot = slot(res);
                reg.d = slot(node.operands[0]);
                if (node.operands.size() > 1)
                    reg.en = slot(node.operands[1]);
                reg.init = node.value.toUint64();
                p.regsN_.push_back(reg);
            } else if (lane(res) == Lane::Wide2) {
                Reg2 reg;
                reg.slot = slot(res);
                reg.d = slot(node.operands[0]);
                if (node.operands.size() > 1)
                    reg.en = slot(node.operands[1]);
                reg.init = make128(node.value.word(0),
                                   node.value.word(1));
                p.regs2_.push_back(reg);
            } else {
                RegW reg;
                reg.slot = slot(res);
                reg.d = slot(node.operands[0]);
                if (node.operands.size() > 1)
                    reg.en = slot(node.operands[1]);
                reg.init = node.value;
                p.regsW_.push_back(reg);
            }
            break;
          }
          case NodeKind::Add:
          case NodeKind::Sub:
          case NodeKind::Mul:
          case NodeKind::DivU:
          case NodeKind::DivS:
          case NodeKind::ModU:
          case NodeKind::ModS:
          case NodeKind::And:
          case NodeKind::Or:
          case NodeKind::Xor: {
            if (all_narrow(node)) {
                static const Op bin_ops[] = {
                    Op::Add, Op::Sub, Op::Mul, Op::DivU, Op::DivS,
                    Op::ModU, Op::ModS, Op::And, Op::Or, Op::Xor};
                insn.op = bin_ops[int(node.kind) - int(NodeKind::Add)];
                insn.a = slot(node.operands[0]);
                insn.b = slot(node.operands[1]);
                insn.sshift = uint16_t(64 - w);
                p.insns_.push_back(insn);
            } else if (w2_node(node)) {
                static const Op bin2_ops[] = {
                    Op::Add2, Op::Sub2, Op::Mul2, Op::DivU2, Op::DivS2,
                    Op::ModU2, Op::ModS2, Op::And2, Op::Or2, Op::Xor2};
                insn.op = bin2_ops[int(node.kind) - int(NodeKind::Add)];
                insn.a = slot(node.operands[0]);
                insn.b = slot(node.operands[1]);
                insn.sshift =
                    w2_flags({node.operands[0], node.operands[1]});
                p.insns_.push_back(insn);
            } else {
                wide_eval(uint32_t(ni));
            }
            break;
          }
          case NodeKind::Shl:
          case NodeKind::ShrU:
          case NodeKind::ShrS: {
            if (all_narrow(node)) {
                insn.a = slot(node.operands[0]);
                insn.sshift = uint16_t(64 - w);
                if (const ApInt *amount =
                        const_amount(node.operands[1])) {
                    insn.shift =
                        uint16_t(ir::clampShiftAmount(*amount, w));
                    insn.op = node.kind == NodeKind::Shl ? Op::ShlI
                              : node.kind == NodeKind::ShrU ? Op::ShrUI
                                                            : Op::ShrSI;
                } else {
                    insn.b = slot(node.operands[1]);
                    insn.op = node.kind == NodeKind::Shl ? Op::Shl
                              : node.kind == NodeKind::ShrU ? Op::ShrU
                                                            : Op::ShrS;
                }
                p.insns_.push_back(insn);
            } else if (w2_node(node) &&
                       lane(node.operands[0]) == Lane::Wide2) {
                insn.op = node.kind == NodeKind::Shl ? Op::Shl2
                          : node.kind == NodeKind::ShrU ? Op::ShrU2
                                                        : Op::ShrS2;
                insn.a = slot(node.operands[0]);
                insn.b = slot(node.operands[1]);
                insn.sshift =
                    w2_flags({node.operands[0], node.operands[1]});
                p.insns_.push_back(insn);
            } else {
                wide_eval(uint32_t(ni));
            }
            break;
          }
          case NodeKind::ICmp: {
            if (lane(res) == Lane::Lazy)
                break; // fully fused into CmpMux users
            if (narrow(node.operands[0]) && narrow(node.operands[1])) {
                static const Op cmp_ops[] = {Op::CmpEq, Op::CmpNe,
                                             Op::CmpUlt, Op::CmpUle,
                                             Op::CmpUgt, Op::CmpUge,
                                             Op::CmpSlt, Op::CmpSle,
                                             Op::CmpSgt, Op::CmpSge};
                insn.op = cmp_ops[int(node.pred)];
                insn.a = slot(node.operands[0]);
                insn.b = slot(node.operands[1]);
                insn.sshift =
                    uint16_t(64 - module.widthOf(node.operands[0]));
                p.insns_.push_back(insn);
            } else if (lane(node.operands[0]) == Lane::Wide2 &&
                       lane(node.operands[1]) == Lane::Wide2 &&
                       module.widthOf(node.operands[0]) ==
                           module.widthOf(node.operands[1])) {
                insn.op = Op::Cmp2;
                insn.sub = uint8_t(node.pred);
                insn.a = slot(node.operands[0]);
                insn.b = slot(node.operands[1]);
                insn.shift =
                    uint16_t(module.widthOf(node.operands[0]));
                p.insns_.push_back(insn);
            } else {
                wide_eval(uint32_t(ni));
            }
            break;
          }
          case NodeKind::Mux: {
            if (p.loc_[node.operands[0]].lane == Lane::Lazy) {
                // Fused compare+mux; re-evaluating the (cheap) compare
                // per user beats a separate op plus a select slot.
                const Node &cmp = nodes[p.lazyNode_[node.operands[0]]];
                insn.op = Op::CmpMux;
                insn.sub = uint8_t(cmp.pred);
                insn.a = slot(cmp.operands[0]);
                insn.b = slot(cmp.operands[1]);
                insn.c = slot(node.operands[1]);
                insn.d2 = slot(node.operands[2]);
                insn.sshift =
                    uint16_t(64 - module.widthOf(cmp.operands[0]));
                p.insns_.push_back(insn);
                break;
            }
            if (all_narrow(node)) {
                insn.op = Op::Mux;
                insn.a = slot(node.operands[0]);
                insn.b = slot(node.operands[1]);
                insn.c = slot(node.operands[2]);
                p.insns_.push_back(insn);
            } else if (w2_node(node) &&
                       lane(node.operands[0]) == Lane::Narrow) {
                insn.op = Op::Mux2;
                insn.a = slot(node.operands[0]);
                insn.b = slot(node.operands[1]);
                insn.c = slot(node.operands[2]);
                insn.sshift = w2_flags({node.operands[0],
                                        node.operands[1],
                                        node.operands[2]});
                p.insns_.push_back(insn);
            } else {
                wide_eval(uint32_t(ni));
            }
            break;
          }
          case NodeKind::Extract: {
            NetId src = node.operands[0];
            if (lane(src) == Lane::Narrow && narrow(res)) {
                insn.op = Op::Extract;
                insn.a = slot(src);
                insn.shift = uint16_t(node.lo);
                p.insns_.push_back(insn);
            } else if (lane(src) == Lane::Wide2 && narrow(res)) {
                insn.op = Op::Extract2N;
                insn.a = slot(src);
                insn.shift = uint16_t(node.lo);
                p.insns_.push_back(insn);
            } else if (lane(src) == Lane::Wide2 &&
                       lane(res) == Lane::Wide2) {
                insn.op = Op::Extract22;
                insn.a = slot(src);
                insn.shift = uint16_t(node.lo);
                p.insns_.push_back(insn);
            } else if (lane(src) == Lane::Wide && narrow(res)) {
                insn.op = Op::ExtractWide;
                insn.a = slot(src);
                insn.aux = node.lo;
                p.insns_.push_back(insn);
            } else {
                wide_eval(uint32_t(ni));
            }
            break;
          }
          case NodeKind::Concat: {
            if (all_narrow(node)) {
                if (node.operands.size() == 2) {
                    insn.op = Op::Concat2;
                    insn.a = slot(node.operands[0]); // high
                    insn.b = slot(node.operands[1]); // low
                    insn.shift =
                        uint16_t(module.widthOf(node.operands[1]));
                    p.insns_.push_back(insn);
                    break;
                }
                insn.op = Op::ConcatN;
                insn.aux = uint32_t(p.concatPool_.size());
                insn.auxw = uint16_t(node.operands.size());
                for (NetId operand : node.operands) // high to low
                    p.concatPool_.push_back(
                        {slot(operand),
                         uint16_t(module.widthOf(operand)), 0});
                p.insns_.push_back(insn);
                break;
            }
            if (w2_node(node)) {
                if (node.operands.size() == 2) {
                    insn.op = Op::Concat22;
                    insn.a = slot(node.operands[0]); // high
                    insn.b = slot(node.operands[1]); // low
                    insn.shift =
                        uint16_t(module.widthOf(node.operands[1]));
                    insn.sshift =
                        w2_flags({node.operands[0], node.operands[1]});
                    p.insns_.push_back(insn);
                    break;
                }
                insn.op = Op::ConcatN2;
                insn.aux = uint32_t(p.concatPool_.size());
                insn.shift = uint16_t(node.operands.size());
                for (NetId operand : node.operands) // high to low
                    p.concatPool_.push_back(
                        {slot(operand),
                         uint16_t(module.widthOf(operand)),
                         uint8_t(lane(operand) == Lane::Wide2)});
                p.insns_.push_back(insn);
                break;
            }
            wide_eval(uint32_t(ni));
            break;
          }
          case NodeKind::Replicate: {
            if (all_narrow(node)) {
                insn.op = Op::Replicate;
                insn.a = slot(node.operands[0]);
                p.insns_.push_back(insn);
            } else if (w2_node(node) &&
                       lane(node.operands[0]) == Lane::Narrow) {
                insn.op = Op::Replicate2;
                insn.a = slot(node.operands[0]);
                p.insns_.push_back(insn);
            } else {
                wide_eval(uint32_t(ni));
            }
            break;
          }
          case NodeKind::Rom: {
            if (all_narrow(node)) {
                insn.op = Op::Rom;
                insn.a = slot(node.operands[0]);
                insn.aux = uint32_t(p.romTables_.size());
                std::vector<uint64_t> table;
                table.reserve(node.romValues.size());
                for (const ApInt &value : node.romValues)
                    table.push_back(value.zextOrTrunc(w).toUint64());
                p.romTables_.push_back(std::move(table));
                p.insns_.push_back(insn);
            } else if (w2_node(node)) {
                insn.op = Op::Rom2;
                insn.a = slot(node.operands[0]);
                insn.aux = uint32_t(p.romTables2_.size());
                insn.sshift = w2_flags({node.operands[0]});
                std::vector<u128> table;
                table.reserve(node.romValues.size());
                for (const ApInt &value : node.romValues) {
                    ApInt masked = value.zextOrTrunc(w);
                    table.push_back(
                        make128(masked.word(0), masked.word(1)));
                }
                p.romTables2_.push_back(std::move(table));
                p.insns_.push_back(insn);
            } else {
                wide_eval(uint32_t(ni));
            }
            break;
          }
        }
        if (p.insns_.size() > insn_node.size()) // at most one per node
            insn_node.push_back(uint32_t(ni));
    }
    p.insns_.push_back(Insn{}); // Halt
    buildActivityTables(p, insn_node);

    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    obs::count("sim.compiles");
    obs::count("sim.program_ops", p.insns_.size());
    obs::observe("sim.compile_ms", ms);
    return prog;
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

Machine::Machine(std::shared_ptr<const Program> program)
    : prog_(std::move(program)), activity_(prog_->activity_),
      hasRegs_(prog_->numRegs_ > 0)
{
    const Program &p = *prog_;
    regs_.assign(p.numNarrow_, 0);
    w2_.assign(p.numWide2_, 0);
    wide_.reserve(p.numWide_);
    for (unsigned width : p.wideWidths_)
        wide_.emplace_back(width, 0);
    for (const auto &[slot, value] : p.constN_)
        regs_[slot] = value;
    for (const auto &[slot, value] : p.const2_)
        w2_[slot] = value;
    for (const auto &[slot, value] : p.constW_)
        wide_[slot] = value;
    stateN_.assign(p.regsN_.size(), 0);
    state2_.assign(p.regs2_.size(), 0);
    stateW_.reserve(p.regsW_.size());
    for (const auto &reg : p.regsW_)
        stateW_.push_back(reg.init);
    size_t num_nets = p.module_->numNets();
    mat_.reserve(num_nets);
    for (NetId net = 0; net < num_nets; ++net)
        mat_.emplace_back(p.module_->widthOf(net), 0);
    pendGroups_.assign(p.groupWords_, 0);
    capture_.assign(p.regWords_, 0);
    // No net has been evaluated yet: every source is pending, so the
    // first evalComb() runs every cone, i.e. every instruction.
    pendSrc_.assign((p.numSources_ + 63) / 64, 0);
    for (uint32_t src = 0; src < p.numSources_; ++src)
        markSource(src);
    reset();
}

void
Machine::reset()
{
    const Program &p = *prog_;
    for (size_t i = 0; i < p.regsN_.size(); ++i)
        stateN_[i] = p.regsN_[i].init;
    for (size_t i = 0; i < p.regs2_.size(); ++i)
        state2_[i] = p.regs2_[i].init;
    for (size_t i = 0; i < p.regsW_.size(); ++i)
        stateW_[i] = p.regsW_[i].init;
    // The nets keep their values until evalComb() commits the states,
    // as on the interpreter; commit() skips a state its net holds.
    if (activity_) {
        for (uint32_t reg = 0; reg < p.numRegs_; ++reg)
            markSource(reg);
    } else if (hasRegs_) {
        markSource(0);
    }
    for (uint32_t i = 0; i < p.inputSlots_.size(); ++i) {
        const Program::InputSlot &in = p.inputSlots_[i];
        if (in.lane == Lane::Narrow) {
            if (regs_[in.slot] == 0)
                continue;
            regs_[in.slot] = 0;
        } else if (in.lane == Lane::Wide2) {
            if (w2_[in.slot] == 0)
                continue;
            w2_[in.slot] = 0;
        } else {
            if (wide_[in.slot].isZero())
                continue;
            wide_[in.slot].setValue(0);
        }
        markSource(in.src);
    }
    // The states no longer follow from the nets they were captured
    // from, so the next edge captures every register.
    captureAll_ = true;
}

namespace {

[[noreturn, gnu::cold, gnu::noinline]] void
notAnInput(const Module &module, NetId net)
{
    LN_PANIC("net ", net, " is not an input of module '", module.name(),
             "'");
}

} // namespace

/** The inputs_ index of @p net; panics on any other net. */
inline uint32_t
Machine::inputIndex(NetId net) const
{
    const Program &p = *prog_;
    uint32_t index = net < p.inputOfNet_.size() ? p.inputOfNet_[net] : ~0u;
    if (index == ~0u) [[unlikely]]
        notAnInput(*p.module_, net);
    return index;
}

inline void
Machine::inputChanged(uint32_t src)
{
    const Program &p = *prog_;
    markSource(src);
    // An input driven after the last evaluation reaches the registers
    // that read it directly at the next edge, before any evaluation.
    if (activity_) {
        const uint64_t *reach = &p.reach_[size_t(src) * p.regWords_];
        for (uint32_t w = 0; w < p.regWords_; ++w)
            capture_[w] |= reach[w];
    }
}

/** Store @p value into a u128- or ApInt-lane input; false when the
 * input already holds it. Out of line, to keep the narrow path lean. */
[[gnu::noinline]] bool
Machine::setPackedInput(const Program::InputSlot &in, const ApInt &value)
{
    if (in.lane == Lane::Wide2) {
        u128 packed;
        if (value.width() == in.width) {
            packed = make128(value.word(0), value.word(1));
        } else {
            ApInt t = value.zextOrTrunc(in.width);
            packed = make128(t.word(0), t.word(1));
        }
        if (w2_[in.slot] == packed)
            return false;
        w2_[in.slot] = packed;
        return true;
    }
    ApInt sized = value.zextOrTrunc(in.width);
    if (wide_[in.slot] == sized)
        return false;
    wide_[in.slot] = std::move(sized);
    return true;
}

void
Machine::setInput(NetId net, const ApInt &value)
{
    const Program &p = *prog_;
    uint32_t index = inputIndex(net);
    const Program::InputSlot &in = p.inputSlots_[index];
    if (in.lane == Lane::Narrow) {
        uint64_t masked = value.toUint64() & in.mask;
        if (regs_[in.slot] == masked)
            return;
        regs_[in.slot] = masked;
    } else if (!setPackedInput(in, value)) {
        return;
    }
    inputChanged(in.src);
}

void
Machine::setInput(NetId net, uint64_t value)
{
    const Program &p = *prog_;
    uint32_t index = inputIndex(net);
    const Program::InputSlot &in = p.inputSlots_[index];
    if (in.lane == Lane::Narrow) {
        uint64_t masked = value & in.mask;
        if (regs_[in.slot] == masked)
            return;
        regs_[in.slot] = masked;
    } else if (!setPackedInput(in, ApInt(in.width, value))) {
        return;
    }
    inputChanged(in.src);
}

/** Copy every register's state into its net. */
inline void
Machine::commitAll()
{
    const Program &p = *prog_;
    for (size_t i = 0; i < p.regsN_.size(); ++i)
        regs_[p.regsN_[i].slot] = stateN_[i];
    for (size_t i = 0; i < p.regs2_.size(); ++i)
        w2_[p.regs2_[i].slot] = state2_[i];
    for (size_t i = 0; i < p.regsW_.size(); ++i)
        wide_[p.regsW_[i].slot] = stateW_[i];
}

/** Copy register @p reg's state into its net; false when the net
 * already holds it. */
bool
Machine::commit(uint32_t reg)
{
    const Program &p = *prog_;
    if (reg < p.regsN_.size()) {
        uint64_t &net = regs_[p.regsN_[reg].slot];
        if (net == stateN_[reg])
            return false;
        net = stateN_[reg];
        return true;
    }
    reg -= uint32_t(p.regsN_.size());
    if (reg < p.regs2_.size()) {
        u128 &net = w2_[p.regs2_[reg].slot];
        if (net == state2_[reg])
            return false;
        net = state2_[reg];
        return true;
    }
    reg -= uint32_t(p.regs2_.size());
    ApInt &net = wide_[p.regsW_[reg].slot];
    if (net == stateW_[reg])
        return false;
    net = stateW_[reg];
    return true;
}

void
Machine::evalComb()
{
    if (activity_) {
        evalCones();
        return;
    }
    // One group: anything pending runs the whole stream.
    if (!pendSrc_[0])
        return;
    pendSrc_[0] = 0;
    if (hasRegs_)
        commitAll();
    run<false>();
}

/** evalComb() of an activity-driven program. */
void
Machine::evalCones()
{
    const Program &p = *prog_;
    // Commit the captured registers; drop those whose net already
    // holds the state. What stays pending changed since the last run.
    uint64_t pending_ops = 0;
    bool changed = false;
    forEachBit(pendSrc_.data(), pendSrc_.size(), [&](uint32_t src) {
        if (src < p.numRegs_ && !commit(src)) {
            pendSrc_[src >> 6] &= ~(uint64_t(1) << (src & 63));
            return;
        }
        changed = true;
        pending_ops += p.coneOps_[src];
    });
    if (!changed)
        return;

    // Whole-stream run when the cones are too large to pay for the
    // bookkeeping (their sizes summed bound what they cover).
    if (2 * pending_ops >= p.insns_.size() - 1) {
        for (uint64_t &word : pendSrc_)
            word = 0;
        captureAll_ = true;
        run<false>();
        return;
    }
    forEachBit(pendSrc_.data(), pendSrc_.size(), [&](uint32_t src) {
        const uint64_t *cone = &p.cones_[size_t(src) * p.groupWords_];
        for (uint32_t g = 0; g < p.groupWords_; ++g)
            pendGroups_[g] |= cone[g];
        const uint64_t *reach = &p.reach_[size_t(src) * p.regWords_];
        for (uint32_t r = 0; r < p.regWords_; ++r)
            capture_[r] |= reach[r];
    });
    for (uint64_t &word : pendSrc_)
        word = 0;
    run<true>();
}

// The dispatch loop. With GCC/Clang each opcode body jumps directly to
// the next instruction's body through a label table (threaded code);
// other compilers fall back to a switch in a loop.
#if defined(__GNUC__) || defined(__clang__)
#define LN_SIMJIT_THREADED 1
#else
#define LN_SIMJIT_THREADED 0
#endif

/**
 * The dispatch loop over the instruction stream. Sparse = false runs
 * every instruction (ip advances by one until Halt); Sparse = true runs
 * the groups in pendGroups_, ascending (= program order), and clears
 * the set.
 */
template <bool Sparse>
void
Machine::run()
{
    const Program &p = *prog_;
    const Insn *const base = p.insns_.data();
    const Insn *const halt = base + (p.insns_.size() - 1);
    const Insn *ip = base;
    uint64_t *R = regs_.data();
    u128 *W = w2_.data();
    (void)W;

    // Sparse state: the current group ends at `end`; `word` holds the
    // pending groups of pendGroups_[wi] not yet entered.
    [[maybe_unused]] const Insn *end = nullptr;
    [[maybe_unused]] size_t wi = 0;
    [[maybe_unused]] uint64_t word = 0;
    [[maybe_unused]] auto next_group = [&]() -> const Insn * {
        while (!word) {
            if (++wi >= p.groupWords_)
                return halt;
            word = pendGroups_[wi];
            pendGroups_[wi] = 0;
        }
        uint32_t g = uint32_t(wi * 64 + unsigned(std::countr_zero(word)));
        word &= word - 1;
        uint32_t first = p.groupStart_[g], last = p.groupStart_[g + 1];
        ops_ += last - first;
        end = base + last;
        return base + first;
    };
    if constexpr (Sparse) {
        word = pendGroups_[0];
        pendGroups_[0] = 0;
        ip = next_group();
    } else {
        ops_ += p.insns_.size() - 1;
    }
#define LN_ADVANCE()                                                   \
    do {                                                               \
        if constexpr (Sparse) {                                        \
            if (++ip == end)                                           \
                ip = next_group();                                     \
        } else {                                                       \
            ++ip;                                                      \
        }                                                              \
    } while (0)

// Flag-driven operand load for u128-lane ops: bit N of sshift selects
// the u128 register file, else the narrow one (a zero-extension).
#define LN_W2(bit, field)                                              \
    ((ip->sshift & (1u << bit)) ? W[ip->field] : u128(R[ip->field]))

#define LN_SIMJIT_OPLIST(X)                                            \
    X(Add) X(Sub) X(Mul) X(DivU) X(DivS) X(ModU) X(ModS) X(And) X(Or) \
    X(Xor) X(Shl) X(ShrU) X(ShrS) X(ShlI) X(ShrUI) X(ShrSI) X(CmpEq)  \
    X(CmpNe) X(CmpUlt) X(CmpUle) X(CmpUgt) X(CmpUge) X(CmpSlt)        \
    X(CmpSle) X(CmpSgt) X(CmpSge) X(Mux) X(CmpMux) X(Extract)         \
    X(ExtractWide) X(Concat2) X(ConcatN) X(Replicate) X(Rom)          \
    X(Add2) X(Sub2) X(Mul2) X(DivU2) X(DivS2) X(ModU2) X(ModS2)       \
    X(And2) X(Or2) X(Xor2) X(Shl2) X(ShrU2) X(ShrS2) X(Cmp2) X(Mux2)  \
    X(Extract2N) X(Extract22) X(Concat22) X(ConcatN2) X(Replicate2)   \
    X(Rom2) X(WideEval) X(Halt)

#if LN_SIMJIT_THREADED
#define X(name) &&lbl_##name,
    static const void *jump[] = {LN_SIMJIT_OPLIST(X)};
#undef X
#define LN_CASE(name) lbl_##name:
#define LN_NEXT()                                                      \
    do {                                                               \
        LN_ADVANCE();                                                  \
        goto *jump[size_t(ip->op)];                                    \
    } while (0)
    goto *jump[size_t(ip->op)];
#else
#define LN_CASE(name) case Op::name:
#define LN_NEXT() break
    for (;; LN_ADVANCE()) {
        switch (ip->op) {
#endif

    LN_CASE(Add) { R[ip->dst] = (R[ip->a] + R[ip->b]) & ip->mask; }
    LN_NEXT();
    LN_CASE(Sub) { R[ip->dst] = (R[ip->a] - R[ip->b]) & ip->mask; }
    LN_NEXT();
    LN_CASE(Mul) { R[ip->dst] = (R[ip->a] * R[ip->b]) & ip->mask; }
    LN_NEXT();
    LN_CASE(DivU)
    {
        uint64_t d = R[ip->b];
        R[ip->dst] = d ? R[ip->a] / d : 0;
    }
    LN_NEXT();
    LN_CASE(DivS)
    {
        uint64_t bv = R[ip->b];
        if (!bv) {
            R[ip->dst] = 0;
        } else {
            // Magnitude-based like ApInt::sdiv; width-64 INT_MIN / -1
            // wraps the same way.
            int64_t sa = sx(R[ip->a], ip->sshift);
            int64_t sb = sx(bv, ip->sshift);
            uint64_t am = sa < 0 ? 0 - uint64_t(sa) : uint64_t(sa);
            uint64_t bm = sb < 0 ? 0 - uint64_t(sb) : uint64_t(sb);
            uint64_t q = am / bm;
            if ((sa < 0) != (sb < 0))
                q = 0 - q;
            R[ip->dst] = q & ip->mask;
        }
    }
    LN_NEXT();
    LN_CASE(ModU)
    {
        uint64_t d = R[ip->b];
        R[ip->dst] = d ? R[ip->a] % d : 0;
    }
    LN_NEXT();
    LN_CASE(ModS)
    {
        uint64_t bv = R[ip->b];
        if (!bv) {
            R[ip->dst] = 0;
        } else {
            int64_t sa = sx(R[ip->a], ip->sshift);
            int64_t sb = sx(bv, ip->sshift);
            uint64_t am = sa < 0 ? 0 - uint64_t(sa) : uint64_t(sa);
            uint64_t bm = sb < 0 ? 0 - uint64_t(sb) : uint64_t(sb);
            uint64_t r = am % bm;
            if (sa < 0)
                r = 0 - r;
            R[ip->dst] = r & ip->mask;
        }
    }
    LN_NEXT();
    LN_CASE(And) { R[ip->dst] = R[ip->a] & R[ip->b]; }
    LN_NEXT();
    LN_CASE(Or) { R[ip->dst] = R[ip->a] | R[ip->b]; }
    LN_NEXT();
    LN_CASE(Xor) { R[ip->dst] = R[ip->a] ^ R[ip->b]; }
    LN_NEXT();
    LN_CASE(Shl)
    {
        unsigned amount = clampShift(R[ip->b], ip->auxw);
        R[ip->dst] =
            amount >= 64 ? 0 : (R[ip->a] << amount) & ip->mask;
    }
    LN_NEXT();
    LN_CASE(ShrU)
    {
        unsigned amount = clampShift(R[ip->b], ip->auxw);
        R[ip->dst] = amount >= 64 ? 0 : R[ip->a] >> amount;
    }
    LN_NEXT();
    LN_CASE(ShrS)
    {
        unsigned amount = clampShift(R[ip->b], ip->auxw);
        int64_t sa = sx(R[ip->a], ip->sshift);
        R[ip->dst] = (amount >= 64 ? uint64_t(sa >> 63)
                                   : uint64_t(sa >> amount)) &
                     ip->mask;
    }
    LN_NEXT();
    LN_CASE(ShlI)
    {
        R[ip->dst] =
            ip->shift >= 64 ? 0 : (R[ip->a] << ip->shift) & ip->mask;
    }
    LN_NEXT();
    LN_CASE(ShrUI)
    {
        R[ip->dst] = ip->shift >= 64 ? 0 : R[ip->a] >> ip->shift;
    }
    LN_NEXT();
    LN_CASE(ShrSI)
    {
        int64_t sa = sx(R[ip->a], ip->sshift);
        R[ip->dst] = (ip->shift >= 64 ? uint64_t(sa >> 63)
                                      : uint64_t(sa >> ip->shift)) &
                     ip->mask;
    }
    LN_NEXT();
    LN_CASE(CmpEq) { R[ip->dst] = R[ip->a] == R[ip->b]; }
    LN_NEXT();
    LN_CASE(CmpNe) { R[ip->dst] = R[ip->a] != R[ip->b]; }
    LN_NEXT();
    LN_CASE(CmpUlt) { R[ip->dst] = R[ip->a] < R[ip->b]; }
    LN_NEXT();
    LN_CASE(CmpUle) { R[ip->dst] = R[ip->a] <= R[ip->b]; }
    LN_NEXT();
    LN_CASE(CmpUgt) { R[ip->dst] = R[ip->a] > R[ip->b]; }
    LN_NEXT();
    LN_CASE(CmpUge) { R[ip->dst] = R[ip->a] >= R[ip->b]; }
    LN_NEXT();
    LN_CASE(CmpSlt)
    {
        R[ip->dst] =
            sx(R[ip->a], ip->sshift) < sx(R[ip->b], ip->sshift);
    }
    LN_NEXT();
    LN_CASE(CmpSle)
    {
        R[ip->dst] =
            sx(R[ip->a], ip->sshift) <= sx(R[ip->b], ip->sshift);
    }
    LN_NEXT();
    LN_CASE(CmpSgt)
    {
        R[ip->dst] =
            sx(R[ip->a], ip->sshift) > sx(R[ip->b], ip->sshift);
    }
    LN_NEXT();
    LN_CASE(CmpSge)
    {
        R[ip->dst] =
            sx(R[ip->a], ip->sshift) >= sx(R[ip->b], ip->sshift);
    }
    LN_NEXT();
    LN_CASE(Mux) { R[ip->dst] = R[ip->a] ? R[ip->b] : R[ip->c]; }
    LN_NEXT();
    LN_CASE(CmpMux)
    {
        bool taken = cmpEval(ir::ICmpPred(ip->sub), R[ip->a], R[ip->b],
                             ip->sshift);
        R[ip->dst] = taken ? R[ip->c] : R[ip->d2];
    }
    LN_NEXT();
    LN_CASE(Extract)
    {
        R[ip->dst] = (R[ip->a] >> ip->shift) & ip->mask;
    }
    LN_NEXT();
    LN_CASE(ExtractWide)
    {
        R[ip->dst] =
            wide_[ip->a].extract(ip->aux, ip->auxw).toUint64();
    }
    LN_NEXT();
    LN_CASE(Concat2)
    {
        R[ip->dst] = ((R[ip->a] << ip->shift) | R[ip->b]) & ip->mask;
    }
    LN_NEXT();
    LN_CASE(ConcatN)
    {
        const auto *pool = prog_->concatPool_.data() + ip->aux;
        uint64_t acc = 0;
        for (unsigned i = 0; i < ip->auxw; ++i)
            acc = (acc << pool[i].width) | R[pool[i].slot];
        R[ip->dst] = acc & ip->mask;
    }
    LN_NEXT();
    LN_CASE(Replicate) { R[ip->dst] = R[ip->a] ? ip->mask : 0; }
    LN_NEXT();
    LN_CASE(Rom)
    {
        const auto &table = prog_->romTables_[ip->aux];
        uint64_t index = R[ip->a];
        R[ip->dst] = index < table.size() ? table[index] : 0;
    }
    LN_NEXT();
    LN_CASE(Add2)
    {
        W[ip->dst] =
            (LN_W2(0, a) + LN_W2(1, b)) & maskW2(ip->auxw);
    }
    LN_NEXT();
    LN_CASE(Sub2)
    {
        W[ip->dst] =
            (LN_W2(0, a) - LN_W2(1, b)) & maskW2(ip->auxw);
    }
    LN_NEXT();
    LN_CASE(Mul2)
    {
        W[ip->dst] =
            (LN_W2(0, a) * LN_W2(1, b)) & maskW2(ip->auxw);
    }
    LN_NEXT();
    LN_CASE(DivU2)
    {
        u128 d = LN_W2(1, b);
        W[ip->dst] = d ? LN_W2(0, a) / d : u128(0);
    }
    LN_NEXT();
    LN_CASE(DivS2)
    {
        u128 bv = LN_W2(1, b);
        if (!bv) {
            W[ip->dst] = 0;
        } else {
            s128 sa = sx2(LN_W2(0, a), ip->auxw);
            s128 sb = sx2(bv, ip->auxw);
            u128 am = sa < 0 ? u128(0) - u128(sa) : u128(sa);
            u128 bm = sb < 0 ? u128(0) - u128(sb) : u128(sb);
            u128 q = am / bm;
            if ((sa < 0) != (sb < 0))
                q = u128(0) - q;
            W[ip->dst] = q & maskW2(ip->auxw);
        }
    }
    LN_NEXT();
    LN_CASE(ModU2)
    {
        u128 d = LN_W2(1, b);
        W[ip->dst] = d ? LN_W2(0, a) % d : u128(0);
    }
    LN_NEXT();
    LN_CASE(ModS2)
    {
        u128 bv = LN_W2(1, b);
        if (!bv) {
            W[ip->dst] = 0;
        } else {
            s128 sa = sx2(LN_W2(0, a), ip->auxw);
            s128 sb = sx2(bv, ip->auxw);
            u128 am = sa < 0 ? u128(0) - u128(sa) : u128(sa);
            u128 bm = sb < 0 ? u128(0) - u128(sb) : u128(sb);
            u128 r = am % bm;
            if (sa < 0)
                r = u128(0) - r;
            W[ip->dst] = r & maskW2(ip->auxw);
        }
    }
    LN_NEXT();
    LN_CASE(And2) { W[ip->dst] = LN_W2(0, a) & LN_W2(1, b); }
    LN_NEXT();
    LN_CASE(Or2) { W[ip->dst] = LN_W2(0, a) | LN_W2(1, b); }
    LN_NEXT();
    LN_CASE(Xor2) { W[ip->dst] = LN_W2(0, a) ^ LN_W2(1, b); }
    LN_NEXT();
    LN_CASE(Shl2)
    {
        unsigned amount = clampShift2(LN_W2(1, b), ip->auxw);
        W[ip->dst] = amount >= 128
                         ? u128(0)
                         : (LN_W2(0, a) << amount) & maskW2(ip->auxw);
    }
    LN_NEXT();
    LN_CASE(ShrU2)
    {
        unsigned amount = clampShift2(LN_W2(1, b), ip->auxw);
        W[ip->dst] = amount >= 128 ? u128(0) : LN_W2(0, a) >> amount;
    }
    LN_NEXT();
    LN_CASE(ShrS2)
    {
        unsigned amount = clampShift2(LN_W2(1, b), ip->auxw);
        s128 sa = sx2(LN_W2(0, a), ip->auxw);
        W[ip->dst] = u128(sa >> (amount > 127 ? 127 : amount)) &
                     maskW2(ip->auxw);
    }
    LN_NEXT();
    LN_CASE(Cmp2)
    {
        R[ip->dst] = cmpEval2(ir::ICmpPred(ip->sub), W[ip->a],
                              W[ip->b], ip->shift);
    }
    LN_NEXT();
    LN_CASE(Mux2)
    {
        W[ip->dst] =
            (R[ip->a] ? LN_W2(1, b) : LN_W2(2, c)) & maskW2(ip->auxw);
    }
    LN_NEXT();
    LN_CASE(Extract2N)
    {
        R[ip->dst] = uint64_t(W[ip->a] >> ip->shift) & ip->mask;
    }
    LN_NEXT();
    LN_CASE(Extract22)
    {
        W[ip->dst] = (W[ip->a] >> ip->shift) & maskW2(ip->auxw);
    }
    LN_NEXT();
    LN_CASE(Concat22)
    {
        W[ip->dst] = ((LN_W2(0, a) << ip->shift) | LN_W2(1, b)) &
                     maskW2(ip->auxw);
    }
    LN_NEXT();
    LN_CASE(ConcatN2)
    {
        const auto *pool = prog_->concatPool_.data() + ip->aux;
        u128 acc = 0;
        for (unsigned i = 0; i < ip->shift; ++i) {
            u128 v = pool[i].wide2 ? W[pool[i].slot]
                                   : u128(R[pool[i].slot]);
            acc = (acc << pool[i].width) | v;
        }
        W[ip->dst] = acc & maskW2(ip->auxw);
    }
    LN_NEXT();
    LN_CASE(Replicate2)
    {
        W[ip->dst] = R[ip->a] ? maskW2(ip->auxw) : u128(0);
    }
    LN_NEXT();
    LN_CASE(Rom2)
    {
        const auto &table = prog_->romTables2_[ip->aux];
        u128 iv = LN_W2(0, a);
        // activeBits() > 63 is out of bounds for the interpreter.
        uint64_t index = (iv >> 63) ? ~uint64_t(0) : uint64_t(iv);
        W[ip->dst] = index < table.size() ? table[index] : u128(0);
    }
    LN_NEXT();
    LN_CASE(WideEval) { execWide(ip->aux); }
    LN_NEXT();
    LN_CASE(Halt) { return; }

#if !LN_SIMJIT_THREADED
        }
    }
#endif
#undef LN_CASE
#undef LN_NEXT
#undef LN_ADVANCE
#undef LN_W2
#undef LN_SIMJIT_OPLIST
}

/** Capture every register of a program without activity tables; its
 * one pending bit stands for all of them. */
inline void
Machine::captureWhole()
{
    const Program &p = *prog_;
    for (size_t i = 0; i < p.regsN_.size(); ++i) {
        const Program::RegN &r = p.regsN_[i];
        bool enabled = r.en == ~0u || regs_[r.en] != 0;
        stateN_[i] = enabled ? regs_[r.d] : stateN_[i];
    }
    for (size_t i = 0; i < p.regs2_.size(); ++i) {
        const Program::Reg2 &r = p.regs2_[i];
        bool enabled = r.en == ~0u || regs_[r.en] != 0;
        state2_[i] = enabled ? w2_[r.d] : state2_[i];
    }
    for (size_t i = 0; i < p.regsW_.size(); ++i) {
        const Program::RegW &r = p.regsW_[i];
        if (r.en == ~0u || regs_[r.en] != 0)
            stateW_[i] = wide_[r.d];
    }
    markSource(0);
}

/** Capture register @p reg (a source index) into its state; it becomes
 * pending when the state now differs from its net. */
void
Machine::capture(uint32_t reg)
{
    const Program &p = *prog_;
    if (reg < p.regsN_.size()) {
        const Program::RegN &r = p.regsN_[reg];
        if (r.en == ~0u || regs_[r.en] != 0)
            stateN_[reg] = regs_[r.d];
        if (stateN_[reg] != regs_[r.slot])
            markSource(reg);
        return;
    }
    uint32_t i = reg - uint32_t(p.regsN_.size());
    if (i < p.regs2_.size()) {
        const Program::Reg2 &r = p.regs2_[i];
        if (r.en == ~0u || regs_[r.en] != 0)
            state2_[i] = w2_[r.d];
        if (state2_[i] != w2_[r.slot])
            markSource(reg);
        return;
    }
    i -= uint32_t(p.regs2_.size());
    const Program::RegW &r = p.regsW_[i];
    if (r.en == ~0u || regs_[r.en] != 0)
        stateW_[i] = wide_[r.d];
    if (stateW_[i] != wide_[r.slot])
        markSource(reg);
}

void
Machine::clockEdge()
{
    // Nets change only at evalComb(), so every capture reads pre-edge
    // values and the order of captures does not matter.
    if (!hasRegs_)
        return;
    if (!activity_) {
        captureWhole();
        return;
    }
    if (captureAll_) {
        for (uint32_t reg = 0; reg < prog_->numRegs_; ++reg)
            capture(reg);
        captureAll_ = false;
        for (uint64_t &word : capture_)
            word = 0;
        return;
    }
    forEachBit(capture_.data(), capture_.size(),
               [&](uint32_t reg) { capture(reg); });
    for (uint64_t &word : capture_)
        word = 0;
}

uint64_t
Machine::lazyValue(NetId net) const
{
    const Node &node = prog_->module_->nodes()[prog_->lazyNode_[net]];
    uint64_t a = regs_[prog_->loc_[node.operands[0]].slot];
    uint64_t b = regs_[prog_->loc_[node.operands[1]].slot];
    unsigned shift =
        64 - prog_->module_->widthOf(node.operands[0]);
    return cmpEval(node.pred, a, b, shift) ? 1 : 0;
}

const ApInt &
Machine::netRef(NetId net) const
{
    const NetLoc &loc = prog_->loc_[net];
    switch (loc.lane) {
      case Lane::Wide:
        return wide_[loc.slot];
      case Lane::Narrow:
        mat_[net].setValue(regs_[loc.slot]);
        return mat_[net];
      case Lane::Wide2:
        mat_[net].setValue(lo64(w2_[loc.slot]), hi64(w2_[loc.slot]));
        return mat_[net];
      case Lane::Lazy:
        mat_[net].setValue(lazyValue(net));
        return mat_[net];
    }
    LN_PANIC("bad net lane");
}

uint64_t
Machine::netU64(NetId net) const
{
    const NetLoc &loc = prog_->loc_[net];
    switch (loc.lane) {
      case Lane::Narrow: return regs_[loc.slot];
      case Lane::Wide2: return lo64(w2_[loc.slot]);
      case Lane::Wide: return wide_[loc.slot].toUint64();
      case Lane::Lazy: return lazyValue(net);
    }
    LN_PANIC("bad net lane");
}

ApInt
Machine::loadNet(NetId net) const
{
    const NetLoc &loc = prog_->loc_[net];
    switch (loc.lane) {
      case Lane::Narrow:
        return ApInt(prog_->module_->widthOf(net), regs_[loc.slot]);
      case Lane::Wide2: {
        ApInt out(prog_->module_->widthOf(net), 0);
        out.setValue(lo64(w2_[loc.slot]), hi64(w2_[loc.slot]));
        return out;
      }
      case Lane::Wide:
        return wide_[loc.slot];
      case Lane::Lazy:
        return ApInt(1, lazyValue(net));
    }
    LN_PANIC("bad net lane");
}

void
Machine::storeNet(NetId net, const ApInt &value)
{
    const NetLoc &loc = prog_->loc_[net];
    unsigned width = prog_->module_->widthOf(net);
    if (loc.lane == Lane::Narrow) {
        regs_[loc.slot] = value.toUint64() & maskOf(width);
    } else if (loc.lane == Lane::Wide2) {
        if (value.width() == width) {
            w2_[loc.slot] = make128(value.word(0), value.word(1));
        } else {
            ApInt t = value.zextOrTrunc(width);
            w2_[loc.slot] = make128(t.word(0), t.word(1));
        }
    } else {
        wide_[loc.slot] =
            value.width() == width ? value : value.zextOrTrunc(width);
    }
}

/** Fallback for nodes touching wide nets: the reference semantics on
 * ApInts. Rare by construction for RV32 ISAXes. */
void
Machine::execWide(uint32_t nodeIndex)
{
    const Node &node = prog_->module_->nodes()[nodeIndex];
    std::vector<ApInt> operands;
    operands.reserve(node.operands.size());
    for (NetId net : node.operands)
        operands.push_back(loadNet(net));
    auto in = [&](unsigned i) -> const ApInt & { return operands[i]; };
    storeNet(node.result,
             ir::evalComb(*combOpOf(node.kind),
                          prog_->module_->widthOf(node.result),
                          ir::CombOperands(operands.size(), in),
                          combAttrs(node)));
}

} // namespace simjit
} // namespace rtl
} // namespace longnail
