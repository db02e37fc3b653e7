/**
 * @file
 * Cross-consumer conformance of the comb operators. Every operator is
 * evaluated by the four consumers that compute concrete values:
 *
 *  - ir::evaluate on a one-op LIL graph,
 *  - the rtl interpreter (SimEngine::Interp),
 *  - the compiled engine (SimEngine::Compiled), with operands driven
 *    through input ports and again as constants,
 *  - TermBuilder constant folding.
 *
 * They must agree with each other on every width class the compiled
 * engine distinguishes (u64, u128 and ApInt lanes), and with
 * hand-written expected values for the edge rules: division and
 * remainder by zero give 0 (ir::evaluate: no value), shift amounts
 * clamp to the width (more than 32 active bits means the full width),
 * an out-of-range ROM index gives 0, a LIL ROM without an index reads
 * entry 0, concat puts operand 0 high, replicate fills the width.
 */

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <string>
#include <vector>

#include "analysis/tv/terms.hh"
#include "ir/comb.hh"
#include "ir/eval.hh"
#include "ir/ir.hh"
#include "rtl/netlist.hh"
#include "rtl/sim.hh"

using namespace longnail;
using analysis::tv::TermBuilder;
using analysis::tv::TermId;
using analysis::tv::TermKind;
using ir::ICmpPred;
using ir::OpKind;
using rtl::NetId;
using rtl::NodeKind;

namespace {

/** One row of the comb operator table under its four enum spellings. */
struct Row
{
    const char *name;
    ir::CombOp comb;
    OpKind op;
    NodeKind node;
    TermKind term;
};

std::vector<Row>
tableRows()
{
    std::vector<Row> rows;
    for (unsigned i = 0; i < ir::numCombOps; ++i) {
        auto comb = ir::CombOp(i);
        rows.push_back({ir::combInfo(comb).name, comb, ir::opKindOf(comb),
                        rtl::nodeKindOf(comb),
                        analysis::tv::termKindOf(comb)});
    }
    return rows;
}

const unsigned widths[] = {1, 7, 32, 63, 64, 65, 127, 128, 129, 200};

/** One application of an operator. */
struct Case
{
    unsigned width = 1;            ///< result width
    std::vector<ApInt> operands;   ///< empty for constant
    ApInt value{1, 0};             ///< constant payload
    ICmpPred pred = ICmpPred::Eq;
    unsigned lo = 0;
    std::vector<ApInt> rom;
    /** A LIL ROM without an index operand (LIL-only; the netlist and
     * the term DAG always carry one). */
    bool lilOnly = false;
};

ApInt
randomValue(std::mt19937_64 &rng, unsigned width)
{
    ApInt value(width);
    for (unsigned bit = 0; bit < width; ++bit)
        value.setBit(bit, (rng() & 1) != 0);
    return value;
}

/** Interesting operands of one width: 0, 1, all-ones, the signed
 * minimum and seeded random values. */
std::vector<ApInt>
valuesOf(unsigned width, std::mt19937_64 &rng)
{
    std::vector<ApInt> out = {ApInt(width, 0), ApInt(width, 1),
                              ApInt::allOnes(width),
                              ApInt::oneBit(width, width - 1)};
    for (int i = 0; i < 3; ++i)
        out.push_back(randomValue(rng, width));
    return out;
}

std::string
describe(const Row &row, const Case &c)
{
    std::string s = std::string(row.name) + " w" +
                    std::to_string(c.width) + " (";
    for (size_t i = 0; i < c.operands.size(); ++i)
        s += (i ? ", " : "") + std::to_string(c.operands[i].width()) +
             "'h" + c.operands[i].toStringUnsigned(16);
    return s + ")";
}

std::optional<ApInt>
evalIr(const Row &row, const Case &c)
{
    ir::Graph graph;
    std::vector<ir::Value *> operands;
    for (const ApInt &v : c.operands) {
        ir::Operation *def = graph.append(OpKind::CombConstant, {},
                                          {ir::WireType(v.width())});
        def->setAttr("value", v);
        operands.push_back(def->result());
    }
    ir::Operation *op =
        graph.append(row.op, operands, {ir::WireType(c.width)});
    if (row.node == NodeKind::Constant)
        op->setAttr("value", c.value);
    if (row.node == NodeKind::ICmp)
        op->setAttr("pred", int64_t(c.pred));
    if (row.node == NodeKind::Extract)
        op->setAttr("lo", int64_t(c.lo));
    if (row.node == NodeKind::Rom)
        op->setAttr("values", c.rom);
    return ir::evaluate(*op, c.operands);
}

ApInt
evalRtl(const Row &row, const Case &c, rtl::SimEngine engine,
        bool constant_operands)
{
    rtl::Module m("conformance");
    std::vector<NetId> nets;
    for (size_t i = 0; i < c.operands.size(); ++i)
        nets.push_back(constant_operands
                           ? m.addConstant(c.operands[i])
                           : m.addInput("i" + std::to_string(i),
                                        c.operands[i].width()));
    NetId out = rtl::invalidNet;
    switch (row.node) {
      case NodeKind::Constant: out = m.addConstant(c.value); break;
      case NodeKind::ICmp: out = m.addICmp(c.pred, nets[0], nets[1]); break;
      case NodeKind::Extract:
        out = m.addExtract(nets[0], c.lo, c.width);
        break;
      case NodeKind::Rom: out = m.addRom(c.rom, c.width, nets[0]); break;
      default: out = m.addNode(row.node, c.width, nets); break;
    }
    m.addOutput("o", out);
    rtl::Simulator sim(m, engine);
    if (!constant_operands)
        for (size_t i = 0; i < c.operands.size(); ++i)
            sim.setInput("i" + std::to_string(i), c.operands[i]);
    sim.evalComb();
    return sim.output("o");
}

std::optional<ApInt>
evalTerm(const Row &row, const Case &c)
{
    TermBuilder b;
    std::vector<TermId> ids;
    for (const ApInt &v : c.operands)
        ids.push_back(b.constant(v));
    TermId id = analysis::tv::invalidTerm;
    switch (row.node) {
      case NodeKind::Constant: id = b.constant(c.value); break;
      case NodeKind::ICmp: id = b.icmp(c.pred, ids[0], ids[1]); break;
      case NodeKind::Extract: id = b.extract(ids[0], c.lo, c.width); break;
      case NodeKind::Rom: id = b.rom(c.rom, c.width, ids[0]); break;
      default: id = b.make(row.term, c.width, ids); break;
    }
    if (b.term(id).kind != TermKind::Constant)
        return std::nullopt;
    return b.term(id).cval;
}

bool
isDivision(NodeKind kind)
{
    return kind == NodeKind::DivU || kind == NodeKind::DivS ||
           kind == NodeKind::ModU || kind == NodeKind::ModS;
}

/**
 * Evaluate @p c with every consumer, check that they agree, and return
 * the common value. ir::evaluate must yield no value exactly for a
 * zero divisor.
 */
ApInt
evalAll(const Row &row, const Case &c)
{
    const std::string what = describe(row, c);
    int arity = ir::combInfo(row.comb).arity;
    if (!c.lilOnly) {
        EXPECT_TRUE(arity < 0 ? c.operands.size() >= 2
                              : c.operands.size() == size_t(arity))
            << what << ": the table gives arity " << arity;
    }
    std::optional<ApInt> ir_value = evalIr(row, c);
    if (c.lilOnly) {
        EXPECT_TRUE(ir_value.has_value()) << what;
        return ir_value.value_or(ApInt(c.width, 0));
    }
    ApInt interp = evalRtl(row, c, rtl::SimEngine::Interp, false);
    EXPECT_EQ(interp.width(), c.width) << what;
    bool zero_divisor = isDivision(row.node) && c.operands[1].isZero();
    EXPECT_EQ(ir_value.has_value(), !zero_divisor) << what;
    if (ir_value) {
        EXPECT_TRUE(*ir_value == interp)
            << what << ": ir::evaluate 'h" << ir_value->toStringUnsigned(16)
            << " vs interpreter 'h" << interp.toStringUnsigned(16);
    }
    for (bool constants : {false, true}) {
        ApInt compiled = evalRtl(row, c, rtl::SimEngine::Compiled,
                                 constants);
        EXPECT_TRUE(compiled == interp)
            << what << (constants ? " (constant operands)" : "")
            << ": compiled 'h" << compiled.toStringUnsigned(16)
            << " vs interpreter 'h" << interp.toStringUnsigned(16);
    }
    std::optional<ApInt> folded = evalTerm(row, c);
    EXPECT_TRUE(folded.has_value()) << what << ": term did not fold";
    if (folded) {
        EXPECT_TRUE(*folded == interp)
            << what << ": term fold 'h" << folded->toStringUnsigned(16)
            << " vs interpreter 'h" << interp.toStringUnsigned(16);
    }
    return interp;
}

uint64_t
mask(unsigned width)
{
    return width >= 64 ? ~0ull : (1ull << width) - 1;
}

/** Native 64-bit reference for the operators it can state without
 * overflow, at widths up to 64. */
std::optional<uint64_t>
nativeReference(NodeKind kind, unsigned width, uint64_t a, uint64_t b)
{
    auto sext = [&](uint64_t v) {
        unsigned shift = 64 - width;
        return int64_t(v << shift) >> shift;
    };
    unsigned amount = b >= width ? width : unsigned(b);
    switch (kind) {
      case NodeKind::Add: return (a + b) & mask(width);
      case NodeKind::Sub: return (a - b) & mask(width);
      case NodeKind::Mul: return (a * b) & mask(width);
      case NodeKind::DivU: return b ? a / b : 0;
      case NodeKind::ModU: return b ? a % b : 0;
      case NodeKind::And: return a & b;
      case NodeKind::Or: return a | b;
      case NodeKind::Xor: return a ^ b;
      case NodeKind::Shl:
        return amount >= 64 ? 0 : (a << amount) & mask(width);
      case NodeKind::ShrU: return amount >= 64 ? 0 : a >> amount;
      case NodeKind::ShrS:
        return uint64_t(sext(a) >> (amount >= 64 ? 63 : amount)) &
               mask(width);
      default: return std::nullopt;
    }
}

void
checkBinary(const Row &row, unsigned width, std::mt19937_64 &rng)
{
    std::vector<ApInt> values = valuesOf(width, rng);
    for (const ApInt &a : values) {
        for (const ApInt &b : values) {
            Case c;
            c.width = width;
            c.operands = {a, b};
            ApInt got = evalAll(row, c);
            if (isDivision(row.node) && b.isZero()) {
                EXPECT_TRUE(got.isZero()) << describe(row, c);
            }
            std::optional<uint64_t> want;
            if (width <= 64)
                want = nativeReference(row.node, width, a.toUint64(),
                                       b.toUint64());
            if (want) {
                EXPECT_EQ(got.toUint64(), *want) << describe(row, c);
            }
        }
    }
}

void
checkShift(const Row &row, unsigned width, std::mt19937_64 &rng)
{
    // Same-width amounts, then a wider amount operand that can carry
    // width - 1, width, width + 1 and more than 32 active bits.
    std::vector<ApInt> values = valuesOf(width, rng);
    unsigned amount_width = std::max(width, 40u);
    std::vector<ApInt> amounts = values;
    for (uint64_t amount : {uint64_t(width - 1), uint64_t(width),
                            uint64_t(width + 1), uint64_t(1) << 33,
                            (uint64_t(1) << 33) | 1})
        amounts.push_back(ApInt(amount_width, amount));
    amounts.push_back(ApInt::oneBit(amount_width, amount_width - 1));
    for (const ApInt &v : values) {
        for (const ApInt &amt : amounts) {
            Case c;
            c.width = width;
            c.operands = {v, amt};
            ApInt got = evalAll(row, c);
            bool saturates = amt.activeBits() > 32 ||
                             amt.toUint64() >= width;
            if (saturates) {
                ApInt fill = row.node == NodeKind::ShrS && v.isNegative()
                                 ? ApInt::allOnes(width)
                                 : ApInt(width, 0);
                EXPECT_TRUE(got == fill) << describe(row, c);
            } else if (amt.toUint64() == width - 1 &&
                       row.node == NodeKind::Shl) {
                EXPECT_TRUE(got == (v.getBit(0)
                                        ? ApInt::oneBit(width, width - 1)
                                        : ApInt(width, 0)))
                    << describe(row, c);
            }
            std::optional<uint64_t> want;
            if (width <= 64)
                want = nativeReference(
                    row.node, width, v.toUint64(),
                    amt.activeBits() > 32 ? width : amt.toUint64());
            if (want) {
                EXPECT_EQ(got.toUint64(), *want) << describe(row, c);
            }
        }
    }
}

void
checkICmp(const Row &row, unsigned width, std::mt19937_64 &rng)
{
    std::vector<ApInt> values = valuesOf(width, rng);
    for (int p = 0; p <= int(ICmpPred::Sge); ++p) {
        for (const ApInt &a : values) {
            for (const ApInt &b : values) {
                Case c;
                c.width = 1;
                c.operands = {a, b};
                c.pred = ICmpPred(p);
                ApInt got = evalAll(row, c);
                if (c.pred == ICmpPred::Eq) {
                    EXPECT_EQ(got.toUint64(), a == b ? 1u : 0u);
                }
                if (c.pred == ICmpPred::Slt && a.isNegative() &&
                    !b.isNegative()) {
                    EXPECT_EQ(got.toUint64(), 1u) << describe(row, c);
                }
            }
        }
    }
}

void
checkMux(const Row &row, unsigned width, std::mt19937_64 &rng)
{
    std::vector<ApInt> values = valuesOf(width, rng);
    for (unsigned sel : {0u, 1u}) {
        for (size_t i = 0; i + 1 < values.size(); ++i) {
            Case c;
            c.width = width;
            c.operands = {ApInt(1, sel), values[i], values[i + 1]};
            ApInt got = evalAll(row, c);
            EXPECT_TRUE(got == (sel ? values[i] : values[i + 1]))
                << describe(row, c);
        }
    }
}

void
checkExtract(const Row &row, unsigned width, std::mt19937_64 &rng)
{
    std::vector<std::pair<unsigned, unsigned>> slices = {
        {0, width}, {0, 1}, {width - 1, 1}, {width / 2, width - width / 2}};
    if (width > 2)
        slices.push_back({1, width - 2});
    for (const ApInt &v : valuesOf(width, rng)) {
        for (auto [lo, count] : slices) {
            Case c;
            c.width = count;
            c.operands = {v};
            c.lo = lo;
            ApInt got = evalAll(row, c);
            for (unsigned bit = 0; bit < count; ++bit)
                EXPECT_EQ(got.getBit(bit), v.getBit(lo + bit))
                    << describe(row, c) << " bit " << bit;
        }
    }
}

void
checkConcat(const Row &row, unsigned width, std::mt19937_64 &rng)
{
    for (unsigned low_width : {1u, 7u, 64u, 65u}) {
        ApInt hi = randomValue(rng, width);
        ApInt low = randomValue(rng, low_width);
        Case c;
        c.width = width + low_width;
        c.operands = {hi, low};
        ApInt got = evalAll(row, c);
        EXPECT_TRUE(got.extract(low_width, width) == hi)
            << describe(row, c);
        EXPECT_TRUE(got.extract(0, low_width) == low) << describe(row, c);
    }
    // N-ary (the flow's LIL concat is binary, the semantics are not).
    Case c;
    c.operands = {randomValue(rng, width), ApInt(1, 1),
                  randomValue(rng, 7)};
    c.width = width + 8;
    ApInt got = evalAll(row, c);
    EXPECT_TRUE(got.extract(8, width) == c.operands[0] &&
                got.getBit(7) && got.extract(0, 7) == c.operands[2])
        << describe(row, c);
}

void
checkReplicate(const Row &row, unsigned width)
{
    for (unsigned bit : {0u, 1u}) {
        Case c;
        c.width = width;
        c.operands = {ApInt(1, bit)};
        ApInt got = evalAll(row, c);
        EXPECT_TRUE(got == (bit ? ApInt::allOnes(width) : ApInt(width, 0)))
            << describe(row, c);
    }
}

void
checkRom(const Row &row, unsigned width, std::mt19937_64 &rng)
{
    // Entries narrower and wider than the result.
    std::vector<ApInt> rom = {randomValue(rng, width),
                              ApInt(3, 5),
                              randomValue(rng, width + 9),
                              ApInt::allOnes(width),
                              ApInt(width, 1)};
    std::vector<ApInt> indices = {ApInt(3, 0), ApInt(3, 2), ApInt(3, 4),
                                  ApInt(3, 5), ApInt(3, 7),
                                  ApInt(70, 2),
                                  ApInt::oneBit(70, 64) };
    for (const ApInt &index : indices) {
        Case c;
        c.width = width;
        c.operands = {index};
        c.rom = rom;
        ApInt got = evalAll(row, c);
        bool in_range = index.activeBits() <= 63 &&
                        index.toUint64() < rom.size();
        ApInt want = in_range ? rom[index.toUint64()].zextOrTrunc(width)
                              : ApInt(width, 0);
        EXPECT_TRUE(got == want) << describe(row, c);
    }
    Case no_index;
    no_index.width = width;
    no_index.rom = rom;
    no_index.lilOnly = true;
    EXPECT_TRUE(evalAll(row, no_index) == rom[0].zextOrTrunc(width))
        << describe(row, no_index);
}

void
checkConstant(const Row &row, unsigned width, std::mt19937_64 &rng)
{
    for (const ApInt &v : valuesOf(width, rng)) {
        Case c;
        c.width = width;
        c.value = v;
        EXPECT_TRUE(evalAll(row, c) == v) << describe(row, c);
    }
}

} // namespace

TEST(CombSemantics, EnumsAndNamesFollowTheTable)
{
    for (const Row &row : tableRows()) {
        EXPECT_EQ(ir::combOpOf(row.op), row.comb) << row.name;
        EXPECT_EQ(rtl::combOpOf(row.node), row.comb) << row.name;
        EXPECT_EQ(analysis::tv::combOpOf(row.term), row.comb) << row.name;
        EXPECT_EQ(std::string(ir::opKindName(row.op)),
                  std::string("comb.") + row.name);
        EXPECT_EQ(std::string(rtl::nodeKindName(row.node)), row.name);
        EXPECT_EQ(std::string(analysis::tv::termKindName(row.term)),
                  row.name);
    }
    EXPECT_FALSE(ir::combOpOf(OpKind::LilSink));
    EXPECT_FALSE(rtl::combOpOf(NodeKind::Input));
    EXPECT_FALSE(rtl::combOpOf(NodeKind::Register));
    EXPECT_FALSE(analysis::tv::combOpOf(TermKind::Var));
}

TEST(CombSemantics, EveryOperatorAgreesAcrossConsumers)
{
    std::mt19937_64 rng(0x636f6d62); // "comb"
    for (const Row &row : tableRows()) {
        SCOPED_TRACE(row.name);
        for (unsigned width : widths) {
            switch (row.node) {
              case NodeKind::Constant: checkConstant(row, width, rng); break;
              case NodeKind::Shl:
              case NodeKind::ShrU:
              case NodeKind::ShrS: checkShift(row, width, rng); break;
              case NodeKind::ICmp: checkICmp(row, width, rng); break;
              case NodeKind::Mux: checkMux(row, width, rng); break;
              case NodeKind::Extract: checkExtract(row, width, rng); break;
              case NodeKind::Concat: checkConcat(row, width, rng); break;
              case NodeKind::Replicate: checkReplicate(row, width); break;
              case NodeKind::Rom: checkRom(row, width, rng); break;
              default: checkBinary(row, width, rng); break;
            }
        }
    }
}
