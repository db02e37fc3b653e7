/**
 * @file
 * Differential test of the HIR op table (ir/hir.def). Every pure
 * coredsl/hwarith op is computed three ways:
 *
 *  - ir::evaluate on the HIR op (HIR constant folding),
 *  - lil::interpret on the op's LIL lowering (the golden model that
 *    translation validation and the core simulators start from),
 *  - an exact-integer reference written here: every operand as a
 *    two's-complement ApInt wide enough to hold all of them, the
 *    mathematical result truncated to the result width.
 *
 * The three must agree for operand widths 1 to 129, every signedness
 * mix, result types from coredsl::resultType (Sec. 2.3), edge values
 * and seeded random values. A zero divisor gives ir::evaluate no value
 * and the lowered logic 0. The end-to-end cases compile a division
 * whose divisor is wider than its quotient and run it on every core.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "coredsl/types.hh"
#include "driver/longnail.hh"
#include "hir/hir.hh"
#include "ir/eval.hh"
#include "lil/interp.hh"
#include "lil/lil.hh"

namespace longnail::ir {

/** Failure messages name the op, not its enumerator's bytes. */
void
PrintTo(OpKind kind, std::ostream *os)
{
    *os << opKindName(kind);
}

} // namespace longnail::ir

using namespace longnail;
using coredsl::BinOp;
using ir::ICmpPred;
using ir::OpKind;
using ir::WireType;

namespace {

const unsigned widths[] = {1, 7, 8, 16, 32, 33, 63, 64, 65, 128, 129};

/** One application shape of a HIR op: its types and attributes. */
struct Shape
{
    OpKind kind;
    std::vector<WireType> operands;
    WireType result;
    ICmpPred pred = ICmpPred::Eq; ///< icmp
    unsigned lo = 0;              ///< extract
    ApInt value{1, 0};            ///< constant
    std::vector<ApInt> rom = {};  ///< rom

    std::string
    str() const
    {
        std::string out = ir::opKindName(kind);
        for (const WireType &t : operands)
            out += " " + t.str();
        return out + " -> " + result.str() + " (pred " +
               ir::icmpPredName(pred) + ", lo " + std::to_string(lo) +
               ")";
    }
};

ApInt
randomValue(unsigned width, std::mt19937_64 &rng)
{
    ApInt v(width, 0);
    for (unsigned i = 0; i < width; ++i)
        v.setBit(i, rng() & 1);
    return v;
}

/** 0, 1, all ones, the signed extremes and one random value. */
std::vector<ApInt>
samples(unsigned width, std::mt19937_64 &rng)
{
    std::vector<ApInt> out = {ApInt(width, 0), ApInt(width, 1),
                              ApInt::allOnes(width),
                              ApInt::allOnes(width).lshr(1),
                              ApInt::oneBit(width, width - 1),
                              randomValue(width, rng)};
    std::vector<ApInt> unique;
    for (const ApInt &v : out)
        if (std::find(unique.begin(), unique.end(), v) == unique.end())
            unique.push_back(v);
    return unique;
}

/** The integer @p v of type @p type as a @p wide-bit two's-complement
 * value; @p wide exceeds the type's width. */
ApInt
exact(const ApInt &v, WireType type, unsigned wide)
{
    return type.isSigned ? v.sext(wide) : v.zext(wide);
}

/** A shift amount, saturated at the shifted value's width. */
unsigned
amount(const ApInt &v, unsigned width)
{
    return v.activeBits() > 16
               ? width
               : unsigned(std::min<uint64_t>(v.toUint64(), width));
}

/** The exact result of @p shape on @p in; nullopt for a zero divisor. */
std::optional<ApInt>
reference(const Shape &shape, const std::vector<ApInt> &in)
{
    unsigned rw = shape.result.width;
    unsigned wide = rw + 2;
    for (const WireType &t : shape.operands)
        wide += t.width;
    auto x = [&](unsigned i) {
        return exact(in[i], shape.operands[i], wide);
    };
    auto fit = [&](const ApInt &v) { return v.trunc(rw); };
    switch (shape.kind) {
      case OpKind::HwConstant: return shape.value;
      case OpKind::HwAdd: return fit(x(0) + x(1));
      case OpKind::HwSub: return fit(x(0) - x(1));
      case OpKind::HwMul: return fit(x(0) * x(1));
      case OpKind::HwDiv:
      case OpKind::HwRem:
        // Truncating division; the remainder takes the dividend's sign.
        if (in[1].isZero())
            return std::nullopt;
        return fit(shape.kind == OpKind::HwDiv ? x(0).sdiv(x(1))
                                               : x(0).srem(x(1)));
      case OpKind::HwShl:
        return fit(x(0).shl(amount(in[1], in[0].width())));
      case OpKind::HwShr:
        return fit(x(0).ashr(amount(in[1], in[0].width())));
      case OpKind::HwAnd: return fit(x(0) & x(1));
      case OpKind::HwOr: return fit(x(0) | x(1));
      case OpKind::HwXor: return fit(x(0) ^ x(1));
      case OpKind::HwNot: return fit(~x(0));
      case OpKind::HwICmp: {
        // The operands' values decide; the predicate's own signedness
        // does not.
        ApInt a = x(0), b = x(1);
        bool holds = false;
        switch (shape.pred) {
          case ICmpPred::Eq: holds = a == b; break;
          case ICmpPred::Ne: holds = a != b; break;
          case ICmpPred::Ult: case ICmpPred::Slt: holds = a.slt(b); break;
          case ICmpPred::Ule: case ICmpPred::Sle: holds = a.sle(b); break;
          case ICmpPred::Ugt: case ICmpPred::Sgt: holds = a.sgt(b); break;
          case ICmpPred::Uge: case ICmpPred::Sge: holds = a.sge(b); break;
        }
        return ApInt(1, holds);
      }
      case OpKind::HwMux: return in[0].isZero() ? in[2] : in[1];
      case OpKind::CoredslCast: return fit(x(0));
      case OpKind::CoredslConcat:
        return fit(in[0].zext(wide).shl(in[1].width()) |
                   in[1].zext(wide));
      case OpKind::CoredslExtract:
        return fit(in[0].zext(wide).lshr(shape.lo));
      case OpKind::CoredslRom: {
        uint64_t index = in.empty() ? 0
                         : in[0].activeBits() > 63 ? shape.rom.size()
                                                   : in[0].toUint64();
        return index < shape.rom.size() ? shape.rom[index]
                                        : ApInt(rw, 0);
      }
      default: break;
    }
    ADD_FAILURE() << "no reference for " << ir::opKindName(shape.kind);
    return std::nullopt;
}

/** A one-instruction HIR module applying @p shape to the custom
 * registers A, B, C and writing register R, lowered to LIL. */
class Harness
{
  public:
    explicit Harness(const Shape &shape)
    {
        const char *names[] = {"A", "B", "C"};
        for (unsigned i = 0; i < shape.operands.size(); ++i)
            addRegister(names[i], shape.operands[i]);
        addRegister("R", shape.result);
        info_.name = "t";
        info_.maskString = std::string(32, '-');
        instr_.name = "t";
        instr_.info = &info_;

        ir::Graph &g = instr_.body;
        std::vector<ir::Value *> operands;
        for (unsigned i = 0; i < shape.operands.size(); ++i) {
            ir::Operation *get = g.append(OpKind::CoredslGet, {},
                                          {shape.operands[i]});
            get->setAttr("state", std::string(names[i]));
            operands.push_back(get->result());
        }
        op_ = g.append(shape.kind, operands, {shape.result});
        if (shape.kind == OpKind::HwICmp)
            op_->setAttr("pred", int64_t(shape.pred));
        if (shape.kind == OpKind::CoredslExtract)
            op_->setAttr("lo", int64_t(shape.lo));
        if (shape.kind == OpKind::HwConstant)
            op_->setAttr("value", shape.value);
        if (shape.kind == OpKind::CoredslRom)
            op_->setAttr("values", shape.rom);
        ir::Operation *pred = g.append(OpKind::HwConstant, {},
                                       {WireType(1)});
        pred->setAttr("value", ApInt(1, 1));
        ir::Operation *set = g.append(OpKind::CoredslSet,
                                      {op_->result(), pred->result()}, {});
        set->setAttr("state", std::string("R"));
        g.append(OpKind::CoredslEnd, {}, {});

        DiagnosticEngine diags;
        lil_ = lil::lowerInstructionToLil(isa_, instr_, diags);
        EXPECT_TRUE(lil_) << shape.str();
    }

    std::optional<ApInt>
    evaluate(const std::vector<ApInt> &in) const
    {
        return ir::evaluate(*op_, in);
    }

    /** The value the lowered graph writes to R. */
    std::optional<ApInt>
    interpret(const std::vector<ApInt> &in) const
    {
        if (!lil_)
            return std::nullopt;
        lil::InterpInput input;
        const char *names[] = {"A", "B", "C"};
        for (unsigned i = 0; i < in.size(); ++i)
            input.custRegs[names[i]] = {in[i]};
        lil::InterpResult result = lil::interpret(*lil_, input);
        auto it = result.custWrites.find("R");
        if (it == result.custWrites.end() || !it->second.enabled)
            return std::nullopt;
        return it->second.value;
    }

  private:
    void
    addRegister(const char *name, WireType type)
    {
        coredsl::StateInfo state;
        state.name = name;
        state.elementType = coredsl::Type(type.isSigned, type.width);
        isa_.state.push_back(state);
    }

    coredsl::ElaboratedIsa isa_;
    coredsl::InstrInfo info_;
    hir::HirInstruction instr_;
    ir::Operation *op_ = nullptr;
    std::unique_ptr<lil::LilGraph> lil_;
};

std::string
hex(const std::optional<ApInt> &v)
{
    if (!v)
        return "none";
    return "i" + std::to_string(v->width()) + " 0x" +
           v->toStringUnsigned(16);
}

bool
same(const std::optional<ApInt> &a, const std::optional<ApInt> &b)
{
    return a.has_value() == b.has_value() &&
           (!a || (a->width() == b->width() && *a == *b));
}

/** The shapes a row is exercised with. */
std::vector<Shape>
shapesOf(OpKind kind, std::mt19937_64 &rng)
{
    std::vector<Shape> out;
    auto binary = [&](std::optional<BinOp> op, WireType a, WireType b) {
        Shape s{kind, {a, b}, a};
        if (op) {
            coredsl::Type rt = coredsl::resultType(
                *op, coredsl::Type(a.isSigned, a.width),
                coredsl::Type(b.isSigned, b.width));
            s.result = WireType(rt.width, rt.isSigned);
        }
        return s;
    };
    std::optional<BinOp> binop;
    switch (kind) {
      case OpKind::HwAdd: binop = BinOp::Add; break;
      case OpKind::HwSub: binop = BinOp::Sub; break;
      case OpKind::HwMul: binop = BinOp::Mul; break;
      case OpKind::HwDiv: binop = BinOp::Div; break;
      case OpKind::HwRem: binop = BinOp::Rem; break;
      case OpKind::HwShl: binop = BinOp::Shl; break;
      case OpKind::HwShr: binop = BinOp::Shr; break;
      case OpKind::HwAnd: binop = BinOp::And; break;
      case OpKind::HwOr: binop = BinOp::Or; break;
      case OpKind::HwXor: binop = BinOp::Xor; break;
      case OpKind::HwICmp: binop = BinOp::Lt; break;
      default: break;
    }
    for (unsigned wa : widths) {
        for (bool sa : {false, true}) {
            WireType a(wa, sa);
            switch (kind) {
              case OpKind::HwConstant:
                for (const ApInt &v : samples(wa, rng)) {
                    Shape s{kind, {}, a};
                    s.value = v;
                    out.push_back(s);
                }
                continue;
              case OpKind::HwNot:
                out.push_back({kind, {a}, a});
                continue;
              case OpKind::HwMux:
                out.push_back({kind, {WireType(1), a, a}, a});
                continue;
              case OpKind::CoredslExtract:
                for (auto [lo, count] :
                     {std::pair{0u, wa}, {0u, 1u}, {wa - 1, 1u},
                      {wa / 2, wa - wa / 2}}) {
                    Shape s{kind, {a}, WireType(count)};
                    s.lo = lo;
                    out.push_back(s);
                }
                continue;
              case OpKind::CoredslRom: {
                Shape s{kind, {a}, WireType(widths[wa % 11], sa)};
                for (unsigned i = 0; i < 5; ++i)
                    s.rom.push_back(randomValue(s.result.width, rng));
                out.push_back(s);
                s.operands.clear(); // a ROM without an index: entry 0
                out.push_back(s);
                continue;
              }
              default: break;
            }
            for (unsigned wb : widths) {
                for (bool sb : {false, true}) {
                    WireType b(wb, sb);
                    if (kind == OpKind::CoredslCast) {
                        out.push_back({kind, {a}, b});
                    } else if (kind == OpKind::CoredslConcat) {
                        out.push_back({kind, {a, b}, WireType(wa + wb)});
                    } else if (kind == OpKind::HwICmp) {
                        // Both spellings of every predicate.
                        for (int p = 0; p <= int(ICmpPred::Sge); ++p) {
                            Shape s = binary(binop, a, b);
                            s.pred = ICmpPred(p);
                            out.push_back(s);
                        }
                    } else {
                        out.push_back(binary(binop, a, b));
                    }
                }
            }
        }
    }
    return out;
}

/** Every operand tuple a shape is evaluated on. */
std::vector<std::vector<ApInt>>
inputsOf(const Shape &shape, std::mt19937_64 &rng)
{
    std::vector<std::vector<ApInt>> tuples = {{}};
    for (const WireType &t : shape.operands) {
        std::vector<ApInt> values = samples(t.width, rng);
        if (shape.kind == OpKind::CoredslRom) // in-range indices too
            for (uint64_t i : {2, 4, 5})
                if (t.width > 2)
                    values.push_back(ApInt(t.width, i));
        std::vector<std::vector<ApInt>> next;
        for (const auto &tuple : tuples) {
            for (const ApInt &v : values) {
                next.push_back(tuple);
                next.back().push_back(v);
            }
        }
        tuples = std::move(next);
    }
    return tuples;
}

std::vector<OpKind>
pureHirOps()
{
    std::vector<OpKind> out;
    for (int k = 0; k <= int(OpKind::HwMux); ++k)
        if (ir::isPureComputation(OpKind(k)))
            out.push_back(OpKind(k));
    return out;
}

class HirRowTest : public ::testing::TestWithParam<OpKind>
{
};

TEST_P(HirRowTest, EvaluateLoweringAndReferenceAgree)
{
    std::mt19937_64 rng(0x4c4e4849 + int(GetParam()));
    unsigned checked = 0, failures = 0;
    for (const Shape &shape : shapesOf(GetParam(), rng)) {
        Harness harness(shape);
        for (const auto &in : inputsOf(shape, rng)) {
            std::optional<ApInt> want = reference(shape, in);
            std::optional<ApInt> folded = harness.evaluate(in);
            std::optional<ApInt> lowered = harness.interpret(in);
            // A zero divisor: no folded value, and the lowered logic
            // yields 0.
            std::optional<ApInt> want_lowered =
                want ? want : ApInt(shape.result.width, 0);
            ++checked;
            if (same(want, folded) && same(want_lowered, lowered))
                continue;
            std::string operands;
            for (const ApInt &v : in)
                operands += " " + hex(v);
            ADD_FAILURE() << shape.str() << " on" << operands
                          << ": reference " << hex(want)
                          << ", ir::evaluate " << hex(folded)
                          << ", lowered " << hex(lowered);
            if (++failures == 5)
                return;
        }
    }
    EXPECT_GT(checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Table, HirRowTest, ::testing::ValuesIn(pureHirOps()),
    [](const ::testing::TestParamInfo<OpKind> &info) {
        std::string name = ir::opKindName(info.param);
        std::replace(name.begin(), name.end(), '.', '_');
        return name;
    });

TEST(HirTable, PureRows)
{
    // 4 of the 11 coredsl ops and 14 hwarith ops compute a value.
    EXPECT_EQ(pureHirOps().size(), 18u);
}

// ---------------------------------------------------------------------------
// End to end: the quotient is narrower than the divisor
// ---------------------------------------------------------------------------

const char *narrowQuotientSource = R"(
import "RV32I.core_desc"

InstructionSet X_NARROWDIV extends RV32I {
    instructions {
        divu8 {
            encoding: 7'd0 :: rs2[4:0] :: rs1[4:0] ::
                      3'd0 :: rd[4:0] :: 7'b0001011;
            behavior: {
                unsigned<8> a = X[rs1][7:0];
                unsigned<16> b = X[rs2][15:0];
                X[rd] = a / b;
            }
        }
        divs8 {
            encoding: 7'd1 :: rs2[4:0] :: rs1[4:0] ::
                      3'd0 :: rd[4:0] :: 7'b0001011;
            behavior: {
                signed<8> a = (signed<8>) X[rs1][7:0];
                unsigned<16> b = X[rs2][15:0];
                X[rd] = (unsigned<32>) (a / b);
            }
        }
    }
}
)";

struct NarrowDivCase
{
    const char *core;
    bool optimized; ///< -O1 --validate, else -O0
};

void
PrintTo(const NarrowDivCase &c, std::ostream *os)
{
    *os << c.core << (c.optimized ? " -O1 --validate" : " -O0");
}

class NarrowQuotientTest : public ::testing::TestWithParam<NarrowDivCase>
{
};

TEST_P(NarrowQuotientTest, DivisorIsNotTruncated)
{
    driver::CompileOptions options;
    options.coreName = GetParam().core;
    options.optLevel = GetParam().optimized ? 1 : 0;
    options.validate = GetParam().optimized;
    driver::CompiledIsax compiled =
        driver::compile(narrowQuotientSource, "", options);
    ASSERT_TRUE(compiled.ok()) << compiled.errors;
    rvasm::Assembler as;
    driver::registerIsaxMnemonics(as, *compiled.isa);
    rvasm::Program program = as.assemble(R"(
        li a0, 200
        li a1, 257
        divu8 a2, a0, a1
        divs8 a3, a0, a1
        li a4, 13
        divu8 a5, a0, a4
        divs8 a6, a0, a4
        ecall
    )", 0);
    ASSERT_TRUE(program.ok) << program.error;

    cores::Core core(scaiev::Datasheet::forCore(compiled.coreName), {});
    core.attachIsax(compiled.makeBundle());
    core.loadProgram(program.words, 0);
    ASSERT_TRUE(core.run().halted);
    driver::GoldenModel golden(compiled);
    golden.loadProgram(program.words, 0);
    golden.run();

    // 200 / 257 and (-56) / 257 are 0; the low byte of 257 would
    // give 200 and -56.
    EXPECT_EQ(core.reg(12), 0u);
    EXPECT_EQ(core.reg(13), 0u);
    EXPECT_EQ(core.reg(15), 15u);         // 200 / 13
    EXPECT_EQ(core.reg(16), uint32_t(-4)); // -56 / 13, truncating
    for (unsigned r = 12; r <= 16; ++r)
        EXPECT_EQ(core.reg(r), golden.reg(r)) << "x" << r;
}

std::vector<NarrowDivCase>
narrowDivCases()
{
    std::vector<NarrowDivCase> out;
    for (const char *core : {"ORCA", "Piccolo", "PicoRV32", "VexRiscv"})
        for (bool optimized : {false, true})
            out.push_back({core, optimized});
    return out;
}

INSTANTIATE_TEST_SUITE_P(
    Cores, NarrowQuotientTest, ::testing::ValuesIn(narrowDivCases()),
    [](const ::testing::TestParamInfo<NarrowDivCase> &info) {
        return std::string(info.param.core) +
               (info.param.optimized ? "_O1_validate" : "_O0");
    });

} // namespace
