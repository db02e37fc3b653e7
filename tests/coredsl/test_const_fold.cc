/**
 * @file
 * Differential test of CoreDSL constant folding against the HIR op
 * table (ir/hir.def). coredsl::evalConst folds `a OP b` when both
 * operands are compile-time constants (parameters, loop bounds, loop
 * variables); the same expression over run-time operands lowers to
 * HIR ops that ir::evaluate computes. The two must agree.
 *
 * For every pair of operand types (widths 1, 7, 8, 32, 33, 64, 65 and
 * 128, every signedness mix) one instruction assigns `A OP B` for each
 * binary operator to a register of the expression's type. Each
 * statement's right-hand side is folded by evalConst with A and B
 * bound to constants, and the lowered HIR of the instruction is
 * evaluated op by op with ir::evaluate on the same values: edge
 * values, seeded random values, shift amounts at and past the width
 * and zero divisors (which give neither side a value).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "coredsl/sema.hh"
#include "coredsl/types.hh"
#include "hir/astlower.hh"
#include "ir/eval.hh"
#include "ir/hir.hh"

using namespace longnail;
using coredsl::BinOp;
using coredsl::Type;
using coredsl::TypedConst;

namespace {

const unsigned widths[] = {1, 7, 8, 32, 33, 64, 65, 128};

const BinOp binOps[] = {
    BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Rem,
    BinOp::Shl, BinOp::Shr, BinOp::Lt, BinOp::Le, BinOp::Gt,
    BinOp::Ge, BinOp::Eq, BinOp::Ne, BinOp::And, BinOp::Or,
    BinOp::Xor, BinOp::LogicalAnd, BinOp::LogicalOr,
};

std::string
typeName(Type t)
{
    return std::string(t.isSigned ? "signed<" : "unsigned<") +
           std::to_string(t.width) + ">";
}

/** One instruction over registers A and B assigning `A OP B` to
 * register R<i> for the i-th operator of binOps. */
std::string
source(Type a, Type b)
{
    std::string src = "import \"RV32I.core_desc\"\n"
                      "InstructionSet FOLD extends RV32I {\n"
                      "  architectural_state {\n"
                      "    register " + typeName(a) + " A;\n"
                      "    register " + typeName(b) + " B;\n";
    for (size_t i = 0; i < std::size(binOps); ++i)
        src += "    register " +
               typeName(coredsl::resultType(binOps[i], a, b)) + " R" +
               std::to_string(i) + ";\n";
    src += "  }\n  instructions {\n    fold {\n"
           "      encoding: 25'd0 :: 7'b0001011;\n"
           "      behavior: {\n";
    for (size_t i = 0; i < std::size(binOps); ++i)
        src += "        R" + std::to_string(i) + " = A " +
               coredsl::binOpName(binOps[i]) + " B;\n";
    return src + "      }\n    }\n  }\n}\n";
}

ApInt
randomValue(unsigned width, std::mt19937_64 &rng)
{
    ApInt v(width, 0);
    for (unsigned i = 0; i < width; ++i)
        v.setBit(i, rng() & 1);
    return v;
}

/** 0, 1, all ones, the signed extremes and two random values, plus
 * @p extra (truncated to @p width), without repeats. */
std::vector<ApInt>
samples(unsigned width, std::mt19937_64 &rng,
        const std::vector<uint64_t> &extra = {})
{
    std::vector<ApInt> out = {ApInt(width, 0), ApInt(width, 1),
                              ApInt::allOnes(width),
                              ApInt::allOnes(width).lshr(1),
                              ApInt::oneBit(width, width - 1),
                              randomValue(width, rng),
                              randomValue(width, rng)};
    for (uint64_t e : extra)
        out.push_back(ApInt(64, e).zextOrTrunc(width));
    std::vector<ApInt> unique;
    for (const ApInt &v : out)
        if (std::find(unique.begin(), unique.end(), v) == unique.end())
            unique.push_back(v);
    return unique;
}

/**
 * Evaluate the HIR body @p graph with registers A = @p a and
 * B = @p b: every pure op through ir::evaluate. @return the value
 * written to each register; none where an operand had no value.
 */
std::map<std::string, std::optional<ApInt>>
runHir(const ir::Graph &graph, const ApInt &a, const ApInt &b)
{
    std::vector<std::optional<ApInt>> values(graph.valueIdBound());
    std::map<std::string, std::optional<ApInt>> written;
    for (const auto &op : graph.ops()) {
        std::vector<ApInt> in;
        bool known = true;
        for (const ir::Value *v : op->operands()) {
            if (!values[v->id]) {
                known = false;
                break;
            }
            in.push_back(*values[v->id]);
        }
        switch (op->kind()) {
          case ir::OpKind::CoredslGet:
            values[op->result()->id] =
                op->strAttr("state") == "A" ? a : b;
            break;
          case ir::OpKind::CoredslSet:
            // operands: value, pred (always true here)
            EXPECT_EQ(op->numOperands(), 2u);
            written[op->strAttr("state")] =
                known ? std::optional<ApInt>(in[0]) : std::nullopt;
            break;
          case ir::OpKind::CoredslEnd:
            break;
          default:
            EXPECT_TRUE(ir::hirInfo(op->kind())->pure) << op->name();
            if (known)
                values[op->result()->id] = ir::evaluate(*op, in);
            break;
        }
    }
    return written;
}

std::string
hex(const std::optional<ApInt> &v)
{
    if (!v)
        return "none";
    return "i" + std::to_string(v->width()) + " 0x" +
           v->toStringUnsigned(16);
}

} // namespace

TEST(ConstFold, EvalConstAgreesWithTheHirTable)
{
    std::mt19937_64 rng(0x464f4c44); // "FOLD"
    unsigned checked = 0;
    for (unsigned wa : widths) {
        for (unsigned wb : widths) {
            for (int signs = 0; signs < 4; ++signs) {
                Type ta(signs & 1, wa);
                Type tb(signs & 2, wb);
                std::string context = "A: " + typeName(ta) +
                                      ", B: " + typeName(tb);
                DiagnosticEngine diags;
                coredsl::Sema sema(diags, coredsl::builtinSourceProvider());
                auto isa = sema.analyze(source(ta, tb));
                ASSERT_NE(isa, nullptr) << context << "\n" << diags.str();
                const coredsl::InstrInfo *instr =
                    isa->findInstruction("fold");
                ASSERT_NE(instr, nullptr);
                auto hir = hir::lowerInstruction(*isa, *instr, diags);
                ASSERT_NE(hir, nullptr) << context << "\n" << diags.str();

                const auto &body = static_cast<const coredsl::BlockStmt &>(
                    *instr->ast->behavior);
                ASSERT_EQ(body.stmts.size(), std::size(binOps));

                // Shift amounts just below, at and past A's width.
                std::vector<ApInt> as = samples(wa, rng);
                std::vector<ApInt> bs =
                    samples(wb, rng, {wa - 1, wa, wa + 1, 2 * wa});
                for (const ApInt &a : as) {
                    for (const ApInt &b : bs) {
                        auto hir_out = runHir(hir->body, a, b);
                        std::map<std::string, TypedConst> env = {
                            {"A", {a, ta}}, {"B", {b, tb}}};
                        for (size_t i = 0; i < std::size(binOps); ++i) {
                            const auto &stmt =
                                static_cast<const coredsl::ExprStmt &>(
                                    *body.stmts[i]);
                            const auto &assign =
                                static_cast<const coredsl::AssignExpr &>(
                                    *stmt.expr);
                            auto folded = coredsl::evalConst(*assign.rhs, env);
                            std::optional<ApInt> sema_value;
                            if (folded)
                                sema_value = folded->value;
                            const std::optional<ApInt> &hir_value =
                                hir_out["R" + std::to_string(i)];
                            EXPECT_EQ(hex(sema_value), hex(hir_value))
                                << context << ": A=0x"
                                << a.toStringUnsigned(16) << " "
                                << coredsl::binOpName(binOps[i])
                                << " B=0x" << b.toStringUnsigned(16);
                            ++checked;
                        }
                    }
                }
            }
        }
    }
    // 256 type pairs, 18 operators, at least 2 x 2 value pairs each.
    EXPECT_GE(checked, 256u * 18u * 2u * 2u);
}
