/** @file Tests for the IR infrastructure and the pure-op evaluator. */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "ir/eval.hh"
#include "ir/ir.hh"

using namespace longnail;
using namespace longnail::ir;

TEST(Ir, AppendAndResults)
{
    Graph g;
    Operation *c = g.append(OpKind::HwConstant, {}, {WireType(8)});
    c->setAttr("value", ApInt(8, 42));
    EXPECT_EQ(c->numResults(), 1u);
    EXPECT_EQ(c->result()->type.width, 8u);
    EXPECT_EQ(c->result()->owner, c);

    Operation *add = g.append(OpKind::HwAdd,
                              {c->result(), c->result()},
                              {WireType(9)});
    EXPECT_EQ(add->numOperands(), 2u);
    EXPECT_EQ(g.size(), 2u);
    EXPECT_EQ(g.verify(), "");
}

TEST(Ir, VerifyCatchesUseBeforeDef)
{
    Graph g;
    Graph other;
    Operation *c = other.append(OpKind::HwConstant, {}, {WireType(8)});
    c->setAttr("value", ApInt(8, 1));
    g.append(OpKind::HwNot, {c->result()}, {WireType(8)});
    EXPECT_NE(g.verify(), "");
}

TEST(Ir, SubgraphSeesOuterValues)
{
    Graph g;
    Operation *c = g.append(OpKind::HwConstant, {}, {WireType(8)});
    c->setAttr("value", ApInt(8, 1));
    Operation *spawn = g.appendWithSubgraph(OpKind::CoredslSpawn);
    spawn->subgraph()->append(OpKind::HwNot, {c->result()},
                              {WireType(8)});
    EXPECT_EQ(g.verify(), "");
}

TEST(Ir, ValueIdsAreUniqueBelowTheGraphCounter)
{
    Graph g;
    Operation *a = g.append(OpKind::HwConstant, {}, {WireType(8)});
    a->setAttr("value", ApInt(8, 1));
    Operation *b = g.append(OpKind::HwConstant, {}, {WireType(8)});
    b->setAttr("value", ApInt(8, 2));
    EXPECT_EQ(a->result()->id, 0u);
    EXPECT_EQ(b->result()->id, 1u);
    EXPECT_EQ(g.valueIdBound(), 2u);
    // A spawn subgraph counts from 0 again; that is no duplicate.
    Operation *spawn = g.appendWithSubgraph(OpKind::CoredslSpawn);
    Operation *inner = spawn->subgraph()->append(
        OpKind::HwNot, {a->result()}, {WireType(8)});
    EXPECT_EQ(inner->result()->id, 0u);
    EXPECT_EQ(g.verify(), "");

    b->result()->id = 0;
    EXPECT_NE(g.verify().find("reuses an id"), std::string::npos)
        << g.verify();
    b->result()->id = 2;
    EXPECT_NE(g.verify().find("past the graph's counter"),
              std::string::npos)
        << g.verify();
}

TEST(Ir, ValueNumberingNumbersInInsertionOrder)
{
    Graph g;
    std::vector<Value *> values;
    for (unsigned i = 0; i < 100; ++i)
        values.push_back(
            g.append(OpKind::LilReadRs1, {}, {WireType(32)})->result());
    ValueNumbering numbers;
    for (unsigned i = 0; i < 100; ++i) {
        auto [n, inserted] = numbers.insert(values[99 - i]);
        EXPECT_EQ(n, i);
        EXPECT_TRUE(inserted);
    }
    EXPECT_EQ(numbers.insert(values[99]), std::make_pair(0u, false));
    EXPECT_EQ(numbers.size(), 100u);
    for (unsigned i = 0; i < 100; ++i)
        EXPECT_EQ(numbers.find(values[i]), 99 - i);
    Value outside;
    EXPECT_EQ(numbers.find(&outside), ValueNumbering::none);
    EXPECT_FALSE(numbers.count(&outside));
    EXPECT_EQ(ValueNumbering().find(values[0]), ValueNumbering::none);

    // Only operands count as used.
    g.append(OpKind::CombAdd, {values[3], values[7]}, {WireType(32)});
    ValueNumbering used = usedValues(g);
    EXPECT_EQ(used.size(), 2u);
    EXPECT_TRUE(used.count(values[3]));
    EXPECT_TRUE(used.count(values[7]));
    EXPECT_FALSE(used.count(values[4]));
}

TEST(Ir, MorphToConstantKeepsUsers)
{
    Graph g;
    Operation *c = g.append(OpKind::HwConstant, {}, {WireType(8)});
    c->setAttr("value", ApInt(8, 3));
    Operation *add = g.append(OpKind::HwAdd,
                              {c->result(), c->result()}, {WireType(9)});
    Operation *user = g.append(OpKind::HwNot, {add->result()},
                               {WireType(9)});
    add->morphToConstant(ApInt(9, 6), false);
    EXPECT_EQ(add->kind(), OpKind::HwConstant);
    EXPECT_EQ(user->operand(0), add->result());
    EXPECT_EQ(g.verify(), "");
}

TEST(Ir, PrintContainsOpsAndValues)
{
    Graph g;
    Operation *w = g.append(OpKind::LilInstrWord, {}, {WireType(32)});
    Operation *ext = g.append(OpKind::CombExtract, {w->result()},
                              {WireType(12)});
    ext->setAttr("lo", int64_t(20));
    g.append(OpKind::LilSink, {}, {});
    std::string text = g.print();
    EXPECT_NE(text.find("lil.instr_word"), std::string::npos);
    EXPECT_NE(text.find("comb.extract"), std::string::npos);
    EXPECT_NE(text.find("lo = 20"), std::string::npos);
    EXPECT_NE(text.find("lil.sink"), std::string::npos);
}

TEST(Ir, InterfaceOpClassification)
{
    EXPECT_TRUE(isInterfaceOp(OpKind::LilReadRs1));
    EXPECT_TRUE(isInterfaceOp(OpKind::LilWriteRd));
    EXPECT_FALSE(isInterfaceOp(OpKind::CombAdd));
    EXPECT_TRUE(isStateUpdateOp(OpKind::LilWritePC));
    EXPECT_FALSE(isStateUpdateOp(OpKind::LilReadPC));
}

// ---------------------------------------------------------------------------
// Evaluator
// ---------------------------------------------------------------------------

namespace {

/** Build a one-op graph and evaluate it. */
ApInt
evalBin(OpKind kind, WireType lt, uint64_t l, WireType rt, uint64_t r,
        WireType result)
{
    Graph g;
    Operation *lc = g.append(OpKind::HwConstant, {}, {lt});
    Operation *rc = g.append(OpKind::HwConstant, {}, {rt});
    Operation *op = g.append(kind, {lc->result(), rc->result()},
                             {result});
    auto v = evaluate(*op, {ApInt(lt.width, l), ApInt(rt.width, r)});
    EXPECT_TRUE(v.has_value());
    return *v;
}

} // namespace

TEST(Eval, HwAddMixedSign)
{
    // ui32 + si12 at si34: 10 + (-3) = 7.
    ApInt r = evalBin(OpKind::HwAdd, WireType(32, false), 10,
                      WireType(12, true), 0xffd /* -3 */,
                      WireType(34, true));
    EXPECT_EQ(r.toInt64(), 7);
}

TEST(Eval, HwMulSigned)
{
    // si16 * si16 at si32: -300 * 200 = -60000.
    ApInt r = evalBin(OpKind::HwMul, WireType(16, true),
                      uint64_t(int64_t(-300)) & 0xffff,
                      WireType(16, true), 200, WireType(32, true));
    EXPECT_EQ(r.toInt64(), -60000);
}

TEST(Eval, HwICmpSigned)
{
    Graph g;
    Operation *lc = g.append(OpKind::HwConstant, {}, {WireType(8, true)});
    Operation *rc = g.append(OpKind::HwConstant, {},
                             {WireType(8, false)});
    Operation *cmp = g.append(OpKind::HwICmp,
                              {lc->result(), rc->result()},
                              {WireType(1)});
    cmp->setAttr("pred", int64_t(ICmpPred::Slt));
    // -1 (si8) < 200 (ui8): true when compared in the common type.
    auto v = evaluate(*cmp, {ApInt(8, 0xff), ApInt(8, 200)});
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->toUint64(), 1u);
}

TEST(Eval, CastSignExtends)
{
    Graph g;
    Operation *c = g.append(OpKind::HwConstant, {}, {WireType(4, true)});
    Operation *cast = g.append(OpKind::CoredslCast, {c->result()},
                               {WireType(8, true)});
    auto v = evaluate(*cast, {ApInt(4, 0b1000)}); // -8
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->toInt64(), -8);
}

TEST(Eval, DivByZeroIsUndefined)
{
    Graph g;
    Operation *lc = g.append(OpKind::CombConstant, {}, {WireType(8)});
    Operation *rc = g.append(OpKind::CombConstant, {}, {WireType(8)});
    Operation *div = g.append(OpKind::CombDivU,
                              {lc->result(), rc->result()},
                              {WireType(8)});
    EXPECT_FALSE(evaluate(*div, {ApInt(8, 7), ApInt(8, 0)}).has_value());
}

TEST(Eval, RomLookup)
{
    Graph g;
    Operation *idx = g.append(OpKind::CombConstant, {}, {WireType(2)});
    Operation *rom = g.append(OpKind::CombRom, {idx->result()},
                              {WireType(8)});
    rom->setAttr("values", std::vector<ApInt>{ApInt(8, 10), ApInt(8, 20),
                                              ApInt(8, 30), ApInt(8, 40)});
    auto v = evaluate(*rom, {ApInt(2, 2)});
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->toUint64(), 30u);
}

TEST(Eval, CombExtractConcatReplicate)
{
    Graph g;
    Operation *c = g.append(OpKind::CombConstant, {}, {WireType(16)});
    Operation *ext = g.append(OpKind::CombExtract, {c->result()},
                              {WireType(8)});
    ext->setAttr("lo", int64_t(4));
    auto v = evaluate(*ext, {ApInt(16, 0xabcd)});
    EXPECT_EQ(v->toUint64(), 0xbcu);

    Operation *bit = g.append(OpKind::CombConstant, {}, {WireType(1)});
    Operation *rep = g.append(OpKind::CombReplicate, {bit->result()},
                              {WireType(20)});
    EXPECT_TRUE(evaluate(*rep, {ApInt(1, 1)})->isAllOnes());
    EXPECT_TRUE(evaluate(*rep, {ApInt(1, 0)})->isZero());
}

TEST(Eval, ImpureOpsReturnNullopt)
{
    Graph g;
    Operation *rs1 = g.append(OpKind::LilReadRs1, {}, {WireType(32)});
    EXPECT_FALSE(evaluate(*rs1, {}).has_value());
}
