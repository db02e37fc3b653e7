/** @file Tests for the forward dataflow engine and its lattices. */

#include <gtest/gtest.h>

#include "analysis/dataflow.hh"
#include "ir/ir.hh"

using namespace longnail;
using namespace longnail::ir;
using namespace longnail::analysis;

namespace {

Operation *
hwConstant(Graph &g, unsigned width, uint64_t value)
{
    Operation *c = g.append(OpKind::HwConstant, {}, {WireType(width)});
    c->setAttr("value", ApInt(width, value));
    return c;
}

/** An unknown unsigned value of @p width bits (an encoding field). */
Operation *
unknownField(Graph &g, unsigned width)
{
    Operation *f = g.append(OpKind::CoredslField, {}, {WireType(width)});
    f->setAttr("field", std::string("uimm"));
    return f;
}

} // namespace

TEST(ValueRangeTest, MaxForSaturates)
{
    EXPECT_EQ(ValueRange::maxFor(1), 1u);
    EXPECT_EQ(ValueRange::maxFor(8), 255u);
    EXPECT_EQ(ValueRange::maxFor(32), 0xffffffffu);
    EXPECT_EQ(ValueRange::maxFor(64), UINT64_MAX);
    EXPECT_EQ(ValueRange::maxFor(128), UINT64_MAX);
}

TEST(ValueRangeTest, ExactSetsBounds)
{
    ValueRange r = ValueRange::exact(ApInt(8, 42));
    ASSERT_TRUE(r.constant.has_value());
    EXPECT_EQ(r.umin, 42u);
    EXPECT_EQ(r.umax, 42u);
}

TEST(RangeLatticeTest, ConstantsPropagateThroughArithmetic)
{
    Graph g;
    Operation *a = hwConstant(g, 8, 3);
    Operation *b = hwConstant(g, 8, 4);
    Operation *add = g.append(OpKind::HwAdd,
                              {a->result(), b->result()},
                              {WireType(9)});
    auto ranges = computeRanges(g);
    auto it = ranges.find(add->result());
    ASSERT_NE(it, ranges.end());
    ASSERT_TRUE(it->second.constant.has_value());
    EXPECT_EQ(it->second.constant->toUint64(), 7u);
}

TEST(RangeLatticeTest, AddOfFieldAndConstantGivesBounds)
{
    // field(4 bits) + 16 with a wide-enough result: [16, 31], no wrap.
    Graph g;
    Operation *field = unknownField(g, 4);
    Operation *offset = hwConstant(g, 8, 16);
    Operation *add = g.append(OpKind::HwAdd,
                              {field->result(), offset->result()},
                              {WireType(9)});
    auto ranges = computeRanges(g);
    auto it = ranges.find(add->result());
    ASSERT_NE(it, ranges.end());
    EXPECT_FALSE(it->second.constant.has_value());
    EXPECT_EQ(it->second.umin, 16u);
    EXPECT_EQ(it->second.umax, 31u);
}

TEST(RangeLatticeTest, MuxJoinsArms)
{
    Graph g;
    Operation *cond = unknownField(g, 1);
    Operation *a = hwConstant(g, 8, 10);
    Operation *b = hwConstant(g, 8, 20);
    Operation *mux = g.append(
        OpKind::HwMux,
        {cond->result(), a->result(), b->result()}, {WireType(8)});
    auto ranges = computeRanges(g);
    auto it = ranges.find(mux->result());
    ASSERT_NE(it, ranges.end());
    EXPECT_FALSE(it->second.constant.has_value());
    EXPECT_EQ(it->second.umin, 10u);
    EXPECT_EQ(it->second.umax, 20u);
}

TEST(RangeLatticeTest, IcmpOnDisjointRangesFolds)
{
    // field(4 bits) <= 15 < 40, so `field > 40` is always false.
    Graph g;
    Operation *field = unknownField(g, 4);
    Operation *limit = hwConstant(g, 8, 40);
    Operation *cmp = g.append(OpKind::HwICmp,
                              {field->result(), limit->result()},
                              {WireType(1)});
    cmp->setAttr("pred", int64_t(ICmpPred::Ugt));
    auto ranges = computeRanges(g);
    auto it = ranges.find(cmp->result());
    ASSERT_NE(it, ranges.end());
    EXPECT_TRUE(it->second.isConstZero());
}

TEST(IcmpOutcomeTest, DecidesUnsignedOrderings)
{
    ValueRange small = ValueRange::full(8);
    small.umin = 0;
    small.umax = 15;
    ValueRange big = ValueRange::full(8);
    big.umin = 100;
    big.umax = 200;

    EXPECT_EQ(icmpOutcome(ICmpPred::Ult, small, big),
              std::optional<bool>(true));
    EXPECT_EQ(icmpOutcome(ICmpPred::Ugt, small, big),
              std::optional<bool>(false));
    EXPECT_EQ(icmpOutcome(ICmpPred::Eq, small, big),
              std::optional<bool>(false));
    EXPECT_EQ(icmpOutcome(ICmpPred::Ne, small, big),
              std::optional<bool>(true));

    // Overlapping ranges decide nothing.
    ValueRange mid = ValueRange::full(8);
    mid.umin = 10;
    mid.umax = 120;
    EXPECT_EQ(icmpOutcome(ICmpPred::Ult, small, mid), std::nullopt);
}

TEST(IcmpOutcomeTest, UnboundedUpperBoundDecidesNothing)
{
    // A 64+ bit value saturates to umax == UINT64_MAX, which must
    // never be used as evidence.
    ValueRange wide = ValueRange::full(128);
    ValueRange small = ValueRange::full(8);
    small.umax = 15;
    EXPECT_EQ(icmpOutcome(ICmpPred::Ult, wide, small), std::nullopt);
    EXPECT_EQ(icmpOutcome(ICmpPred::Ugt, wide, small), std::nullopt);
}

TEST(IcmpOutcomeTest, ConstantsUseExactComparison)
{
    ValueRange a = ValueRange::exact(ApInt(8, 5));
    ValueRange b = ValueRange::exact(ApInt(8, 5));
    EXPECT_EQ(icmpOutcome(ICmpPred::Eq, a, b),
              std::optional<bool>(true));
    EXPECT_EQ(icmpOutcome(ICmpPred::Ult, a, b),
              std::optional<bool>(false));
}

TEST(InitLatticeTest, TaintFlowsToStateUpdates)
{
    Graph g;
    Operation *read = g.append(OpKind::LilReadCustReg, {},
                               {WireType(32)});
    read->setAttr("reg", std::string("STALE"));
    Operation *one = g.append(OpKind::CombConstant, {}, {WireType(32)});
    one->setAttr("value", ApInt(32, 1));
    Operation *add = g.append(OpKind::CombAdd,
                              {read->result(), one->result()},
                              {WireType(32)});

    InitLattice lattice({read});
    auto states = ForwardDataflow<InitState>(lattice).run(g);

    auto it = states.find(add->result());
    ASSERT_NE(it, states.end());
    EXPECT_TRUE(it->second.maybeUninit);
    auto clean = states.find(one->result());
    ASSERT_NE(clean, states.end());
    EXPECT_FALSE(clean->second.maybeUninit);
}

TEST(RangeLatticeTest, TruncationEvidenceSurvivesCast)
{
    // The LN4101 scenario: (unsigned<8>)(field + 256) — the operand is
    // provably >= 256, so the low 8 bits always lose information.
    Graph g;
    Operation *field = unknownField(g, 12);
    Operation *offset = hwConstant(g, 13, 256);
    Operation *add = g.append(OpKind::HwAdd,
                              {field->result(), offset->result()},
                              {WireType(14)});
    auto ranges = computeRanges(g);
    auto it = ranges.find(add->result());
    ASSERT_NE(it, ranges.end());
    EXPECT_GE(it->second.umin, 256u);
    EXPECT_GT(it->second.umin, ValueRange::maxFor(8));
}

TEST(RangeLatticeTest, SpawnValuesWithRepeatedIdsKeepTheirOwnStates)
{
    // A spawn subgraph counts value ids from 0 again, so the engine
    // numbers values itself: the inner constant shares its id with the
    // outer one but not its state.
    Graph g;
    Operation *outer = hwConstant(g, 8, 5);
    Operation *spawn = g.appendWithSubgraph(OpKind::CoredslSpawn);
    Operation *inner = hwConstant(*spawn->subgraph(), 8, 7);
    Operation *sum = spawn->subgraph()->append(
        OpKind::HwAdd, {outer->result(), inner->result()}, {WireType(9)});
    ASSERT_EQ(outer->result()->id, inner->result()->id);

    auto ranges = computeRanges(g);
    auto o = ranges.find(outer->result());
    auto i = ranges.find(inner->result());
    auto s = ranges.find(sum->result());
    ASSERT_NE(o, ranges.end());
    ASSERT_NE(i, ranges.end());
    ASSERT_NE(s, ranges.end());
    EXPECT_EQ(o->first, outer->result());
    EXPECT_EQ(o->second.umax, 5u);
    EXPECT_EQ(i->second.umax, 7u);
    ASSERT_TRUE(s->second.constant.has_value());
    EXPECT_EQ(s->second.constant->toUint64(), 12u);

    Value foreign;
    EXPECT_EQ(ranges.find(&foreign), ranges.end());
}
