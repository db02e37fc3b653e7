/** @file Tests for the structural IR verifier (analysis/verifier.hh). */

#include <gtest/gtest.h>

#include <future>
#include <thread>

#include "analysis/verifier.hh"
#include "hir/transforms.hh"
#include "ir/ir.hh"

using namespace longnail;
using namespace longnail::ir;
using namespace longnail::analysis;

namespace {

bool
hasCode(const std::vector<VerifyIssue> &issues, const std::string &code)
{
    for (const auto &issue : issues)
        if (issue.code == code)
            return true;
    return false;
}

Operation *
hwConstant(Graph &g, unsigned width, uint64_t value)
{
    Operation *c = g.append(OpKind::HwConstant, {}, {WireType(width)});
    c->setAttr("value", ApInt(width, value));
    return c;
}

} // namespace

TEST(Verifier, CleanGraphHasNoIssues)
{
    Graph g;
    Operation *a = hwConstant(g, 8, 3);
    Operation *b = hwConstant(g, 8, 4);
    g.append(OpKind::HwAdd, {a->result(), b->result()}, {WireType(9)});
    EXPECT_TRUE(verifyGraph(g).empty());
}

TEST(Verifier, DetectsUseBeforeDef)
{
    Graph g;
    Graph other;
    Operation *foreign = hwConstant(other, 8, 1);
    g.append(OpKind::HwNot, {foreign->result()}, {WireType(8)});
    auto issues = verifyGraph(g);
    EXPECT_TRUE(hasCode(issues, "LN4001"));
}

TEST(Verifier, DetectsBadArity)
{
    Graph g;
    Operation *a = hwConstant(g, 8, 3);
    g.append(OpKind::HwAdd, {a->result()}, {WireType(9)});
    auto issues = verifyGraph(g);
    EXPECT_TRUE(hasCode(issues, "LN4002"));
}

TEST(Verifier, DetectsConstantWidthMismatch)
{
    Graph g;
    Operation *c = g.append(OpKind::HwConstant, {}, {WireType(8)});
    c->setAttr("value", ApInt(16, 42)); // 16-bit value on an 8-bit wire
    auto issues = verifyGraph(g);
    EXPECT_TRUE(hasCode(issues, "LN4003"));
}

TEST(Verifier, DetectsBitwiseWidthMismatch)
{
    Graph g;
    Operation *a = hwConstant(g, 8, 3);
    Operation *b = hwConstant(g, 4, 1);
    g.append(OpKind::HwAnd, {a->result(), b->result()}, {WireType(8)});
    auto issues = verifyGraph(g);
    EXPECT_TRUE(hasCode(issues, "LN4003"));
}

TEST(Verifier, DetectsMissingIcmpPredicate)
{
    Graph g;
    Operation *a = hwConstant(g, 8, 3);
    Operation *b = hwConstant(g, 8, 4);
    g.append(OpKind::HwICmp, {a->result(), b->result()}, {WireType(1)});
    auto issues = verifyGraph(g);
    EXPECT_TRUE(hasCode(issues, "LN4005"));
}

TEST(Verifier, HwIcmpToleratesMixedOperandWidths)
{
    // hwarith.icmp compares differing widths directly; the LIL
    // lowering widens into a common domain.
    Graph g;
    Operation *a = hwConstant(g, 8, 3);
    Operation *b = hwConstant(g, 12, 4);
    Operation *cmp = g.append(OpKind::HwICmp,
                              {a->result(), b->result()}, {WireType(1)});
    cmp->setAttr("pred", int64_t(ICmpPred::Ult));
    EXPECT_TRUE(verifyGraph(g).empty());
}

TEST(Verifier, CombIcmpRequiresEqualOperandWidths)
{
    Graph g;
    Operation *a = g.append(OpKind::CombConstant, {}, {WireType(8)});
    a->setAttr("value", ApInt(8, 3));
    Operation *b = g.append(OpKind::CombConstant, {}, {WireType(12)});
    b->setAttr("value", ApInt(12, 4));
    Operation *cmp = g.append(OpKind::CombICmp,
                              {a->result(), b->result()}, {WireType(1)});
    cmp->setAttr("pred", int64_t(ICmpPred::Ult));
    auto issues = verifyGraph(g);
    EXPECT_TRUE(hasCode(issues, "LN4003"));
}

TEST(Verifier, DetectsDialectMixing)
{
    Graph g;
    hwConstant(g, 8, 3);
    Operation *b = g.append(OpKind::CombConstant, {}, {WireType(8)});
    b->setAttr("value", ApInt(8, 4));
    auto issues = verifyGraph(g);
    EXPECT_TRUE(hasCode(issues, "LN4006"));
}

TEST(Verifier, DetectsMuxConditionWidth)
{
    Graph g;
    Operation *c = hwConstant(g, 2, 1);
    Operation *a = hwConstant(g, 8, 3);
    Operation *b = hwConstant(g, 8, 4);
    g.append(OpKind::HwMux,
             {c->result(), a->result(), b->result()}, {WireType(8)});
    auto issues = verifyGraph(g);
    EXPECT_TRUE(hasCode(issues, "LN4003"));
}

TEST(Verifier, RequireTerminatorFlagsMissingEnd)
{
    Graph g;
    hwConstant(g, 8, 3);
    VerifyOptions options;
    options.requireTerminator = true;
    auto issues = verifyGraph(g, options);
    EXPECT_TRUE(hasCode(issues, "LN4006"));

    g.append(OpKind::CoredslEnd, {}, {});
    EXPECT_TRUE(verifyGraph(g, options).empty());
}

TEST(Verifier, SubgraphOnlyOnSpawn)
{
    Graph g;
    Operation *op = g.appendWithSubgraph(OpKind::CoredslEnd);
    (void)op;
    auto issues = verifyGraph(g);
    EXPECT_TRUE(hasCode(issues, "LN4005"));
}

TEST(Verifier, SpawnSubgraphSeesOuterDefs)
{
    Graph g;
    Operation *c = hwConstant(g, 8, 1);
    Operation *spawn = g.appendWithSubgraph(OpKind::CoredslSpawn);
    spawn->subgraph()->append(OpKind::HwNot, {c->result()},
                              {WireType(8)});
    EXPECT_TRUE(verifyGraph(g).empty());
}

TEST(Verifier, ScopedVerifyIrControlsTransformChecks)
{
    // A corrupt graph: operand from a different graph.
    Graph g;
    Graph other;
    Operation *foreign = hwConstant(other, 8, 1);
    g.append(OpKind::HwNot, {foreign->result()}, {WireType(8)});

    {
        ScopedVerifyIr enable(true);
        EXPECT_TRUE(verifyIrEnabled());
        EXPECT_THROW(verifyAfterTransform(g, "test"),
                     std::runtime_error);
    }
    {
        ScopedVerifyIr disable(false);
        EXPECT_FALSE(verifyIrEnabled());
        EXPECT_NO_THROW(verifyAfterTransform(g, "test"));
    }
}

TEST(Verifier, ScopedVerifyIrIsPerThread)
{
    // compile() holds a ScopedVerifyIr for CompileOptions::verifyIr on
    // the thread it runs on; concurrent compiles must not see it.
    {
        ScopedVerifyIr enable(true);
        bool seen = true;
        std::thread([&] { seen = verifyIrEnabled(); }).join();
        EXPECT_FALSE(seen) << "another thread saw this thread's scope";
    }
    // A scope that ends on another thread leaves this one in force.
    std::promise<void> entered, release;
    std::thread other([&] {
        ScopedVerifyIr enable(true);
        entered.set_value();
        release.get_future().wait();
    });
    entered.get_future().wait();
    {
        ScopedVerifyIr enable(true);
        release.set_value();
        other.join();
        EXPECT_TRUE(verifyIrEnabled());
    }
    EXPECT_FALSE(verifyIrEnabled());
}

TEST(Verifier, TransformsPreserveValidIr)
{
    ScopedVerifyIr enable(true);
    Graph g;
    Operation *a = hwConstant(g, 8, 3);
    Operation *b = hwConstant(g, 8, 4);
    Operation *add = g.append(OpKind::HwAdd,
                              {a->result(), b->result()},
                              {WireType(9)});
    Operation *keep = g.append(OpKind::HwNot, {add->result()},
                               {WireType(9)});
    (void)keep;
    // canonicalize() runs eliminateDeadCode(), which re-verifies under
    // ScopedVerifyIr; a corrupting rewrite would throw here.
    EXPECT_NO_THROW(hir::canonicalize(g));
    EXPECT_TRUE(verifyGraph(g).empty());
}

// Every interface op has exactly the operands its ir/iface.def row
// names: lowering always builds them, and lil::interpret, hwgen and TV
// index them unconditionally, so a form without its predicate or
// register index is invalid IR (LN4002), not a shorter spelling.
TEST(Verifier, InterfaceOpsRequireTheirFullOperandForm)
{
    struct Form
    {
        OpKind kind;
        unsigned operands; ///< of: 32-bit value, 32-bit value, predicate
        bool valid;
    };
    const Form forms[] = {
        {OpKind::LilWriteRd, 1, false},
        {OpKind::LilWriteRd, 2, true},
        {OpKind::LilWritePC, 1, false},
        {OpKind::LilWritePC, 2, true},
        {OpKind::LilWriteCustRegData, 1, false},
        {OpKind::LilWriteCustRegData, 2, true},
        {OpKind::LilReadMem, 1, false},
        {OpKind::LilReadMem, 2, true},
        {OpKind::LilWriteMem, 2, false},
        {OpKind::LilWriteMem, 3, true},
        {OpKind::LilReadCustReg, 0, false},
        {OpKind::LilReadCustReg, 1, true},
        {OpKind::LilWriteCustRegAddr, 0, false},
        {OpKind::LilWriteCustRegAddr, 1, true},
    };
    VerifyOptions options;
    options.requireTerminator = true;
    for (const Form &form : forms) {
        SCOPED_TRACE(std::string(opKindName(form.kind)) + " with " +
                     std::to_string(form.operands) + " operands");
        Graph g;
        Value *word = g.append(OpKind::LilReadRs1, {}, {WireType(32)})
                          ->result();
        Operation *one = g.append(OpKind::CombConstant, {}, {WireType(1)});
        one->setAttr("value", ApInt(1, 1));
        bool reg = form.kind == OpKind::LilReadCustReg ||
                   form.kind == OpKind::LilWriteCustRegAddr ||
                   form.kind == OpKind::LilWriteCustRegData;
        bool indexed = form.kind == OpKind::LilReadCustReg ||
                       form.kind == OpKind::LilWriteCustRegAddr;
        // The predicate is last; a register index is the only operand.
        std::vector<Value *> operands(form.operands, word);
        if (form.operands && !indexed &&
            form.operands == (form.kind == OpKind::LilWriteMem ? 3u : 2u))
            operands.back() = one->result();
        std::vector<WireType> results;
        if (form.kind == OpKind::LilReadMem ||
            form.kind == OpKind::LilReadCustReg)
            results.push_back(WireType(32));
        Operation *op = g.append(form.kind, operands, results);
        if (reg)
            op->setAttr("reg", std::string("R"));
        g.append(OpKind::LilSink, {}, {});
        auto issues = verifyGraph(g, options);
        if (form.valid)
            EXPECT_TRUE(issues.empty()) << issues.front().message;
        else
            EXPECT_TRUE(hasCode(issues, "LN4002"));
    }
}
