#include "analysis/verifier.hh"

#include <set>
#include <sstream>
#include <stdexcept>

#include "ir/hir.hh"
#include "ir/iface.hh"

namespace longnail {
namespace analysis {

namespace {

using ir::Graph;
using ir::OpKind;
using ir::Operation;
using ir::Value;

/** The two dialect levels a behavior graph can live at. */
enum class Level { Unknown, Hir, Lil };

Level
levelOf(OpKind kind)
{
    return ir::hirInfo(kind) ? Level::Hir : Level::Lil;
}

class GraphVerifier
{
  public:
    explicit GraphVerifier(const VerifyOptions &options)
        : options_(options)
    {}

    std::vector<VerifyIssue>
    run(const Graph &graph)
    {
        verifyGraphOps(graph, nullptr);
        if (options_.requireTerminator)
            verifyTerminator(graph);
        return std::move(issues_);
    }

  private:
    void
    issue(const Operation &op, const char *code, const std::string &msg)
    {
        issues_.push_back(
            {code, op.loc(), std::string(op.name()) + ": " + msg});
    }

    // --- LN4001: SSA structure ---------------------------------------

    void
    verifyGraphOps(const Graph &graph, const Graph *outer)
    {
        // Because a graph is an ordered op list and operands must be
        // defined by earlier ops (of this graph or the enclosing
        // prefix), passing this check also proves the combinational
        // dataflow is acyclic.
        std::set<const Value *> defined;
        if (outer)
            for (const auto &op : outer->ops())
                for (unsigned i = 0; i < op->numResults(); ++i)
                    defined.insert(op->result(i));

        Level level = Level::Unknown;
        for (const auto &op : graph.ops()) {
            for (unsigned i = 0; i < op->numOperands(); ++i) {
                const Value *v = op->operand(i);
                if (!v) {
                    issue(*op, "LN4001", "null operand");
                    continue;
                }
                if (!defined.count(v))
                    issue(*op, "LN4001",
                          "operand %" + std::to_string(v->id) +
                              " used before definition");
            }
            for (unsigned i = 0; i < op->numResults(); ++i) {
                const Value *v = op->result(i);
                if (v->type.width == 0)
                    issue(*op, "LN4003", "zero-width result");
                defined.insert(v);
            }

            Level op_level = levelOf(op->kind());
            if (level == Level::Unknown)
                level = op_level;
            else if (op_level != level)
                issue(*op, "LN4006",
                      "mixes dialect levels within one graph");

            verifyOp(*op);

            if (op->kind() == OpKind::CoredslSpawn) {
                if (!op->subgraph())
                    issue(*op, "LN4005", "spawn without a subgraph");
                else
                    verifyGraphOps(*op->subgraph(), &graph);
            } else if (op->subgraph()) {
                issue(*op, "LN4005",
                      "only coredsl.spawn may carry a subgraph");
            }
        }
    }

    // --- LN4006: terminator placement --------------------------------

    void
    verifyTerminator(const Graph &graph)
    {
        if (graph.empty())
            return;
        const Operation &last = *graph.ops().back();
        Level level = levelOf(graph.ops().front()->kind());
        OpKind want = level == Level::Lil ? OpKind::LilSink
                                          : OpKind::CoredslEnd;
        if (last.kind() != want)
            issue(last, "LN4006",
                  std::string("graph must end in ") + ir::opKindName(want));
        for (const auto &op : graph.ops())
            if ((op->kind() == OpKind::CoredslEnd ||
                 op->kind() == OpKind::LilSink) &&
                op.get() != &last)
                issue(*op, "LN4006",
                      "terminator before the end of the graph");
    }

    // --- per-op arity / width / attribute rules ----------------------

    bool
    checkArity(const Operation &op, unsigned min_ops, unsigned max_ops,
               unsigned results)
    {
        bool ok = true;
        if (op.numOperands() < min_ops || op.numOperands() > max_ops) {
            std::ostringstream os;
            os << "expected ";
            if (min_ops == max_ops)
                os << min_ops;
            else
                os << min_ops << ".." << max_ops;
            os << " operands, got " << op.numOperands();
            issue(op, "LN4002", os.str());
            ok = false;
        }
        if (op.numResults() != results) {
            issue(op, "LN4002",
                  "expected " + std::to_string(results) +
                      " results, got " + std::to_string(op.numResults()));
            ok = false;
        }
        return ok;
    }

    void
    checkWidth(const Operation &op, const Value *v, unsigned width,
               const char *what)
    {
        if (v && v->type.width != width)
            issue(op, "LN4003",
                  std::string(what) + " must be " +
                      std::to_string(width) + " bits wide, is " +
                      std::to_string(v->type.width));
    }

    bool
    requireStrAttr(const Operation &op, const char *key)
    {
        if (!op.hasAttr(key) ||
            !std::holds_alternative<std::string>(op.attrs().at(key))) {
            issue(op, "LN4005",
                  std::string("missing string attribute '") + key + "'");
            return false;
        }
        return true;
    }

    bool
    requireIntAttr(const Operation &op, const char *key)
    {
        if (!op.hasAttr(key) ||
            !std::holds_alternative<int64_t>(op.attrs().at(key))) {
            issue(op, "LN4005",
                  std::string("missing integer attribute '") + key + "'");
            return false;
        }
        return true;
    }

    void
    checkConstant(const Operation &op)
    {
        if (!checkArity(op, 0, 0, 1))
            return;
        if (!op.hasAttr("value") ||
            !std::holds_alternative<ApInt>(op.attrs().at("value"))) {
            issue(op, "LN4005", "missing ApInt attribute 'value'");
            return;
        }
        if (op.apAttr("value").width() != op.result()->type.width)
            issue(op, "LN4003",
                  "constant value width differs from result width");
    }

    void
    checkIcmp(const Operation &op)
    {
        if (!checkArity(op, 2, 2, 1))
            return;
        checkWidth(op, op.result(), 1, "icmp result");
        // hwarith.icmp compares values of differing widths directly
        // (LIL lowering widens into a common domain); only the
        // comb-level icmp requires pre-equalized operands.
        if (op.kind() == OpKind::CombICmp && op.operand(0) &&
            op.operand(1) &&
            op.operand(0)->type.width != op.operand(1)->type.width)
            issue(op, "LN4003", "icmp operand widths differ");
        if (requireIntAttr(op, "pred")) {
            int64_t pred = op.intAttr("pred");
            if (pred < 0 || pred > int64_t(ir::ICmpPred::Sge))
                issue(op, "LN4005", "invalid icmp predicate");
        }
    }

    void
    checkMux(const Operation &op)
    {
        if (!checkArity(op, 3, 3, 1))
            return;
        checkWidth(op, op.operand(0), 1, "mux condition");
        unsigned rw = op.result()->type.width;
        if (op.operand(1))
            checkWidth(op, op.operand(1), rw, "mux true arm");
        if (op.operand(2))
            checkWidth(op, op.operand(2), rw, "mux false arm");
    }

    void
    checkExtract(const Operation &op)
    {
        if (!checkArity(op, 1, 1, 1))
            return;
        if (!requireIntAttr(op, "lo"))
            return;
        int64_t lo = op.intAttr("lo");
        const Value *v = op.operand(0);
        if (v && (lo < 0 ||
                  uint64_t(lo) + op.result()->type.width > v->type.width))
            issue(op, "LN4003",
                  "extracted range exceeds the operand width");
    }

    void
    checkConcat(const Operation &op)
    {
        if (!checkArity(op, 2, 2, 1))
            return;
        const Value *hi = op.operand(0);
        const Value *lo = op.operand(1);
        if (hi && lo &&
            hi->type.width + lo->type.width != op.result()->type.width)
            issue(op, "LN4003",
                  "result width is not the sum of the operand widths");
    }

    void
    checkRom(const Operation &op)
    {
        if (!checkArity(op, 0, 1, 1))
            return;
        if (!op.hasAttr("values") ||
            !std::holds_alternative<std::vector<ApInt>>(
                op.attrs().at("values"))) {
            issue(op, "LN4005", "missing rom attribute 'values'");
            return;
        }
        const auto &values = op.romAttr("values");
        if (values.empty())
            issue(op, "LN4005", "rom has no values");
        for (const auto &v : values)
            if (v.width() != op.result()->type.width) {
                issue(op, "LN4003",
                      "rom value width differs from result width");
                break;
            }
    }

    /** Predicate operand (always the last one) must be one bit. */
    void
    checkPred(const Operation &op, unsigned min_ops_with_pred)
    {
        if (op.numOperands() >= min_ops_with_pred)
            checkWidth(op, op.operand(op.numOperands() - 1), 1,
                       "predicate");
    }

    /**
     * A lil.* interface op has exactly the operands of its
     * ir/iface.def row: lowering always builds that form, and every
     * consumer indexes the operands the row names.
     */
    void
    checkInterface(const Operation &op, const ir::IfaceInfo &iface)
    {
        unsigned n = iface.numOperands();
        if (checkArity(op, n, n, iface.write ? 0 : 1)) {
            if (iface.addr >= 0)
                checkWidth(op, op.operand(iface.addr), 32,
                           "memory address");
            if (iface.word && iface.data >= 0)
                checkWidth(op, op.operand(iface.data), 32,
                           (std::string(iface.name) + " data").c_str());
            if (iface.word && !iface.write)
                checkWidth(op, op.result(), 32, "interface result");
            if (iface.pred >= 0)
                checkWidth(op, op.operand(iface.pred), 1, "predicate");
        }
        if (iface.perRegister)
            requireStrAttr(op, "reg");
    }

    void
    verifyOp(const Operation &op)
    {
        if (const ir::IfaceInfo *iface = ir::ifaceInfo(op.kind())) {
            checkInterface(op, *iface);
            return;
        }
        // A coredsl/hwarith op has its hir.def row's operand range;
        // the checks below assume it.
        const ir::HirOpInfo *hir = ir::hirInfo(op.kind());
        if (hir && !checkArity(op, hir->minOperands, hir->maxOperands,
                               hir->results))
            return;
        unsigned rw =
            op.numResults() == 1 ? op.result()->type.width : 0;
        switch (op.kind()) {
            // --- coredsl ---
          case OpKind::CoredslField:
            requireStrAttr(op, "field");
            break;
          case OpKind::CoredslGet:
            requireStrAttr(op, "state");
            break;
          case OpKind::CoredslSet:
            if (op.numOperands() != (op.hasAttr("indexed") ? 3u : 2u))
                issue(op, "LN4002",
                      "indexed/value/predicate operand mismatch");
            checkPred(op, 2);
            requireStrAttr(op, "state");
            break;
          case OpKind::CoredslGetMem:
            checkPred(op, 2);
            break;
          case OpKind::CoredslSetMem:
            checkPred(op, 3);
            requireStrAttr(op, "state");
            break;
          case OpKind::CoredslConcat:
          case OpKind::CombConcat:
            checkConcat(op);
            break;
          case OpKind::CoredslExtract:
          case OpKind::CombExtract:
            checkExtract(op);
            break;
          case OpKind::CoredslRom:
          case OpKind::CombRom:
            checkRom(op);
            break;
          case OpKind::LilSink:
            checkArity(op, 0, 0, 0);
            break;

            // --- hwarith ---
          case OpKind::HwConstant:
          case OpKind::CombConstant:
            checkConstant(op);
            break;
          case OpKind::HwAnd:
          case OpKind::HwOr:
          case OpKind::HwXor:
            // The other arithmetic grows or changes widths by the
            // CoreDSL type rules; bitwise ops keep the result width.
            checkWidth(op, op.operand(0), rw, "bitwise operand");
            checkWidth(op, op.operand(1), rw, "bitwise operand");
            break;
          case OpKind::HwShl:
          case OpKind::HwShr:
            // The result keeps the lhs type; the shift amount may have
            // any width.
            checkWidth(op, op.operand(0), rw, "shift operand");
            break;
          case OpKind::HwNot:
            checkWidth(op, op.operand(0), rw, "operand");
            break;
          case OpKind::HwICmp:
          case OpKind::CombICmp:
            checkIcmp(op);
            break;
          case OpKind::HwMux:
          case OpKind::CombMux:
            checkMux(op);
            break;

            // --- comb ---
          case OpKind::CombAdd:
          case OpKind::CombSub:
          case OpKind::CombMul:
          case OpKind::CombDivU:
          case OpKind::CombDivS:
          case OpKind::CombModU:
          case OpKind::CombModS:
          case OpKind::CombAnd:
          case OpKind::CombOr:
          case OpKind::CombXor:
            if (checkArity(op, 2, 2, 1)) {
                checkWidth(op, op.operand(0), rw, "comb operand");
                checkWidth(op, op.operand(1), rw, "comb operand");
            }
            break;
          case OpKind::CombShl:
          case OpKind::CombShrU:
          case OpKind::CombShrS:
            if (checkArity(op, 2, 2, 1))
                checkWidth(op, op.operand(0), rw, "shift operand");
            break;
          case OpKind::CombReplicate:
            if (checkArity(op, 1, 1, 1))
                checkWidth(op, op.operand(0), 1, "replicated value");
            break;
          default: // the interface ops, checked by checkInterface()
            break;
        }
    }

    VerifyOptions options_;
    std::vector<VerifyIssue> issues_;
};

} // namespace

std::vector<VerifyIssue>
verifyGraph(const ir::Graph &graph, const VerifyOptions &options)
{
    return GraphVerifier(options).run(graph);
}

void
reportIssues(const std::vector<VerifyIssue> &issues,
             const std::string &what, DiagnosticEngine &diags)
{
    for (const auto &issue : issues)
        diags.error(issue.loc, issue.code,
                    "invalid IR in " + what + ": " + issue.message);
}

// --- verify-after-transform option ----------------------------------

namespace {

/** Per thread: a compile runs on one thread, so concurrent compiles
 * with different CompileOptions::verifyIr never see each other's
 * setting. */
thread_local bool t_verifyIr = false;

} // namespace

bool
verifyIrEnabled()
{
    return t_verifyIr;
}

ScopedVerifyIr::ScopedVerifyIr(bool enable) : prev_(t_verifyIr)
{
    t_verifyIr = enable;
}

ScopedVerifyIr::~ScopedVerifyIr()
{
    t_verifyIr = prev_;
}

void
verifyAfterTransform(const ir::Graph &graph, const char *when)
{
    if (!verifyIrEnabled())
        return;
    auto issues = verifyGraph(graph);
    if (issues.empty())
        return;
    std::ostringstream os;
    os << "IR verification failed after " << when << ":";
    for (const auto &issue : issues)
        os << "\n  " << issue.str();
    throw std::runtime_error(os.str());
}

} // namespace analysis
} // namespace longnail
