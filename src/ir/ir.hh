/**
 * @file
 * Lightweight SSA IR infrastructure standing in for MLIR/CIRCT in the
 * Longnail flow (Sec. 4.1 of the paper).
 *
 * Longnail's behaviors are straight-line after if-conversion, loop
 * unrolling and inlining, so the IR is a *graph*: an ordered list of
 * operations producing SSA values. Operation kinds are grouped into
 * dialect-style namespaces:
 *
 *  - "coredsl.*"  high-level ops close to the input language (Fig. 5b)
 *  - "hwarith.*"  bitwidth-aware arithmetic on signed/unsigned values
 *  - "lil.*"      SCAIE-V sub-interface operations made explicit
 *                 (Fig. 5c)
 *  - "comb.*"     plain combinational logic of fixed, signless widths
 *
 * A spawn block is an operation carrying a nested graph.
 */

#ifndef LONGNAIL_IR_IR_HH
#define LONGNAIL_IR_IR_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "support/apint.hh"
#include "support/diagnostics.hh"

namespace longnail {
namespace ir {

/** The type of an SSA value: a bit width plus hwarith signedness. */
struct WireType
{
    unsigned width = 0;
    /** Only meaningful at the hwarith level; comb values are signless. */
    bool isSigned = false;

    WireType() = default;
    WireType(unsigned w, bool s = false) : width(w), isSigned(s) {}

    bool operator==(const WireType &rhs) const = default;
    /** "ui32" / "si12" / "i32" rendering (comb values print signless). */
    std::string str() const;
};

/** All operation kinds across the four dialects. */
enum class OpKind
{
    // --- coredsl and hwarith dialects (Fig. 5b) ---
    // One enumerator per row of ir/hir.def (CoredslField ... HwMux),
    // which also states each op's operands and comb-level meaning.
#define LN_HIR_OP(kind, ...) kind,
#include "ir/hir.def"
#undef LN_HIR_OP

    // --- lil dialect (SCAIE-V sub-interfaces, Fig. 5c / Table 1) ---
    // One enumerator per row of ir/iface.def (LilInstrWord ...
    // LilWriteMem), which also fixes each op's operands.
#define LN_IFACE(name, op, ...) Lil##op,
#include "ir/iface.def"
#undef LN_IFACE
    LilSink, ///< graph terminator

    // --- comb dialect (signless combinational logic, Fig. 5c/5d) ---
    // One enumerator per row of ir/comb.def (CombConstant ... CombRom).
#define LN_COMB_OP(name, ...) Comb##name,
#include "ir/comb.def"
#undef LN_COMB_OP
};

/** Comparison predicates shared by hwarith.icmp and comb.icmp. */
enum class ICmpPred { Eq, Ne, Ult, Ule, Ugt, Uge, Slt, Sle, Sgt, Sge };

const char *opKindName(OpKind kind);
const char *icmpPredName(ICmpPred pred);

/** True for lil.* operations that touch a SCAIE-V sub-interface. */
inline bool
isInterfaceOp(OpKind kind)
{
    return kind >= OpKind::LilInstrWord && kind < OpKind::LilSink;
}
/** True for interface ops that update architectural state. */
bool isStateUpdateOp(OpKind kind);

class Operation;
class Graph;

/** An SSA value: the result of an operation. */
struct Value
{
    Operation *owner = nullptr;
    unsigned resultIndex = 0;
    WireType type;
    /**
     * Assigned on creation from the creating graph's counter: unique
     * among that graph's values and below Graph::valueIdBound(). A
     * spawn subgraph has its own counter, so ids repeat across the
     * graphs of one HIR behavior; LIL graphs are flat, so there an id
     * names one value of the whole graph. Graph::verify() checks both.
     */
    unsigned id = 0;
};

/** Attribute payload. */
using Attr = std::variant<int64_t, std::string, ApInt, std::vector<ApInt>>;

class Operation
{
  public:
    Operation(OpKind kind, std::vector<Value *> operands)
        : kind_(kind), operands_(std::move(operands))
    {}

    OpKind kind() const { return kind_; }
    const char *name() const { return opKindName(kind_); }

    const std::vector<Value *> &operands() const { return operands_; }
    Value *operand(unsigned i) const { return operands_.at(i); }
    unsigned numOperands() const { return operands_.size(); }
    void setOperand(unsigned i, Value *v) { operands_.at(i) = v; }
    void
    replaceUsesOf(Value *from, Value *to)
    {
        for (auto &op : operands_)
            if (op == from)
                op = to;
    }

    unsigned numResults() const { return results_.size(); }
    Value *result(unsigned i = 0) const { return results_.at(i).get(); }

    // Attributes.
    bool hasAttr(const std::string &key) const { return attrs_.count(key); }
    void setAttr(const std::string &key, Attr value);
    int64_t intAttr(const std::string &key) const;
    const std::string &strAttr(const std::string &key) const;
    const ApInt &apAttr(const std::string &key) const;
    const std::vector<ApInt> &romAttr(const std::string &key) const;
    const std::map<std::string, Attr> &attrs() const { return attrs_; }

    /** Nested graph (only for coredsl.spawn). */
    Graph *subgraph() const { return subgraph_.get(); }

    /**
     * CoreDSL source position of the construct this operation was
     * lowered from; invalid when synthesized without one. Lowerers
     * stamp it via Graph::setDefaultLoc so analyses can point findings
     * back at the input.
     */
    SourceLoc loc() const { return loc_; }
    void setLoc(SourceLoc loc) { loc_ = loc; }

    /**
     * Rewrite this operation in place into a constant producing
     * @p value; result Value pointers stay valid, so users are
     * unaffected. @p comb_level selects comb.constant vs.
     * hwarith.constant.
     */
    void morphToConstant(const ApInt &value, bool comb_level);

    /**
     * Rewrite this operation in place to @p kind over @p operands,
     * keeping its results (Value pointers stay valid, so users are
     * unaffected). Attributes and any subgraph are dropped; the caller
     * re-sets whatever the new kind requires. The optimization passes
     * use this to swap an op's implementation without re-linking users.
     */
    void morph(OpKind kind, std::vector<Value *> operands);

  private:
    friend class Graph;

    OpKind kind_;
    std::vector<Value *> operands_;
    std::vector<std::unique_ptr<Value>> results_;
    std::map<std::string, Attr> attrs_;
    std::unique_ptr<Graph> subgraph_;
    SourceLoc loc_;
};

/**
 * An ordered, owning list of operations. Operands must be results of
 * operations that appear earlier in this graph or an enclosing graph
 * (def-before-use).
 */
class Graph
{
  public:
    Graph() = default;
    Graph(const Graph &) = delete;
    Graph &operator=(const Graph &) = delete;

    /** Append a new operation with @p result_types results. */
    Operation *append(OpKind kind, std::vector<Value *> operands,
                      std::vector<WireType> result_types);

    /** Append a spawn-style op owning a fresh nested graph. */
    Operation *appendWithSubgraph(OpKind kind);

    /**
     * Insert a new operation immediately before @p anchor, which must
     * be a top-level operation of this graph. Operations are
     * heap-allocated, so existing Value* / Operation* pointers stay
     * valid across the deque insertion. The new op inherits @p anchor's
     * source location (it computes on behalf of the anchored op).
     */
    Operation *insertBefore(const Operation *anchor, OpKind kind,
                            std::vector<Value *> operands,
                            std::vector<WireType> result_types);

    /**
     * Source location stamped onto subsequently appended operations.
     * Lowerers update it as they walk the AST (or the source IR) so
     * every new op inherits the position of the construct being
     * lowered.
     */
    void setDefaultLoc(SourceLoc loc) { defaultLoc_ = loc; }
    SourceLoc defaultLoc() const { return defaultLoc_; }

    const std::deque<std::unique_ptr<Operation>> &ops() const
    {
        return ops_;
    }
    size_t size() const { return ops_.size(); }
    bool empty() const { return ops_.empty(); }

    /** Remove operations not satisfying @p keep (no use checking). */
    template <typename Pred>
    void
    removeIf(Pred keep_removing)
    {
        std::erase_if(ops_, [&](const std::unique_ptr<Operation> &op) {
            return keep_removing(*op);
        });
    }

    /** Every value created by this graph (not its subgraphs) has an
     * id below this bound. */
    unsigned valueIdBound() const { return nextValueId_; }

    /**
     * Verify def-before-use, unique value ids below valueIdBound() and
     * per-op structural invariants.
     * @return an empty string when valid, else a description.
     */
    std::string verify() const;

    /** Multi-line textual form, similar to Fig. 5c of the paper. */
    std::string print() const;

  private:
    void printInto(std::string &out, int indent) const;
    std::string verifyInner(const Graph *outer) const;

    std::deque<std::unique_ptr<Operation>> ops_;
    SourceLoc defaultLoc_;
    // Per-graph so concurrent compiles never share mutable state. Ids
    // key per-value tables and CSE (see Value::id); they are never
    // printed into artifacts.
    unsigned nextValueId_ = 0;
};

/**
 * Keys numbered 0, 1, 2, ... in insertion order, looked up through
 * one flat open-addressed table (no node per key). The analyses and
 * passes keep their per-value data in vectors over value numbers
 * where Value::id cannot serve, e.g. across the spawn subgraphs of a
 * HIR behavior; the scheduler numbers a LIL graph's operations in
 * graph order, which is their scheduling-problem index.
 */
template <typename T>
class PointerNumbering
{
  public:
    static constexpr uint32_t none = UINT32_MAX;

    /** Size the table for @p count keys without rehashing. */
    void reserve(size_t count);

    /** Give @p key the next number unless it has one.
     * @return its number, and whether it was new. */
    std::pair<uint32_t, bool> insert(const T *key);

    /** @p key's number, or none. */
    uint32_t find(const T *key) const;
    bool count(const T *key) const { return find(key) != none; }
    uint32_t size() const { return size_; }

  private:
    struct Slot
    {
        const T *key = nullptr;
        uint32_t number = none;
    };

    void rehash(size_t capacity);

    std::vector<Slot> slots_; ///< power-of-two size, at most half full
    uint32_t size_ = 0;
};

using ValueNumbering = PointerNumbering<Value>;
using OperationNumbering = PointerNumbering<Operation>;

/** True for hwarith.constant and comb.constant. */
inline bool
isConstantOp(OpKind kind)
{
    return kind == OpKind::HwConstant || kind == OpKind::CombConstant;
}

/** The value of the constant defining @p v; nullptr if it is none. */
const ApInt *definingConstant(const Value *v);

/** Replace every use of @p from with @p to, subgraphs included. */
void replaceAllUses(Graph &graph, Value *from, Value *to);

/** Every value used as an operand in @p graph, subgraphs included
 * (test membership with count()). */
ValueNumbering usedValues(const Graph &graph);

} // namespace ir
} // namespace longnail

#endif // LONGNAIL_IR_IR_HH
