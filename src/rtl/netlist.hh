/**
 * @file
 * Register-transfer-level netlist IR: the equivalent of the CIRCT
 * hw/comb/seq dialects that Longnail's hardware generation targets
 * (Sec. 4.1(d)).
 *
 * A Module is a flat, topologically ordered list of nodes over nets.
 * Registers are nodes whose result reads as the stored state during
 * evaluation and capture their data input at the clock edge (optionally
 * gated by an enable, which yields the "stallable pipeline registers"
 * of Sec. 4.5).
 */

#ifndef LONGNAIL_RTL_NETLIST_HH
#define LONGNAIL_RTL_NETLIST_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/comb.hh"
#include "ir/ir.hh"
#include "support/apint.hh"

namespace longnail {
namespace rtl {

/** A net: the single driver of a value inside a module. */
using NetId = uint32_t;
constexpr NetId invalidNet = ~NetId(0);

/** Node kinds: the comb operators of ir/comb.def between the input
 * ports and the registers. */
enum class NodeKind
{
    Input, ///< module input port
#define LN_COMB_OP(name, ...) name,
#include "ir/comb.def"
#undef LN_COMB_OP
    Register, ///< operands: d [, enable]; init attr
};

static_assert(int(NodeKind::Rom) - int(NodeKind::Constant) ==
              int(ir::CombOp::Rom));

inline std::optional<ir::CombOp>
combOpOf(NodeKind kind)
{
    if (kind == NodeKind::Input || kind == NodeKind::Register)
        return std::nullopt;
    return ir::CombOp(int(kind) - int(NodeKind::Constant));
}

inline NodeKind
nodeKindOf(ir::CombOp op)
{
    return NodeKind(int(op) + int(NodeKind::Constant));
}

const char *nodeKindName(NodeKind kind);

/** One netlist node; its result is net @c result. */
struct Node
{
    NodeKind kind = NodeKind::Constant;
    NetId result = invalidNet;
    std::vector<NetId> operands;
    // Attributes (used by the kinds noted above).
    ApInt value{1, 0};              ///< Constant / Register init
    ir::ICmpPred pred = ir::ICmpPred::Eq;
    unsigned lo = 0;
    std::vector<ApInt> romValues;
};

/** The attributes of a comb node, for ir::evalComb. */
inline ir::CombAttrs
combAttrs(const Node &node)
{
    return {&node.value, node.pred, node.lo, &node.romValues};
}

/** An output port: a name bound to a driven net. */
struct OutputPort
{
    std::string name;
    NetId net = invalidNet;
};

class Module
{
  public:
    explicit Module(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    /** Create an input port; returns its net. */
    NetId addInput(const std::string &name, unsigned width);
    /** Bind an output port to a net. */
    void addOutput(const std::string &name, NetId net);

    NetId addConstant(const ApInt &value);
    /** Generic node builder; width is the result width. */
    NetId addNode(NodeKind kind, unsigned width,
                  std::vector<NetId> operands);
    NetId addICmp(ir::ICmpPred pred, NetId lhs, NetId rhs);
    NetId addExtract(NetId v, unsigned lo, unsigned count);
    NetId addRom(std::vector<ApInt> values, unsigned width, NetId index);
    /**
     * Add a register; @p enable may be invalidNet for free-running.
     * The register's result net reads the *stored* state.
     */
    NetId addRegister(NetId d, NetId enable, const ApInt &init);

    unsigned widthOf(NetId net) const { return netWidths_.at(net); }
    size_t numNets() const { return netWidths_.size(); }
    const std::vector<Node> &nodes() const { return nodes_; }
    /**
     * Mutable node access. Exists for fault seeding in the
     * translation-validation tests (swap an operand, change a kind);
     * production code never mutates a built module.
     */
    Node &node(size_t index) { return nodes_.at(index); }
    /** Re-bind an existing output port to a different net (fault
     * seeding; panics when the port does not exist). */
    void rebindOutput(const std::string &name, NetId net);
    const std::vector<OutputPort> &outputs() const { return outputs_; }
    /** Input ports in declaration order: (name, net). */
    const std::vector<std::pair<std::string, NetId>> &inputs() const
    {
        return inputs_;
    }
    std::optional<NetId> findInput(const std::string &name) const;
    std::optional<NetId> findOutput(const std::string &name) const;

    /** Optional user-facing net name (used by the Verilog emitter). */
    void nameNet(NetId net, const std::string &name);
    const std::string &netName(NetId net) const;

    /** Number of register nodes (pipeline depth indicator). */
    unsigned numRegisters() const;
    /** Total register bits (for the area model). */
    unsigned numRegisterBits() const;

    /**
     * Structural verification: operand nets defined before use, every
     * node within widthRule(). @return empty string when valid.
     */
    std::string verify() const;

  private:
    NetId newNet(unsigned width);

    std::string name_;
    std::vector<unsigned> netWidths_;
    std::vector<std::string> netNames_;
    std::vector<Node> nodes_;
    std::vector<std::pair<std::string, NetId>> inputs_;
    std::vector<OutputPort> outputs_;
};

/**
 * The operand and result widths @p node's kind requires, checked over
 * nets of @p m that exist: empty when @p node keeps them, else what it
 * breaks. Module::verify() and the netlist lint (LN4602) apply it.
 */
std::string widthRule(const Module &m, const Node &node);

} // namespace rtl
} // namespace longnail

#endif // LONGNAIL_RTL_NETLIST_HH
