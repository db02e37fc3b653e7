#include "ir/ir.hh"

#include <set>
#include <sstream>

#include "ir/comb.hh"
#include "support/logging.hh"

namespace longnail {
namespace ir {

std::string
WireType::str() const
{
    return (isSigned ? "si" : "ui") + std::to_string(width);
}

const char *
opKindName(OpKind kind)
{
    if (auto comb = combOpOf(kind))
        return combInfo(*comb).irName;
    switch (kind) {
      case OpKind::CoredslField: return "coredsl.field";
      case OpKind::CoredslGet: return "coredsl.get";
      case OpKind::CoredslSet: return "coredsl.set";
      case OpKind::CoredslGetMem: return "coredsl.get_mem";
      case OpKind::CoredslSetMem: return "coredsl.set_mem";
      case OpKind::CoredslCast: return "coredsl.cast";
      case OpKind::CoredslConcat: return "coredsl.concat";
      case OpKind::CoredslExtract: return "coredsl.extract";
      case OpKind::CoredslRom: return "coredsl.rom";
      case OpKind::CoredslSpawn: return "coredsl.spawn";
      case OpKind::CoredslEnd: return "coredsl.end";
      case OpKind::HwConstant: return "hwarith.constant";
      case OpKind::HwAdd: return "hwarith.add";
      case OpKind::HwSub: return "hwarith.sub";
      case OpKind::HwMul: return "hwarith.mul";
      case OpKind::HwDiv: return "hwarith.div";
      case OpKind::HwRem: return "hwarith.rem";
      case OpKind::HwShl: return "hwarith.shl";
      case OpKind::HwShr: return "hwarith.shr";
      case OpKind::HwAnd: return "hwarith.and";
      case OpKind::HwOr: return "hwarith.or";
      case OpKind::HwXor: return "hwarith.xor";
      case OpKind::HwNot: return "hwarith.not";
      case OpKind::HwICmp: return "hwarith.icmp";
      case OpKind::HwMux: return "hwarith.mux";
      case OpKind::LilInstrWord: return "lil.instr_word";
      case OpKind::LilReadRs1: return "lil.read_rs1";
      case OpKind::LilReadRs2: return "lil.read_rs2";
      case OpKind::LilReadPC: return "lil.read_pc";
      case OpKind::LilReadMem: return "lil.read_mem";
      case OpKind::LilWriteRd: return "lil.write_rd";
      case OpKind::LilWritePC: return "lil.write_pc";
      case OpKind::LilWriteMem: return "lil.write_mem";
      case OpKind::LilReadCustReg: return "lil.read_custreg";
      case OpKind::LilWriteCustRegAddr: return "lil.write_custreg_addr";
      case OpKind::LilWriteCustRegData: return "lil.write_custreg_data";
      case OpKind::LilSink: return "lil.sink";
      default: break;
    }
    return "<invalid>";
}

const char *
icmpPredName(ICmpPred pred)
{
    switch (pred) {
      case ICmpPred::Eq: return "eq";
      case ICmpPred::Ne: return "ne";
      case ICmpPred::Ult: return "ult";
      case ICmpPred::Ule: return "ule";
      case ICmpPred::Ugt: return "ugt";
      case ICmpPred::Uge: return "uge";
      case ICmpPred::Slt: return "slt";
      case ICmpPred::Sle: return "sle";
      case ICmpPred::Sgt: return "sgt";
      case ICmpPred::Sge: return "sge";
    }
    return "?";
}

bool
isInterfaceOp(OpKind kind)
{
    switch (kind) {
      case OpKind::LilInstrWord:
      case OpKind::LilReadRs1:
      case OpKind::LilReadRs2:
      case OpKind::LilReadPC:
      case OpKind::LilReadMem:
      case OpKind::LilWriteRd:
      case OpKind::LilWritePC:
      case OpKind::LilWriteMem:
      case OpKind::LilReadCustReg:
      case OpKind::LilWriteCustRegAddr:
      case OpKind::LilWriteCustRegData:
        return true;
      default:
        return false;
    }
}

bool
isStateUpdateOp(OpKind kind)
{
    switch (kind) {
      case OpKind::LilWriteRd:
      case OpKind::LilWritePC:
      case OpKind::LilWriteMem:
      case OpKind::LilWriteCustRegAddr:
      case OpKind::LilWriteCustRegData:
        return true;
      default:
        return false;
    }
}

void
Operation::setAttr(const std::string &key, Attr value)
{
    attrs_[key] = std::move(value);
}

int64_t
Operation::intAttr(const std::string &key) const
{
    auto it = attrs_.find(key);
    if (it == attrs_.end() || !std::holds_alternative<int64_t>(it->second))
        LN_PANIC("missing int attribute '", key, "' on ", name());
    return std::get<int64_t>(it->second);
}

const std::string &
Operation::strAttr(const std::string &key) const
{
    auto it = attrs_.find(key);
    if (it == attrs_.end() ||
        !std::holds_alternative<std::string>(it->second))
        LN_PANIC("missing string attribute '", key, "' on ", name());
    return std::get<std::string>(it->second);
}

const ApInt &
Operation::apAttr(const std::string &key) const
{
    auto it = attrs_.find(key);
    if (it == attrs_.end() || !std::holds_alternative<ApInt>(it->second))
        LN_PANIC("missing ApInt attribute '", key, "' on ", name());
    return std::get<ApInt>(it->second);
}

const std::vector<ApInt> &
Operation::romAttr(const std::string &key) const
{
    auto it = attrs_.find(key);
    if (it == attrs_.end() ||
        !std::holds_alternative<std::vector<ApInt>>(it->second))
        LN_PANIC("missing ROM attribute '", key, "' on ", name());
    return std::get<std::vector<ApInt>>(it->second);
}

void
Operation::morphToConstant(const ApInt &value, bool comb_level)
{
    if (numResults() != 1)
        LN_PANIC("morphToConstant requires exactly one result");
    kind_ = comb_level ? OpKind::CombConstant : OpKind::HwConstant;
    operands_.clear();
    attrs_.clear();
    subgraph_.reset();
    setAttr("value", value.zextOrTrunc(result()->type.width));
}

void
Operation::morph(OpKind kind, std::vector<Value *> operands)
{
    kind_ = kind;
    operands_ = std::move(operands);
    attrs_.clear();
    subgraph_.reset();
}

Operation *
Graph::append(OpKind kind, std::vector<Value *> operands,
              std::vector<WireType> result_types)
{
    auto op = std::make_unique<Operation>(kind, std::move(operands));
    for (unsigned i = 0; i < result_types.size(); ++i) {
        auto v = std::make_unique<Value>();
        v->owner = op.get();
        v->resultIndex = i;
        v->type = result_types[i];
        v->id = nextValueId_++;
        op->results_.push_back(std::move(v));
    }
    op->loc_ = defaultLoc_;
    ops_.push_back(std::move(op));
    return ops_.back().get();
}

Operation *
Graph::appendWithSubgraph(OpKind kind)
{
    Operation *op = append(kind, {}, {});
    op->subgraph_ = std::make_unique<Graph>();
    return op;
}

Operation *
Graph::insertBefore(const Operation *anchor, OpKind kind,
                    std::vector<Value *> operands,
                    std::vector<WireType> result_types)
{
    auto it = ops_.begin();
    for (; it != ops_.end(); ++it)
        if (it->get() == anchor)
            break;
    if (it == ops_.end())
        LN_PANIC("insertBefore: anchor op is not in this graph");

    auto op = std::make_unique<Operation>(kind, std::move(operands));
    for (unsigned i = 0; i < result_types.size(); ++i) {
        auto v = std::make_unique<Value>();
        v->owner = op.get();
        v->resultIndex = i;
        v->type = result_types[i];
        v->id = nextValueId_++;
        op->results_.push_back(std::move(v));
    }
    op->loc_ = anchor->loc();
    return ops_.insert(it, std::move(op))->get();
}

namespace {

std::string
attrToString(const Attr &attr)
{
    if (std::holds_alternative<int64_t>(attr))
        return std::to_string(std::get<int64_t>(attr));
    if (std::holds_alternative<std::string>(attr))
        return "\"" + std::get<std::string>(attr) + "\"";
    if (std::holds_alternative<ApInt>(attr))
        return std::get<ApInt>(attr).toStringUnsigned();
    const auto &values = std::get<std::vector<ApInt>>(attr);
    std::string out = "[";
    size_t shown = std::min<size_t>(values.size(), 8);
    for (size_t i = 0; i < shown; ++i) {
        if (i)
            out += ", ";
        out += values[i].toStringUnsigned();
    }
    if (values.size() > shown)
        out += ", ...(" + std::to_string(values.size()) + " entries)";
    return out + "]";
}

} // namespace

void
Graph::printInto(std::string &out, int indent) const
{
    std::string pad(indent, ' ');
    for (const auto &op : ops_) {
        out += pad;
        if (op->numResults() > 0) {
            for (unsigned i = 0; i < op->numResults(); ++i) {
                if (i)
                    out += ", ";
                out += "%" + std::to_string(op->result(i)->id);
            }
            out += " = ";
        }
        out += op->name();
        for (unsigned i = 0; i < op->numOperands(); ++i) {
            out += i ? ", " : " ";
            out += "%" + std::to_string(op->operand(i)->id);
        }
        bool first_attr = true;
        for (const auto &[key, attr] : op->attrs()) {
            out += first_attr ? " {" : ", ";
            first_attr = false;
            out += key + " = " + attrToString(attr);
        }
        if (!first_attr)
            out += "}";
        if (op->numResults() > 0) {
            out += " : ";
            for (unsigned i = 0; i < op->numResults(); ++i) {
                if (i)
                    out += ", ";
                out += op->result(i)->type.str();
            }
        }
        out += "\n";
        if (op->subgraph()) {
            out += pad + "{\n";
            op->subgraph()->printInto(out, indent + 2);
            out += pad + "}\n";
        }
    }
}

std::string
Graph::print() const
{
    std::string out;
    printInto(out, 0);
    return out;
}

std::string
Graph::verify() const
{
    return verifyInner(nullptr);
}

std::string
Graph::verifyInner(const Graph *outer) const
{
    // Def-before-use within this graph, allowing defs from the
    // enclosing graph prefix (spawn blocks see earlier outer values).
    std::set<const Value *> defined;
    if (outer) {
        for (const auto &op : outer->ops()) {
            for (unsigned i = 0; i < op->numResults(); ++i)
                defined.insert(op->result(i));
        }
    }

    for (const auto &op : ops_) {
        for (unsigned i = 0; i < op->numOperands(); ++i) {
            const Value *v = op->operand(i);
            if (!v)
                return std::string("null operand on ") + op->name();
            if (!defined.count(v))
                return std::string("operand %") + std::to_string(v->id) +
                       " of " + op->name() + " used before definition";
        }
        for (unsigned i = 0; i < op->numResults(); ++i) {
            const Value *v = op->result(i);
            if (v->type.width == 0)
                return std::string("zero-width result on ") + op->name();
            defined.insert(v);
        }
        if (op->subgraph()) {
            std::string err = op->subgraph()->verifyInner(this);
            if (!err.empty())
                return err;
        }
    }
    return "";
}

} // namespace ir
} // namespace longnail
