#include "ir/ir.hh"

#include <algorithm>
#include <set>
#include <utility>

#include "ir/comb.hh"
#include "ir/hir.hh"
#include "ir/iface.hh"
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
    if (const HirOpInfo *hir = hirInfo(kind))
        return hir->name;
    if (auto comb = combOpOf(kind))
        return combInfo(*comb).irName;
    if (const IfaceInfo *iface = ifaceInfo(kind))
        return iface->irName;
    return kind == OpKind::LilSink ? "lil.sink" : "<invalid>";
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
isStateUpdateOp(OpKind kind)
{
    const IfaceInfo *iface = ifaceInfo(kind);
    return iface && iface->write;
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

const ApInt *
definingConstant(const Value *v)
{
    const Operation *def = v->owner;
    if (def && isConstantOp(def->kind()) && def->hasAttr("value"))
        return &def->apAttr("value");
    return nullptr;
}

void
replaceAllUses(Graph &graph, Value *from, Value *to)
{
    for (const auto &op : graph.ops()) {
        op->replaceUsesOf(from, to);
        if (op->subgraph())
            replaceAllUses(*op->subgraph(), from, to);
    }
}

namespace {

/** Fibonacci hashing of @p key's address into a table of @p mask + 1
 * slots. */
size_t
slotOf(const void *key, size_t mask)
{
    uint64_t h = uint64_t(reinterpret_cast<uintptr_t>(key)) *
                 0x9e3779b97f4a7c15ull;
    return size_t(h >> 32) & mask;
}

void
collectUsed(const Graph &graph, ValueNumbering &used)
{
    for (const auto &op : graph.ops()) {
        for (const Value *v : op->operands())
            used.insert(v);
        if (op->subgraph())
            collectUsed(*op->subgraph(), used);
    }
}

} // namespace

template <typename T>
void
PointerNumbering<T>::reserve(size_t count)
{
    size_t capacity = 16;
    while (capacity < 2 * count)
        capacity *= 2;
    if (capacity > slots_.size())
        rehash(capacity);
}

template <typename T>
void
PointerNumbering<T>::rehash(size_t capacity)
{
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(capacity));
    size_t mask = capacity - 1;
    for (const Slot &s : old) {
        if (!s.key)
            continue;
        size_t i = slotOf(s.key, mask);
        while (slots_[i].key)
            i = (i + 1) & mask;
        slots_[i] = s;
    }
}

template <typename T>
std::pair<uint32_t, bool>
PointerNumbering<T>::insert(const T *key)
{
    if (2 * (size_t(size_) + 1) > slots_.size())
        rehash(std::max<size_t>(16, 2 * slots_.size()));
    size_t mask = slots_.size() - 1;
    for (size_t i = slotOf(key, mask);; i = (i + 1) & mask) {
        Slot &s = slots_[i];
        if (s.key == key)
            return {s.number, false};
        if (!s.key) {
            s = {key, size_};
            return {size_++, true};
        }
    }
}

template <typename T>
uint32_t
PointerNumbering<T>::find(const T *key) const
{
    if (slots_.empty())
        return none;
    size_t mask = slots_.size() - 1;
    for (size_t i = slotOf(key, mask);; i = (i + 1) & mask) {
        const Slot &s = slots_[i];
        if (s.key == key)
            return s.number;
        if (!s.key)
            return none;
    }
}

template class PointerNumbering<Value>;
template class PointerNumbering<Operation>;

ValueNumbering
usedValues(const Graph &graph)
{
    ValueNumbering used;
    used.reserve(graph.size());
    collectUsed(graph, used);
    return used;
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
    // Ids key per-value tables (Value::id): unique and below the bound.
    std::vector<bool> id_taken(nextValueId_);

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
            if (v->id >= nextValueId_ || id_taken[v->id])
                return std::string("result %") + std::to_string(v->id) +
                       " of " + op->name() +
                       (v->id >= nextValueId_ ? " has an id past the "
                                                "graph's counter"
                                              : " reuses an id");
            id_taken[v->id] = true;
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
