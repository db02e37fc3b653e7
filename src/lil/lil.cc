#include "lil/lil.hh"

#include <algorithm>
#include <map>
#include <set>

#include "hir/transforms.hh"
#include "ir/hir.hh"
#include "support/failpoint.hh"
#include "support/logging.hh"

namespace longnail {
namespace lil {

using coredsl::ElaboratedIsa;
using coredsl::FieldInfo;
using coredsl::InstrInfo;
using coredsl::StateInfo;
using ir::Graph;
using ir::Operation;
using ir::OpKind;
using ir::Value;
using ir::WireType;

void
LilGraph::collectCustomRegs()
{
    std::set<std::string> reads, writes;
    for (const auto &op : graph.ops()) {
        if (op->kind() == OpKind::LilReadCustReg)
            reads.insert(op->strAttr("reg"));
        if (op->kind() == OpKind::LilWriteCustRegData)
            writes.insert(op->strAttr("reg"));
    }
    customRegsRead.assign(reads.begin(), reads.end());
    customRegsWritten.assign(writes.begin(), writes.end());
}

bool
LilGraph::hasSpawnOps() const
{
    for (const auto &op : graph.ops())
        if (op->hasAttr("spawn"))
            return true;
    return false;
}

std::string
LilGraph::print() const
{
    std::string out = "lil.graph \"" + name + "\"";
    if (!maskString.empty())
        out += " // mask \"" + maskString + "\"";
    out += " {\n" + graph.print() + "}\n";
    return out;
}

const LilGraph *
LilModule::findGraph(const std::string &name) const
{
    for (const auto &g : graphs)
        if (g->name == name)
            return g.get();
    return nullptr;
}

namespace {

/** Standard RISC-V GPR index field positions in the instruction word. */
constexpr unsigned rs1InstrLsb = 15;
constexpr unsigned rs2InstrLsb = 20;
constexpr unsigned rdInstrLsb = 7;

struct LowerError {};

class LilLowerer
{
  public:
    LilLowerer(const ElaboratedIsa &isa, DiagnosticEngine &diags)
        : isa_(isa), diags_(diags)
    {}

    bool
    lower(const Graph &hir_graph, const InstrInfo *instr, LilGraph &out)
    {
        instr_ = instr;
        out_ = &out.graph;
        try {
            lowerOps(hir_graph, /*in_spawn=*/false);
            out_->append(OpKind::LilSink, {}, {});
        } catch (const LowerError &) {
            return false;
        }
        std::string err = out.graph.verify();
        if (!err.empty())
            LN_PANIC("LIL verification failed for ", out.name, ": ",
                     err);
        // Record custom register usage for the SCAIE-V configuration.
        out.collectCustomRegs();
        return true;
    }

  private:
    [[noreturn]] void
    error(const std::string &msg)
    {
        // Attribute the failure to the HIR op currently being lowered.
        diags_.error(out_ ? out_->defaultLoc() : SourceLoc{}, msg);
        throw LowerError{};
    }

    // --- small builders -------------------------------------------------

    Value *
    combConstant(const ApInt &value)
    {
        Operation *op = out_->append(OpKind::CombConstant, {},
                                     {WireType(value.width())});
        op->setAttr("value", value);
        return op->result();
    }

    Value *
    extract(Value *v, unsigned lo, unsigned count)
    {
        if (lo == 0 && count == v->type.width)
            return v;
        Operation *op = out_->append(OpKind::CombExtract, {v},
                                     {WireType(count)});
        op->setAttr("lo", int64_t(lo));
        return op->result();
    }

    Value *
    concat(Value *hi, Value *lo)
    {
        return out_->append(OpKind::CombConcat, {hi, lo},
                            {WireType(hi->type.width + lo->type.width)})
            ->result();
    }

    /** Resize @p v to @p width; @p is_signed selects the extension. */
    Value *
    resize(Value *v, unsigned width, bool is_signed)
    {
        unsigned w = v->type.width;
        if (width == w)
            return v;
        if (width < w)
            return extract(v, 0, width);
        unsigned pad = width - w;
        if (!is_signed)
            return concat(combConstant(ApInt(pad, 0)), v);
        Value *sign = extract(v, w - 1, 1);
        Operation *rep = out_->append(OpKind::CombReplicate, {sign},
                                      {WireType(pad)});
        return concat(rep->result(), v);
    }

    /** Resize according to the *operand's* hwarith signedness. */
    Value *
    resizeByType(Value *hir_value, Value *lil_value, unsigned width)
    {
        return resize(lil_value, width, hir_value->type.isSigned);
    }

    Value *
    mapped(Value *hir_value)
    {
        auto it = mapping_.find(hir_value);
        if (it == mapping_.end())
            LN_PANIC("HIR value %", hir_value->id, " has no LIL mapping");
        return it->second;
    }

    // --- field handling ---------------------------------------------------

    Value *
    instrWord()
    {
        if (!instrWord_)
            instrWord_ = out_->append(OpKind::LilInstrWord, {},
                                      {WireType(32)})->result();
        return instrWord_;
    }

    /** Materialize the data value of an encoding field (Fig. 5c imm). */
    Value *
    fieldData(const std::string &name)
    {
        const FieldInfo &field = fieldInfo(name);
        // Assemble the field MSB-first from its instruction-word
        // slices; unencoded bits (gaps) read as zero.
        auto slices = field.slices;
        std::sort(slices.begin(), slices.end(),
                  [](const auto &a, const auto &b) {
                      return a.fieldLsb < b.fieldLsb;
                  });
        Value *acc = nullptr;
        unsigned pos = 0;
        for (const auto &slice : slices) {
            if (slice.fieldLsb > pos) {
                Value *zero = combConstant(
                    ApInt(slice.fieldLsb - pos, 0));
                acc = acc ? concat(zero, acc) : zero;
                pos = slice.fieldLsb;
            }
            Value *bits = extract(instrWord(), slice.instrLsb,
                                  slice.count);
            acc = acc ? concat(bits, acc) : bits;
            pos += slice.count;
        }
        if (pos < field.width) {
            Value *zero = combConstant(ApInt(field.width - pos, 0));
            acc = acc ? concat(zero, acc) : zero;
        }
        return acc;
    }

    const FieldInfo &
    fieldInfo(const std::string &name)
    {
        if (!instr_)
            error("encoding fields are unavailable in always-blocks");
        auto it = instr_->fields.find(name);
        if (it == instr_->fields.end())
            error("unknown encoding field '" + name + "'");
        return it->second;
    }

    /**
     * If @p hir_value is a coredsl.field op whose single slice sits at
     * @p instr_lsb with width 5, it designates the corresponding GPR
     * port.
     */
    bool
    fieldAt(const Value *hir_value, unsigned instr_lsb) const
    {
        const Operation *op = hir_value->owner;
        if (op->kind() != OpKind::CoredslField || !instr_)
            return false;
        auto it = instr_->fields.find(op->strAttr("field"));
        if (it == instr_->fields.end())
            return false;
        const FieldInfo &field = it->second;
        return field.slices.size() == 1 && field.width == 5 &&
               field.slices[0].instrLsb == instr_lsb &&
               field.slices[0].count == 5;
    }

    // --- main loop ---------------------------------------------------------

    void
    markSpawn(Operation *op, bool in_spawn)
    {
        if (in_spawn)
            op->setAttr("spawn", int64_t(1));
    }

    void
    lowerOps(const Graph &hir_graph, bool in_spawn)
    {
        for (const auto &op : hir_graph.ops()) {
            // LIL ops inherit the source position of the HIR op they
            // were lowered from.
            out_->setDefaultLoc(op->loc());
            lowerOp(*op, in_spawn);
        }
    }

    void
    lowerOp(const Operation &op, bool in_spawn)
    {
        switch (op.kind()) {
          case OpKind::CoredslField:
            mapping_[op.result()] = fieldData(op.strAttr("field"));
            return;
          case OpKind::CoredslGet:
            lowerGet(op, in_spawn);
            return;
          case OpKind::CoredslSet:
            lowerSet(op, in_spawn);
            return;
          case OpKind::CoredslGetMem: {
            Value *addr = resizeByType(op.operand(0),
                                       mapped(op.operand(0)), 32);
            Value *pred = mapped(op.operand(1));
            Operation *read = out_->append(OpKind::LilReadMem,
                                           {addr, pred},
                                           {WireType(32)});
            markSpawn(read, in_spawn);
            unsigned width = op.result()->type.width;
            mapping_[op.result()] = extract(read->result(), 0, width);
            return;
          }
          case OpKind::CoredslSetMem: {
            unsigned bytes = unsigned(op.intAttr("bytes"));
            if (bytes != 4)
                error("memory stores must be exactly one 32-bit word "
                      "(WrMem sub-interface)");
            Value *addr = resizeByType(op.operand(0),
                                       mapped(op.operand(0)), 32);
            Value *value = mapped(op.operand(1));
            Value *pred = mapped(op.operand(2));
            Operation *write = out_->append(OpKind::LilWriteMem,
                                            {addr, value, pred}, {});
            markSpawn(write, in_spawn);
            return;
          }
          case OpKind::CoredslSpawn:
            lowerOps(*op.subgraph(), /*in_spawn=*/true);
            return;
          case OpKind::CoredslEnd:
            return;
          default:
            lowerCompute(op);
            return;
        }
    }

    void
    lowerGet(const Operation &op, bool in_spawn)
    {
        const StateInfo *state = isa_.findState(op.strAttr("state"));
        if (!state)
            error("unknown state '" + op.strAttr("state") + "'");

        if (state->isCoreState && state->name == "X") {
            if (op.numOperands() != 1)
                error("the register field X must be indexed");
            Value *index = op.operand(0);
            OpKind kind;
            if (fieldAt(index, rs1InstrLsb))
                kind = OpKind::LilReadRs1;
            else if (fieldAt(index, rs2InstrLsb))
                kind = OpKind::LilReadRs2;
            else
                error("reads of the standard register file are only "
                      "possible via the rs1/rs2 encoding fields "
                      "(instruction bits 19:15 / 24:20)");
            Operation *read = out_->append(kind, {}, {WireType(32)});
            markSpawn(read, in_spawn);
            mapping_[op.result()] = read->result();
            return;
        }
        if (state->isCoreState && state->name == "PC") {
            Operation *read = out_->append(OpKind::LilReadPC, {},
                                           {WireType(32)});
            markSpawn(read, in_spawn);
            mapping_[op.result()] = read->result();
            return;
        }
        if (state->isCoreState)
            error("unsupported core state '" + state->name + "'");

        // ISAX-internal custom register.
        unsigned aw = state->indexWidth();
        Value *index;
        if (state->isArray()) {
            if (op.numOperands() != 1)
                error("custom register file '" + state->name +
                      "' must be indexed");
            index = resizeByType(op.operand(0), mapped(op.operand(0)),
                                 aw);
        } else {
            index = combConstant(ApInt(aw, 0));
        }
        Operation *read = out_->append(
            OpKind::LilReadCustReg, {index},
            {WireType(state->elementType.width)});
        read->setAttr("reg", state->name);
        markSpawn(read, in_spawn);
        mapping_[op.result()] = read->result();
    }

    void
    lowerSet(const Operation &op, bool in_spawn)
    {
        const StateInfo *state = isa_.findState(op.strAttr("state"));
        if (!state)
            error("unknown state '" + op.strAttr("state") + "'");
        bool indexed = op.hasAttr("indexed");
        Value *index_hir = indexed ? op.operand(0) : nullptr;
        Value *value = mapped(op.operand(indexed ? 1 : 0));
        Value *pred = mapped(op.operand(indexed ? 2 : 1));

        if (state->isCoreState && state->name == "X") {
            if (!indexed || !fieldAt(index_hir, rdInstrLsb))
                error("writes to the standard register file are only "
                      "possible via the rd encoding field (instruction "
                      "bits 11:7)");
            Operation *write = out_->append(OpKind::LilWriteRd,
                                            {value, pred}, {});
            markSpawn(write, in_spawn);
            return;
        }
        if (state->isCoreState && state->name == "PC") {
            Value *pc = resizeByType(op.operand(indexed ? 1 : 0), value,
                                     32);
            Operation *write = out_->append(OpKind::LilWritePC,
                                            {pc, pred}, {});
            markSpawn(write, in_spawn);
            return;
        }
        if (state->isCoreState)
            error("unsupported core state '" + state->name + "'");

        unsigned aw = state->indexWidth();
        Value *index;
        if (state->isArray()) {
            if (!indexed)
                error("custom register file '" + state->name +
                      "' must be indexed");
            index = resizeByType(index_hir, mapped(index_hir), aw);
        } else {
            index = combConstant(ApInt(aw, 0));
        }
        Operation *addr = out_->append(OpKind::LilWriteCustRegAddr,
                                       {index}, {});
        addr->setAttr("reg", state->name);
        markSpawn(addr, in_spawn);
        Operation *data = out_->append(OpKind::LilWriteCustRegData,
                                       {value, pred}, {});
        data->setAttr("reg", state->name);
        markSpawn(data, in_spawn);
    }

    /** A pure HIR op, by its hir.def recipe (ir::hirRecipe), which
     * ir::evaluate folds by as well. */
    void
    lowerCompute(const Operation &op)
    {
        const ir::HirRecipe r = ir::hirRecipe(op);
        std::vector<Value *> in;
        for (unsigned i = 0; i < op.numOperands(); ++i) {
            Value *v = mapped(op.operand(i));
            in.push_back(r.extends(i)
                             ? resizeByType(op.operand(i), v, r.width)
                             : v);
        }
        if (r.onesRhs)
            in.push_back(combConstant(ApInt::allOnes(r.width)));
        Value *result = in.empty() ? nullptr : in[0];
        if (r.comb == ir::CombOp::Extract) {
            // extract() does not emit an extract of the whole value.
            result = extract(in[0], r.attrs.lo, r.combWidth);
        } else if (r.comb) {
            Operation *c = out_->append(ir::opKindOf(*r.comb),
                                        std::move(in),
                                        {WireType(r.combWidth)});
            ir::setCombAttrs(*c, *r.comb, r.attrs);
            result = c->result();
        }
        mapping_[op.result()] = resize(result, op.result()->type.width,
                                       op.result()->type.isSigned);
    }

    const ElaboratedIsa &isa_;
    DiagnosticEngine &diags_;
    const InstrInfo *instr_ = nullptr;
    Graph *out_ = nullptr;
    Value *instrWord_ = nullptr;
    std::map<const Value *, Value *> mapping_;
};

} // namespace

std::unique_ptr<LilGraph>
lowerInstructionToLil(const ElaboratedIsa &isa,
                      const hir::HirInstruction &instr,
                      DiagnosticEngine &diags)
{
    DiagnosticEngine::ContextScope scope(diags, Phase::Lil, "LN1004");
    auto out = std::make_unique<LilGraph>();
    out->name = instr.name;
    out->instr = instr.info;
    out->maskString = instr.info->maskString;
    LilLowerer lowerer(isa, diags);
    if (!lowerer.lower(instr.body, instr.info, *out))
        return nullptr;
    hir::canonicalize(out->graph);
    if (!checkInterfaceUsage(*out, diags))
        return nullptr;
    return out;
}

std::unique_ptr<LilGraph>
lowerAlwaysToLil(const ElaboratedIsa &isa, const hir::HirAlways &always,
                 DiagnosticEngine &diags)
{
    DiagnosticEngine::ContextScope scope(diags, Phase::Lil, "LN1004");
    auto out = std::make_unique<LilGraph>();
    out->name = always.name;
    out->isAlways = true;
    LilLowerer lowerer(isa, diags);
    if (!lowerer.lower(always.body, nullptr, *out))
        return nullptr;
    hir::canonicalize(out->graph);
    if (!checkInterfaceUsage(*out, diags))
        return nullptr;
    return out;
}

std::unique_ptr<LilModule>
lowerToLil(const hir::HirModule &mod, DiagnosticEngine &diags)
{
    DiagnosticEngine::ContextScope scope(diags, Phase::Lil, "LN1004");
    if (failpoint::fire("lil") != failpoint::Mode::Off) {
        diags.error({}, "LN1904", "injected fault at failpoint 'lil'");
        return nullptr;
    }
    auto out = std::make_unique<LilModule>();
    out->isa = mod.isa;
    for (const auto &instr : mod.instructions) {
        auto g = lowerInstructionToLil(*mod.isa, *instr, diags);
        if (!g)
            return nullptr;
        out->graphs.push_back(std::move(g));
    }
    for (const auto &always : mod.alwaysBlocks) {
        auto g = lowerAlwaysToLil(*mod.isa, *always, diags);
        if (!g)
            return nullptr;
        out->graphs.push_back(std::move(g));
    }
    return out;
}

bool
checkInterfaceUsage(const LilGraph &graph, DiagnosticEngine &diags)
{
    std::map<std::string, unsigned> uses;
    std::map<std::string, SourceLoc> first_use;
    for (const auto &op : graph.graph.ops()) {
        // The instruction word may feed many extracts but is a single
        // port; multiple lil.instr_word ops would still be one port,
        // so only true sub-interface duplicates are errors.
        if (!ir::isInterfaceOp(op->kind()) ||
            op->kind() == OpKind::LilInstrWord)
            continue;
        std::string key = op->name();
        if (op->hasAttr("reg"))
            key += ":" + op->strAttr("reg");
        if (++uses[key] == 1)
            first_use[key] = op->loc();
    }
    bool ok = true;
    for (const auto &[key, count] : uses) {
        if (count > 1) {
            diags.error(first_use[key],
                        "'" + graph.name + "' uses sub-interface " +
                            key + " " + std::to_string(count) +
                            " times; SCAIE-V allows one use per "
                            "instruction (Sec. 3.1)");
            ok = false;
        }
    }
    return ok;
}

} // namespace lil
} // namespace longnail
