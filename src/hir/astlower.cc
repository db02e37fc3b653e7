#include "hir/astlower.hh"

#include <map>
#include <set>

#include "coredsl/sema.hh"
#include "ir/eval.hh"
#include "support/failpoint.hh"
#include "support/logging.hh"

namespace longnail {
namespace hir {

using coredsl::AlwaysInfo;
using coredsl::AssignExpr;
using coredsl::BinaryExpr;
using coredsl::BinOp;
using coredsl::BlockStmt;
using coredsl::CallExpr;
using coredsl::CastExpr;
using coredsl::ConcatExpr;
using coredsl::ConditionalExpr;
using coredsl::ElaboratedIsa;
using coredsl::Expr;
using coredsl::ExprStmt;
using coredsl::ForStmt;
using coredsl::FunctionInfo;
using coredsl::IfStmt;
using coredsl::IndexExpr;
using coredsl::InstrInfo;
using coredsl::IntLitExpr;
using coredsl::RangeIndexExpr;
using coredsl::RefExpr;
using coredsl::ReturnStmt;
using coredsl::SpawnStmt;
using coredsl::StateInfo;
using coredsl::Stmt;
using coredsl::Type;
using coredsl::TypedConst;
using coredsl::UnaryExpr;
using coredsl::VarDeclStmt;
using ir::Graph;
using ir::ICmpPred;
using ir::Operation;
using ir::OpKind;
using ir::Value;
using ir::WireType;

const HirInstruction *
HirModule::findInstruction(const std::string &name) const
{
    for (const auto &i : instructions)
        if (i->name == name)
            return i.get();
    return nullptr;
}

const HirAlways *
HirModule::findAlways(const std::string &name) const
{
    for (const auto &a : alwaysBlocks)
        if (a->name == name)
            return a.get();
    return nullptr;
}

std::string
HirModule::print() const
{
    std::string out;
    for (const auto &i : instructions) {
        out += "instruction @" + i->name + " {\n";
        out += i->body.print();
        out += "}\n";
    }
    for (const auto &a : alwaysBlocks) {
        out += "always @" + a->name + " {\n";
        out += a->body.print();
        out += "}\n";
    }
    return out;
}

namespace {

/** Signals an already-diagnosed lowering failure. */
struct LowerError {};

class Lowerer
{
  public:
    Lowerer(const ElaboratedIsa &isa, DiagnosticEngine &diags,
            LowerOptions options)
        : isa_(isa), diags_(diags), options_(options)
    {}

    bool
    lowerBehavior(const Stmt &behavior, const InstrInfo *instr, Graph &out)
    {
        instr_ = instr;
        graphStack_ = {&out};
        frame_ = Frame{};
        fieldCache_.clear();
        getCache_.clear();
        spawnSeen_ = false;
        curPred_ = nullptr;
        try {
            lowerStmt(behavior);
            flushStateWrites(frame_, out);
            out.append(OpKind::CoredslEnd, {}, {});
        } catch (const LowerError &) {
            return false;
        }
        return !diags_.hasErrors();
    }

  private:
    // ------------------------------------------------------------------
    // Environment
    // ------------------------------------------------------------------

    /** A pending, coalesced write to one state element. */
    struct StateWrite
    {
        Value *value = nullptr;
        Value *pred = nullptr;  ///< i1, never null
        Value *index = nullptr; ///< for register files / MEM addresses
        SourceLoc loc;
    };

    /** Value environment; copied at control-flow splits. */
    struct Frame
    {
        std::map<std::string, Value *> vars;
        std::map<std::string, TypedConst> consts;
        /** Compile-time known values of runtime locals; powers
         * while-loop unrolling and switch resolution. */
        std::map<std::string, TypedConst> shadows;
        /** Current (possibly written) value of scalar state. */
        std::map<std::string, Value *> stateValues;
        std::map<std::string, StateWrite> stateWrites;
    };

    Graph &g() { return *graphStack_.back(); }

    [[noreturn]] void
    error(SourceLoc loc, const std::string &msg)
    {
        diags_.error(loc, msg);
        throw LowerError{};
    }

    std::map<std::string, TypedConst>
    constEnv() const
    {
        std::map<std::string, TypedConst> env = isa_.parameters;
        for (const auto &[k, v] : frame_.shadows)
            env[k] = v;
        for (const auto &[k, v] : frame_.consts)
            env[k] = v;
        return env;
    }

    /** Compile-time value of an IR value, if derivable (bounded). */
    std::optional<TypedConst>
    tryConstOf(Value *value, int depth = 8) const
    {
        if (!value || depth == 0)
            return std::nullopt;
        const ir::Operation *op = value->owner;
        if (op->kind() == OpKind::HwConstant) {
            TypedConst c;
            c.type = Type(value->type.isSigned, value->type.width);
            c.value = op->apAttr("value");
            return c;
        }
        if (!ir::isPureComputation(op->kind()) || op->numResults() != 1)
            return std::nullopt;
        std::vector<ApInt> operands;
        for (unsigned i = 0; i < op->numOperands(); ++i) {
            auto c = tryConstOf(op->operand(i), depth - 1);
            if (!c)
                return std::nullopt;
            operands.push_back(c->value);
        }
        auto result = ir::evaluate(*op, operands);
        if (!result)
            return std::nullopt;
        TypedConst c;
        c.type = Type(value->type.isSigned, value->type.width);
        c.value = *result;
        return c;
    }

    /** Track the compile-time shadow of local @p name. */
    void
    updateShadow(const std::string &name, Value *value)
    {
        auto c = tryConstOf(value);
        if (c)
            frame_.shadows[name] = *c;
        else
            frame_.shadows.erase(name);
    }

    // ------------------------------------------------------------------
    // Small IR helpers
    // ------------------------------------------------------------------

    Value *
    constant(const ApInt &value, Type type)
    {
        Operation *op = g().append(OpKind::HwConstant, {},
                                   {wireType(type)});
        ApInt adjusted = type.isSigned
                             ? value.sextOrTrunc(type.width)
                             : value.zextOrTrunc(type.width);
        op->setAttr("value", adjusted);
        return op->result();
    }

    Value *constTrue() { return constant(ApInt(1, 1), Type::makeBool()); }
    Value *constFalse() { return constant(ApInt(1, 0), Type::makeBool()); }

    Value *
    cast(Value *v, Type type)
    {
        if (v->type == wireType(type))
            return v;
        Operation *op = g().append(OpKind::CoredslCast, {v},
                                   {wireType(type)});
        return op->result();
    }

    /** Convert an arbitrary integer value to an i1 truth value. */
    Value *
    toBool(Value *v)
    {
        if (v->type.width == 1 && !v->type.isSigned)
            return v;
        Value *zero = constant(ApInt(v->type.width, 0),
                               Type(v->type.isSigned, v->type.width));
        Operation *op = g().append(OpKind::HwICmp, {v, zero},
                                   {WireType(1, false)});
        op->setAttr("pred", int64_t(ICmpPred::Ne));
        return op->result();
    }

    Value *
    predAnd(Value *a, Value *b)
    {
        if (!a)
            return b;
        if (!b)
            return a;
        return g().append(OpKind::HwAnd, {a, b}, {WireType(1)})->result();
    }

    Value *
    predNot(Value *a)
    {
        return g().append(OpKind::HwNot, {a}, {WireType(1)})->result();
    }

    Value *
    mux(Value *cond, Value *if_true, Value *if_false)
    {
        if (if_true == if_false)
            return if_true;
        if (if_true->type != if_false->type)
            LN_PANIC("mux arm type mismatch: ", if_true->type.str(),
                     " vs ", if_false->type.str());
        return g().append(OpKind::HwMux, {cond, if_true, if_false},
                          {if_true->type})->result();
    }

    /** Current predicate as an explicit i1 (constant true if none). */
    Value *
    predValue()
    {
        return curPred_ ? curPred_ : constTrue();
    }

    // ------------------------------------------------------------------
    // State access
    // ------------------------------------------------------------------

    const StateInfo *
    stateOf(const std::string &name, SourceLoc loc)
    {
        const StateInfo *s = isa_.findState(name);
        if (!s)
            error(loc, "unknown state element '" + name + "'");
        return s;
    }

    /** Architectural (pre-write) value of a state element. */
    Value *
    readStateRaw(const StateInfo &state, Value *index)
    {
        auto key = std::make_pair(state.name, index);
        auto it = getCache_.find(key);
        if (it != getCache_.end())
            return it->second;
        Operation *op;
        if (state.isConst) {
            std::vector<Value *> rom_operands;
            if (index)
                rom_operands.push_back(index);
            op = g().append(OpKind::CoredslRom, std::move(rom_operands),
                            {wireType(state.elementType)});
            op->setAttr("state", state.name);
            std::vector<ApInt> values = state.constValues;
            op->setAttr("values", std::move(values));
        } else {
            std::vector<Value *> operands;
            if (index)
                operands.push_back(index);
            op = g().append(OpKind::CoredslGet, operands,
                            {wireType(state.elementType)});
            op->setAttr("state", state.name);
        }
        getCache_[key] = op->result();
        return op->result();
    }

    /** Current value of scalar state, honoring earlier writes. */
    Value *
    readScalarState(const StateInfo &state)
    {
        auto it = frame_.stateValues.find(state.name);
        if (it != frame_.stateValues.end())
            return it->second;
        Value *v = readStateRaw(state, nullptr);
        frame_.stateValues[state.name] = v;
        return v;
    }

    void
    recordWrite(const StateInfo &state, Value *index, Value *value,
                SourceLoc loc)
    {
        if (state.isConst)
            error(loc, "cannot write constant register '" + state.name +
                           "'");
        Value *pred = predValue();
        auto it = frame_.stateWrites.find(state.name);
        if (it == frame_.stateWrites.end()) {
            frame_.stateWrites[state.name] = {value, pred, index, loc};
        } else {
            StateWrite &w = it->second;
            // Later write wins when its predicate holds.
            if (curPred_) {
                w.value = mux(curPred_, value, w.value);
                if (index && w.index && index != w.index)
                    w.index = mux(curPred_, index, w.index);
                else if (index)
                    w.index = index;
                w.pred = g().append(OpKind::HwOr, {w.pred, pred},
                                    {WireType(1)})->result();
            } else {
                w.value = value;
                w.index = index;
                w.pred = pred;
            }
            w.loc = loc;
        }
        // Subsequent reads of scalar state observe the merged value.
        if (!state.isArray() &&
            state.kind == StateInfo::Kind::Register) {
            if (curPred_) {
                Value *old = frame_.stateValues.count(state.name)
                                 ? frame_.stateValues[state.name]
                                 : readStateRaw(state, nullptr);
                frame_.stateValues[state.name] = mux(curPred_, value,
                                                     old);
            } else {
                frame_.stateValues[state.name] = value;
            }
        }
    }

    /** Emit the coalesced coredsl.set / set_mem ops of @p frame. */
    void
    flushStateWrites(Frame &frame, Graph &target)
    {
        // Note: emission order follows the map (name) order; the ops are
        // dataflow nodes whose timing is decided by the scheduler.
        for (auto &[name, w] : frame.stateWrites) {
            target.setDefaultLoc(w.loc);
            if (name == "MEM") {
                Operation *op = target.append(
                    OpKind::CoredslSetMem, {w.index, w.value, w.pred},
                    {});
                op->setAttr("state", name);
                op->setAttr("bytes",
                            int64_t(w.value->type.width / 8));
                continue;
            }
            const StateInfo *state = isa_.findState(name);
            std::vector<Value *> operands;
            if (state && state->isArray())
                operands.push_back(w.index);
            operands.push_back(w.value);
            operands.push_back(w.pred);
            Operation *op = target.append(OpKind::CoredslSet, operands,
                                          {});
            op->setAttr("state", name);
            if (state && state->isArray())
                op->setAttr("indexed", int64_t(1));
        }
        frame.stateWrites.clear();
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    void
    lowerStmt(const Stmt &stmt)
    {
        g().setDefaultLoc(stmt.loc);
        switch (stmt.kind) {
          case Stmt::Kind::Block: {
            const auto &block = static_cast<const BlockStmt &>(stmt);
            // Names declared in the block go out of scope afterwards;
            // assignments to outer variables persist.
            std::set<std::string> var_names, const_names;
            for (const auto &[k, v] : frame_.vars)
                var_names.insert(k);
            for (const auto &[k, v] : frame_.consts)
                const_names.insert(k);
            for (const auto &s : block.stmts)
                lowerStmt(*s);
            std::erase_if(frame_.vars, [&](const auto &kv) {
                return !var_names.count(kv.first);
            });
            std::erase_if(frame_.consts, [&](const auto &kv) {
                return !const_names.count(kv.first);
            });
            std::erase_if(frame_.shadows, [&](const auto &kv) {
                return var_names.count(kv.first) ||
                       const_names.count(kv.first)
                           ? false
                           : true;
            });
            break;
          }
          case Stmt::Kind::VarDecl: {
            const auto &decl = static_cast<const VarDeclStmt &>(stmt);
            Value *init;
            if (decl.init) {
                init = cast(lowerExpr(*decl.init), decl.resolvedType);
            } else {
                init = constant(ApInt(decl.resolvedType.width, 0),
                                decl.resolvedType);
            }
            frame_.vars[decl.name] = init;
            updateShadow(decl.name, init);
            break;
          }
          case Stmt::Kind::ExprStmt:
            lowerExpr(*static_cast<const ExprStmt &>(stmt).expr);
            break;
          case Stmt::Kind::If:
            lowerIf(static_cast<const IfStmt &>(stmt));
            break;
          case Stmt::Kind::For:
            lowerFor(static_cast<const ForStmt &>(stmt));
            break;
          case Stmt::Kind::While:
            lowerWhile(static_cast<const coredsl::WhileStmt &>(stmt));
            break;
          case Stmt::Kind::Switch:
            lowerSwitch(static_cast<const coredsl::SwitchStmt &>(stmt));
            break;
          case Stmt::Kind::Break:
            error(stmt.loc, "'break' outside of a switch");
            break;
          case Stmt::Kind::Return: {
            const auto &ret = static_cast<const ReturnStmt &>(stmt);
            if (inlineDepth_ == 0)
                error(ret.loc, "'return' outside of a function");
            if (returnValue_)
                error(ret.loc, "only a single trailing 'return' is "
                               "supported per function");
            returnValue_ = ret.value ? lowerExpr(*ret.value)
                                     : constFalse();
            break;
          }
          case Stmt::Kind::Spawn:
            lowerSpawn(static_cast<const SpawnStmt &>(stmt));
            break;
        }
    }

    void
    lowerIf(const IfStmt &stmt)
    {
        // Attempt compile-time resolution first (used in unrolled
        // loops with iteration-dependent conditions).
        if (auto c = evalConst(*stmt.cond, constEnv())) {
            if (!c->value.isZero())
                lowerStmt(*stmt.thenStmt);
            else if (stmt.elseStmt)
                lowerStmt(*stmt.elseStmt);
            return;
        }

        Value *cond = toBool(lowerExpr(*stmt.cond));

        Frame original = frame_;
        Value *saved_pred = curPred_;

        curPred_ = predAnd(saved_pred, cond);
        lowerStmt(*stmt.thenStmt);
        Frame then_frame = std::move(frame_);

        frame_ = original;
        Frame else_frame;
        curPred_ = predAnd(saved_pred, predNot(cond));
        if (stmt.elseStmt)
            lowerStmt(*stmt.elseStmt);
        else_frame = std::move(frame_);

        curPred_ = saved_pred;
        frame_ = mergeFrames(original, cond, then_frame, else_frame,
                             stmt.loc);
    }

    Frame
    mergeFrames(const Frame &original, Value *cond, Frame &then_frame,
                Frame &else_frame, SourceLoc loc)
    {
        Frame merged;
        // Compile-time constants must not diverge across branches.
        for (const auto &[k, v] : original.consts) {
            auto t = then_frame.consts.find(k);
            auto e = else_frame.consts.find(k);
            if (t == then_frame.consts.end() ||
                e == else_frame.consts.end() ||
                !(t->second.value == e->second.value))
                error(loc, "loop induction variable '" + k +
                               "' may not be modified in a branch");
            merged.consts[k] = v;
        }
        // Runtime variables: mux differing values.
        for (const auto &[k, v] : original.vars) {
            Value *tv = then_frame.vars.at(k);
            Value *ev = else_frame.vars.at(k);
            merged.vars[k] = (tv == ev) ? tv : mux(cond, tv, ev);
            auto ts = then_frame.shadows.find(k);
            auto es = else_frame.shadows.find(k);
            if (ts != then_frame.shadows.end() &&
                es != else_frame.shadows.end() &&
                ts->second.value == es->second.value &&
                ts->second.type == es->second.type)
                merged.shadows[k] = ts->second;
        }
        // Current state values.
        std::set<std::string> state_keys;
        for (const auto &[k, v] : then_frame.stateValues)
            state_keys.insert(k);
        for (const auto &[k, v] : else_frame.stateValues)
            state_keys.insert(k);
        for (const std::string &k : state_keys) {
            Value *tv = lookupStateValue(then_frame, k, loc);
            Value *ev = lookupStateValue(else_frame, k, loc);
            merged.stateValues[k] = (tv == ev) ? tv : mux(cond, tv, ev);
        }
        // Pending writes. Per-branch predicates already include the
        // branch condition, so a simple mux/or merge is sound.
        std::set<std::string> write_keys;
        for (const auto &[k, w] : then_frame.stateWrites)
            write_keys.insert(k);
        for (const auto &[k, w] : else_frame.stateWrites)
            write_keys.insert(k);
        for (const std::string &k : write_keys) {
            auto t = then_frame.stateWrites.find(k);
            auto e = else_frame.stateWrites.find(k);
            if (t != then_frame.stateWrites.end() &&
                e != else_frame.stateWrites.end()) {
                StateWrite w;
                w.value = mux(cond, t->second.value, e->second.value);
                w.pred = mux(cond, t->second.pred, e->second.pred);
                if (t->second.index && e->second.index) {
                    w.index = (t->second.index == e->second.index)
                                  ? t->second.index
                                  : mux(cond, t->second.index,
                                        e->second.index);
                }
                w.loc = t->second.loc;
                merged.stateWrites[k] = w;
            } else if (t != then_frame.stateWrites.end()) {
                merged.stateWrites[k] = t->second;
            } else {
                merged.stateWrites[k] = e->second;
            }
        }
        return merged;
    }

    Value *
    lookupStateValue(Frame &frame, const std::string &name, SourceLoc loc)
    {
        auto it = frame.stateValues.find(name);
        if (it != frame.stateValues.end())
            return it->second;
        const StateInfo *state = stateOf(name, loc);
        return readStateRaw(*state, nullptr);
    }

    void
    lowerFor(const ForStmt &stmt)
    {
        // Loops are interpreted at compile time and fully unrolled
        // (Sec. 2.4: "loops with known trip counts").
        if (!stmt.init || stmt.init->kind != Stmt::Kind::VarDecl)
            error(stmt.loc, "for-loops must declare their induction "
                            "variable in the init clause");
        const auto &decl = static_cast<const VarDeclStmt &>(*stmt.init);
        if (!decl.init)
            error(decl.loc, "loop induction variable needs a "
                            "compile-time initializer");
        auto init = evalConst(*decl.init, constEnv());
        if (!init)
            error(decl.loc, "loop bounds must be compile-time constants");

        TypedConst iv;
        iv.type = decl.resolvedType;
        iv.value = init->type.isSigned
                       ? init->value.sextOrTrunc(iv.type.width)
                       : init->value.zextOrTrunc(iv.type.width);

        bool shadowed = frame_.consts.count(decl.name) > 0;
        TypedConst shadowed_value;
        if (shadowed)
            shadowed_value = frame_.consts[decl.name];

        unsigned iterations = 0;
        while (true) {
            frame_.consts[decl.name] = iv;
            auto cond = evalConst(*stmt.cond, constEnv());
            if (!cond)
                error(stmt.loc,
                      "loop condition is not compile-time evaluable");
            if (cond->value.isZero())
                break;
            if (++iterations > options_.maxUnrollIterations)
                error(stmt.loc, "loop exceeds the unroll limit of " +
                                    std::to_string(
                                        options_.maxUnrollIterations) +
                                    " iterations");
            lowerStmt(*stmt.body);
            // The body must not disturb the induction variable.
            if (!(frame_.consts.at(decl.name).value == iv.value))
                error(stmt.loc, "loop body may not modify the induction "
                                "variable");
            if (!stmt.step)
                error(stmt.loc, "for-loops require a step expression");
            iv = evalStep(*stmt.step, decl.name, iv);
        }

        if (shadowed)
            frame_.consts[decl.name] = shadowed_value;
        else
            frame_.consts.erase(decl.name);
    }

    /** Interpret i OP= expr, ++i, i++, --i, i--, i = expr. */
    TypedConst
    evalStep(const Expr &step, const std::string &name, TypedConst iv)
    {
        auto env = constEnv();
        env[name] = iv;
        if (step.kind == Expr::Kind::Assign) {
            const auto &assign = static_cast<const AssignExpr &>(step);
            if (assign.lhs->kind != Expr::Kind::Ref ||
                static_cast<const RefExpr &>(*assign.lhs).name != name)
                error(step.loc, "loop step must update the induction "
                                "variable");
            auto rhs = evalConst(*assign.rhs, env);
            if (!rhs)
                error(step.loc, "loop step is not compile-time "
                                "evaluable");
            if (assign.compoundOp) {
                // iv OP= rhs is iv = iv OP rhs wrapped to iv's type, in
                // the constant evaluator's semantics.
                rhs = coredsl::evalBinary(*assign.compoundOp, iv, *rhs);
                if (!rhs)
                    error(step.loc, "loop step is not compile-time "
                                    "evaluable");
            }
            TypedConst next;
            next.type = iv.type;
            next.value = adjustTo(*rhs, iv.type);
            return next;
        }
        if (step.kind == Expr::Kind::Unary) {
            const auto &unary = static_cast<const UnaryExpr &>(step);
            bool inc = unary.op == UnaryExpr::Op::PreInc ||
                       unary.op == UnaryExpr::Op::PostInc;
            bool dec = unary.op == UnaryExpr::Op::PreDec ||
                       unary.op == UnaryExpr::Op::PostDec;
            if ((inc || dec) &&
                unary.operand->kind == Expr::Kind::Ref &&
                static_cast<const RefExpr &>(*unary.operand).name ==
                    name) {
                ApInt one(iv.type.width, 1);
                TypedConst next;
                next.type = iv.type;
                next.value = inc ? iv.value + one : iv.value - one;
                return next;
            }
        }
        error(step.loc, "unsupported loop step expression");
    }

    static ApInt
    adjustTo(const TypedConst &c, Type target)
    {
        return c.type.isSigned ? c.value.sextOrTrunc(target.width)
                               : c.value.zextOrTrunc(target.width);
    }

    void
    lowerWhile(const coredsl::WhileStmt &stmt)
    {
        // While-loops are interpreted at compile time like for-loops;
        // the condition must stay compile-time evaluable, which the
        // local shadow tracking provides for straight-line updates
        // (e.g. "i = i + 1").
        unsigned iterations = 0;
        while (true) {
            auto cond = evalConst(*stmt.cond, constEnv());
            if (!cond)
                error(stmt.loc,
                      "while-loop condition is not compile-time "
                      "evaluable (loops need known trip counts)");
            if (cond->value.isZero())
                break;
            if (++iterations > options_.maxUnrollIterations)
                error(stmt.loc, "loop exceeds the unroll limit of " +
                                    std::to_string(
                                        options_.maxUnrollIterations) +
                                    " iterations");
            lowerStmt(*stmt.body);
        }
    }

    /** Lower a statement list with block scoping. */
    void
    lowerScopedList(const std::vector<coredsl::StmtPtr> &stmts)
    {
        std::set<std::string> var_names, const_names;
        for (const auto &[k, v] : frame_.vars)
            var_names.insert(k);
        for (const auto &[k, v] : frame_.consts)
            const_names.insert(k);
        for (const auto &s : stmts)
            lowerStmt(*s);
        std::erase_if(frame_.vars, [&](const auto &kv) {
            return !var_names.count(kv.first);
        });
        std::erase_if(frame_.consts, [&](const auto &kv) {
            return !const_names.count(kv.first);
        });
        std::erase_if(frame_.shadows, [&](const auto &kv) {
            return !var_names.count(kv.first) &&
                   !const_names.count(kv.first);
        });
    }

    void
    lowerSwitch(const coredsl::SwitchStmt &stmt)
    {
        const coredsl::SwitchCase *default_arm = nullptr;
        std::vector<const coredsl::SwitchCase *> valued;
        for (const auto &arm : stmt.cases) {
            if (arm.values.empty())
                default_arm = &arm;
            else
                valued.push_back(&arm);
        }

        // Compile-time subject: select the arm statically.
        if (auto subject = evalConst(*stmt.subject, constEnv())) {
            for (const auto *arm : valued) {
                for (const auto &value : arm->values) {
                    auto c = evalConst(*value, constEnv());
                    if (c &&
                        adjustTo(*c, subject->type) == subject->value) {
                        lowerScopedList(arm->body);
                        return;
                    }
                }
            }
            if (default_arm)
                lowerScopedList(default_arm->body);
            return;
        }

        Value *subject = lowerExpr(*stmt.subject);
        lowerSwitchChain(subject, *stmt.subject, valued, 0, default_arm);
    }

    void
    lowerSwitchChain(Value *subject, const Expr &subject_expr,
                     const std::vector<const coredsl::SwitchCase *> &arms,
                     size_t index, const coredsl::SwitchCase *default_arm)
    {
        if (index == arms.size()) {
            if (default_arm)
                lowerScopedList(default_arm->body);
            return;
        }
        const coredsl::SwitchCase &arm = *arms[index];
        // cond = (subject == v0) | (subject == v1) | ...
        Value *cond = nullptr;
        for (const auto &value : arm.values) {
            Value *v = lowerExpr(*value);
            Value *eq = applyBinary(BinOp::Eq, subject, v,
                                    Type::makeBool());
            cond = cond ? g().append(OpKind::HwOr, {cond, eq},
                                     {ir::WireType(1)})->result()
                        : eq;
        }

        Frame original = frame_;
        Value *saved_pred = curPred_;

        curPred_ = predAnd(saved_pred, cond);
        lowerScopedList(arm.body);
        Frame then_frame = std::move(frame_);

        frame_ = original;
        curPred_ = predAnd(saved_pred, predNot(cond));
        lowerSwitchChain(subject, subject_expr, arms, index + 1,
                         default_arm);
        Frame else_frame = std::move(frame_);

        curPred_ = saved_pred;
        frame_ = mergeFrames(original, cond, then_frame, else_frame,
                             arm.loc);
    }

    void
    lowerSpawn(const SpawnStmt &stmt)
    {
        if (graphStack_.size() != 1)
            error(stmt.loc, "nested 'spawn' blocks are not supported");
        if (spawnSeen_)
            error(stmt.loc, "at most one 'spawn' block per instruction");
        if (curPred_)
            error(stmt.loc, "'spawn' may not appear under a condition");
        spawnSeen_ = true;

        // Writes before the spawn commit in-pipeline; flush them first.
        flushStateWrites(frame_, g());

        // Values created inside the spawn subgraph must not leak into
        // operations appended to the outer graph afterwards.
        auto saved_get_cache = getCache_;
        auto saved_state_values = frame_.stateValues;

        Operation *spawn = g().appendWithSubgraph(OpKind::CoredslSpawn);
        graphStack_.push_back(spawn->subgraph());
        lowerStmt(*stmt.body);
        flushStateWrites(frame_, *spawn->subgraph());
        graphStack_.pop_back();

        getCache_ = std::move(saved_get_cache);
        frame_.stateValues = std::move(saved_state_values);
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    Value *
    lowerExpr(const Expr &expr)
    {
        g().setDefaultLoc(expr.loc);
        // Anything that folds at compile time becomes a constant.
        if (expr.kind != Expr::Kind::Assign &&
            expr.kind != Expr::Kind::Unary) {
            if (auto c = evalConst(expr, constEnv()))
                return constant(c->value, expr.type);
        }
        switch (expr.kind) {
          case Expr::Kind::IntLit: {
            const auto &lit = static_cast<const IntLitExpr &>(expr);
            return constant(lit.value, expr.type);
          }
          case Expr::Kind::Ref:
            return lowerRef(static_cast<const RefExpr &>(expr));
          case Expr::Kind::Index:
            return lowerIndex(static_cast<const IndexExpr &>(expr));
          case Expr::Kind::RangeIndex:
            return lowerRangeIndex(
                static_cast<const RangeIndexExpr &>(expr));
          case Expr::Kind::Call:
            return lowerCall(static_cast<const CallExpr &>(expr));
          case Expr::Kind::Unary:
            return lowerUnary(static_cast<const UnaryExpr &>(expr));
          case Expr::Kind::Binary:
            return lowerBinary(static_cast<const BinaryExpr &>(expr));
          case Expr::Kind::Assign:
            return lowerAssign(static_cast<const AssignExpr &>(expr));
          case Expr::Kind::Conditional: {
            const auto &cond =
                static_cast<const ConditionalExpr &>(expr);
            Value *c = toBool(lowerExpr(*cond.cond));
            Value *t = cast(lowerExpr(*cond.thenExpr), expr.type);
            Value *f = cast(lowerExpr(*cond.elseExpr), expr.type);
            return mux(c, t, f);
          }
          case Expr::Kind::Cast: {
            const auto &c = static_cast<const CastExpr &>(expr);
            return cast(lowerExpr(*c.operand), expr.type);
          }
          case Expr::Kind::Concat: {
            const auto &cc = static_cast<const ConcatExpr &>(expr);
            Value *hi = lowerExpr(*cc.lhs);
            Value *lo = lowerExpr(*cc.rhs);
            return g().append(OpKind::CoredslConcat, {hi, lo},
                              {wireType(expr.type)})->result();
          }
        }
        LN_PANIC("unhandled expression kind");
    }

    Value *
    lowerRef(const RefExpr &ref)
    {
        auto var = frame_.vars.find(ref.name);
        if (var != frame_.vars.end())
            return var->second;
        if (instr_ && inlineDepth_ == 0) {
            auto field = instr_->fields.find(ref.name);
            if (field != instr_->fields.end())
                return fieldValue(ref.name, field->second.width);
        }
        if (const StateInfo *state = isa_.findState(ref.name)) {
            if (state->isConst)
                return readStateRaw(*state, nullptr);
            return readScalarState(*state);
        }
        error(ref.loc, "cannot lower reference to '" + ref.name + "'");
    }

    Value *
    fieldValue(const std::string &name, unsigned width)
    {
        auto it = fieldCache_.find(name);
        if (it != fieldCache_.end())
            return it->second;
        // Field ops live in the outermost graph so spawn bodies can use
        // them as well.
        Operation *op = graphStack_.front()->append(
            OpKind::CoredslField, {}, {WireType(width, false)});
        op->setAttr("field", name);
        fieldCache_[name] = op->result();
        return op->result();
    }

    Value *
    lowerIndex(const IndexExpr &index)
    {
        if (index.base->kind == Expr::Kind::Ref) {
            const auto &ref = static_cast<const RefExpr &>(*index.base);
            if (const StateInfo *state = isa_.findState(ref.name)) {
                if (state->kind == StateInfo::Kind::AddressSpace) {
                    Value *addr = cast(lowerExpr(*index.index),
                                       Type::makeUnsigned(32));
                    return readMem(addr, 1, index.loc);
                }
                Value *idx = lowerExpr(*index.index);
                return readStateRaw(*state, idx);
            }
        }
        // Single-bit select on a scalar value.
        Value *base = lowerExpr(*index.base);
        return extractDynamic(base, *index.index, 1, index.loc);
    }

    Value *
    lowerRangeIndex(const RangeIndexExpr &range)
    {
        unsigned span = range.type.width; // result width (bits)
        if (range.base->kind == Expr::Kind::Ref) {
            const auto &ref = static_cast<const RefExpr &>(*range.base);
            const StateInfo *state = isa_.findState(ref.name);
            if (state && state->kind == StateInfo::Kind::AddressSpace) {
                unsigned bytes = range.type.width /
                                 state->elementType.width;
                Value *addr = cast(lowerLowBound(*range.to),
                                   Type::makeUnsigned(32));
                return readMem(addr, bytes, range.loc);
            }
        }
        Value *base = lowerExpr(*range.base);
        return extractDynamic(base, *range.to, span, range.loc);
    }

    Value *
    lowerLowBound(const Expr &to)
    {
        return lowerExpr(to);
    }

    /** base[lo + span - 1 : lo] with possibly dynamic lo. */
    Value *
    extractDynamic(Value *base, const Expr &lo_expr, unsigned span,
                   SourceLoc loc)
    {
        if (auto lo = evalConst(lo_expr, constEnv())) {
            unsigned lo_bit = unsigned(lo->value.toUint64());
            if (lo_bit + span > base->type.width)
                error(loc, "bit range out of bounds");
            Operation *op = g().append(OpKind::CoredslExtract, {base},
                                       {WireType(span, false)});
            op->setAttr("lo", int64_t(lo_bit));
            return op->result();
        }
        // Dynamic low bound: shift right, then truncate.
        Value *amount = lowerExpr(lo_expr);
        // hwarith.shr keeps the lhs type; make the base unsigned first
        // so the shift is logical.
        Value *ubase = cast(base, Type::makeUnsigned(base->type.width));
        Value *shifted = g().append(OpKind::HwShr, {ubase, amount},
                                    {ubase->type})->result();
        return cast(shifted, Type::makeUnsigned(span));
    }

    Value *
    readMem(Value *addr, unsigned bytes, SourceLoc loc)
    {
        if (bytes > 4)
            error(loc, "memory reads wider than one 32-bit word are not "
                       "supported by the RdMem sub-interface");
        Operation *op = g().append(OpKind::CoredslGetMem,
                                   {addr, predValue()},
                                   {WireType(bytes * 8, false)});
        op->setAttr("state", std::string("MEM"));
        op->setAttr("bytes", int64_t(bytes));
        return op->result();
    }

    Value *
    lowerCall(const CallExpr &call)
    {
        const FunctionInfo *fn = isa_.findFunction(call.callee);
        if (!fn)
            error(call.loc, "call to unknown function '" + call.callee +
                                "'");
        if (inlineStack_.count(call.callee))
            error(call.loc, "recursive call to '" + call.callee +
                                "' cannot be synthesized");

        std::vector<Value *> args;
        for (size_t i = 0; i < call.args.size(); ++i) {
            Value *a = lowerExpr(*call.args[i]);
            args.push_back(cast(a, fn->paramTypes[i]));
        }

        // Inline: fresh local scope, shared state environment.
        auto saved_vars = std::move(frame_.vars);
        auto saved_consts = std::move(frame_.consts);
        frame_.vars.clear();
        frame_.consts.clear();
        for (size_t i = 0; i < args.size(); ++i)
            frame_.vars[fn->ast->params[i].name] = args[i];

        inlineStack_.insert(call.callee);
        ++inlineDepth_;
        Value *saved_return = returnValue_;
        returnValue_ = nullptr;

        lowerStmt(*fn->ast->body);

        Value *result = returnValue_;
        returnValue_ = saved_return;
        --inlineDepth_;
        inlineStack_.erase(call.callee);
        frame_.vars = std::move(saved_vars);
        frame_.consts = std::move(saved_consts);

        if (fn->returnType.isValid()) {
            if (!result)
                error(call.loc, "function '" + call.callee +
                                    "' did not return a value");
            return result;
        }
        return constFalse(); // void call used as a statement
    }

    Value *
    lowerUnary(const UnaryExpr &unary)
    {
        switch (unary.op) {
          case UnaryExpr::Op::Neg: {
            Value *operand = lowerExpr(*unary.operand);
            Value *widened =
                cast(operand, Type(unary.type.isSigned,
                                   unary.type.width));
            Value *zero = constant(ApInt(unary.type.width, 0),
                                   unary.type);
            return g().append(OpKind::HwSub, {zero, widened},
                              {wireType(unary.type)})->result();
          }
          case UnaryExpr::Op::BitNot: {
            Value *operand = lowerExpr(*unary.operand);
            return g().append(OpKind::HwNot, {operand},
                              {operand->type})->result();
          }
          case UnaryExpr::Op::LogicalNot: {
            Value *operand = lowerExpr(*unary.operand);
            return predNot(toBool(operand));
          }
          case UnaryExpr::Op::PreInc:
          case UnaryExpr::Op::PreDec:
          case UnaryExpr::Op::PostInc:
          case UnaryExpr::Op::PostDec: {
            bool inc = unary.op == UnaryExpr::Op::PreInc ||
                       unary.op == UnaryExpr::Op::PostInc;
            bool pre = unary.op == UnaryExpr::Op::PreInc ||
                       unary.op == UnaryExpr::Op::PreDec;
            Value *old = lowerExpr(*unary.operand);
            Value *one = constant(ApInt(old->type.width, 1),
                                  Type(old->type.isSigned,
                                       old->type.width));
            OpKind op = inc ? OpKind::HwAdd : OpKind::HwSub;
            WireType wide(old->type.width + 1, true);
            Value *next_wide =
                g().append(op, {old, one}, {wide})->result();
            Value *next = cast(next_wide, Type(old->type.isSigned,
                                               old->type.width));
            storeTo(*unary.operand, next, unary.loc);
            return pre ? next : old;
          }
        }
        LN_PANIC("unhandled unary operator");
    }

    Value *
    lowerBinary(const BinaryExpr &bin)
    {
        Value *lhs = lowerExpr(*bin.lhs);
        Value *rhs = lowerExpr(*bin.rhs);
        return applyBinary(bin.op, lhs, rhs, bin.type);
    }

    Value *
    applyBinary(BinOp op, Value *lhs, Value *rhs, Type result)
    {
        switch (op) {
          case BinOp::Add:
          case BinOp::Sub:
          case BinOp::Mul:
          case BinOp::Div:
          case BinOp::Rem: {
            OpKind kind = op == BinOp::Add   ? OpKind::HwAdd
                          : op == BinOp::Sub ? OpKind::HwSub
                          : op == BinOp::Mul ? OpKind::HwMul
                          : op == BinOp::Div ? OpKind::HwDiv
                                             : OpKind::HwRem;
            return g().append(kind, {lhs, rhs},
                              {wireType(result)})->result();
          }
          case BinOp::Shl:
          case BinOp::Shr: {
            OpKind kind = op == BinOp::Shl ? OpKind::HwShl
                                           : OpKind::HwShr;
            Value *v = g().append(kind, {lhs, rhs},
                                  {lhs->type})->result();
            return cast(v, result);
          }
          case BinOp::And:
          case BinOp::Or:
          case BinOp::Xor: {
            OpKind kind = op == BinOp::And  ? OpKind::HwAnd
                          : op == BinOp::Or ? OpKind::HwOr
                                            : OpKind::HwXor;
            return g().append(kind, {lhs, rhs},
                              {wireType(result)})->result();
          }
          case BinOp::Lt:
          case BinOp::Le:
          case BinOp::Gt:
          case BinOp::Ge:
          case BinOp::Eq:
          case BinOp::Ne: {
            bool any_signed = lhs->type.isSigned || rhs->type.isSigned;
            ICmpPred pred;
            switch (op) {
              case BinOp::Lt:
                pred = any_signed ? ICmpPred::Slt : ICmpPred::Ult;
                break;
              case BinOp::Le:
                pred = any_signed ? ICmpPred::Sle : ICmpPred::Ule;
                break;
              case BinOp::Gt:
                pred = any_signed ? ICmpPred::Sgt : ICmpPred::Ugt;
                break;
              case BinOp::Ge:
                pred = any_signed ? ICmpPred::Sge : ICmpPred::Uge;
                break;
              case BinOp::Eq: pred = ICmpPred::Eq; break;
              default: pred = ICmpPred::Ne; break;
            }
            Operation *cmp = g().append(OpKind::HwICmp, {lhs, rhs},
                                        {WireType(1, false)});
            cmp->setAttr("pred", int64_t(pred));
            return cmp->result();
          }
          case BinOp::LogicalAnd:
            return g().append(OpKind::HwAnd,
                              {toBool(lhs), toBool(rhs)},
                              {WireType(1)})->result();
          case BinOp::LogicalOr:
            return g().append(OpKind::HwOr,
                              {toBool(lhs), toBool(rhs)},
                              {WireType(1)})->result();
        }
        LN_PANIC("unhandled binary operator");
    }

    Value *
    lowerAssign(const AssignExpr &assign)
    {
        Value *rhs = lowerExpr(*assign.rhs);
        Value *value;
        if (assign.compoundOp) {
            Value *old = lowerExpr(*assign.lhs);
            Type op_type = resultType(*assign.compoundOp,
                                      assign.lhs->type,
                                      assign.rhs->type);
            Value *combined =
                applyBinary(*assign.compoundOp, old, rhs, op_type);
            value = cast(combined, assign.lhs->type); // wrap semantics
        } else {
            value = cast(rhs, assign.lhs->type);
        }
        storeTo(*assign.lhs, value, assign.loc);
        return value;
    }

    void
    storeTo(const Expr &lhs, Value *value, SourceLoc loc)
    {
        switch (lhs.kind) {
          case Expr::Kind::Ref: {
            const auto &ref = static_cast<const RefExpr &>(lhs);
            auto var = frame_.vars.find(ref.name);
            if (var != frame_.vars.end()) {
                var->second = value;
                if (curPred_)
                    frame_.shadows.erase(ref.name);
                else
                    updateShadow(ref.name, value);
                return;
            }
            const StateInfo *state = stateOf(ref.name, loc);
            recordWrite(*state, nullptr, value, loc);
            return;
          }
          case Expr::Kind::Index: {
            const auto &index = static_cast<const IndexExpr &>(lhs);
            const auto &ref =
                static_cast<const RefExpr &>(*index.base);
            const StateInfo *state = stateOf(ref.name, loc);
            if (state->kind == StateInfo::Kind::AddressSpace)
                error(loc, "single-byte memory stores are not supported "
                           "by the WrMem sub-interface; store a full "
                           "word");
            Value *idx = lowerExpr(*index.index);
            recordWrite(*state, idx, value, loc);
            return;
          }
          case Expr::Kind::RangeIndex: {
            const auto &range =
                static_cast<const RangeIndexExpr &>(lhs);
            const auto &ref =
                static_cast<const RefExpr &>(*range.base);
            const StateInfo *state = stateOf(ref.name, loc);
            if (state->kind != StateInfo::Kind::AddressSpace)
                error(loc, "bit-range assignment is only supported for "
                           "address spaces");
            unsigned bytes = value->type.width / 8;
            if (bytes != 4)
                error(loc, "memory stores must write exactly one 32-bit "
                           "word (WrMem sub-interface)");
            Value *addr = cast(lowerLowBound(*range.to),
                               Type::makeUnsigned(32));
            recordWrite(*state, addr, value, loc);
            return;
          }
          default:
            error(loc, "unsupported assignment target");
        }
    }

    // ------------------------------------------------------------------

    const ElaboratedIsa &isa_;
    DiagnosticEngine &diags_;
    LowerOptions options_;

    const InstrInfo *instr_ = nullptr;
    std::vector<Graph *> graphStack_;
    Frame frame_;
    Value *curPred_ = nullptr;
    bool spawnSeen_ = false;

    std::map<std::string, Value *> fieldCache_;
    std::map<std::pair<std::string, Value *>, Value *> getCache_;

    unsigned inlineDepth_ = 0;
    std::set<std::string> inlineStack_;
    Value *returnValue_ = nullptr;
};

} // namespace

std::unique_ptr<HirInstruction>
lowerInstruction(const ElaboratedIsa &isa, const InstrInfo &instr,
                 DiagnosticEngine &diags, LowerOptions options)
{
    auto out = std::make_unique<HirInstruction>();
    out->name = instr.name;
    out->info = &instr;
    Lowerer lowerer(isa, diags, options);
    if (!lowerer.lowerBehavior(*instr.ast->behavior, &instr, out->body))
        return nullptr;
    std::string err = out->body.verify();
    if (!err.empty())
        LN_PANIC("HIR verification failed for ", instr.name, ": ", err);
    return out;
}

std::unique_ptr<HirAlways>
lowerAlways(const ElaboratedIsa &isa, const AlwaysInfo &always,
            DiagnosticEngine &diags, LowerOptions options)
{
    auto out = std::make_unique<HirAlways>();
    out->name = always.name;
    out->info = &always;
    Lowerer lowerer(isa, diags, options);
    if (!lowerer.lowerBehavior(*always.ast->behavior, nullptr, out->body))
        return nullptr;
    std::string err = out->body.verify();
    if (!err.empty())
        LN_PANIC("HIR verification failed for ", always.name, ": ", err);
    return out;
}

std::unique_ptr<HirModule>
lowerToHir(const ElaboratedIsa &isa, DiagnosticEngine &diags,
           LowerOptions options)
{
    DiagnosticEngine::ContextScope scope(diags, Phase::AstLower,
                                         "LN1003");
    if (failpoint::fire("astlower") != failpoint::Mode::Off) {
        diags.error({}, "LN1903",
                    "injected fault at failpoint 'astlower'");
        return nullptr;
    }
    auto mod = std::make_unique<HirModule>();
    mod->isa = &isa;
    for (const auto &instr : isa.instructions) {
        if (instr.fromBase)
            continue;
        auto lowered = lowerInstruction(isa, instr, diags, options);
        if (!lowered)
            return nullptr;
        mod->instructions.push_back(std::move(lowered));
    }
    for (const auto &always : isa.alwaysBlocks) {
        if (always.fromBase)
            continue;
        auto lowered = lowerAlways(isa, always, diags, options);
        if (!lowered)
            return nullptr;
        mod->alwaysBlocks.push_back(std::move(lowered));
    }
    return mod;
}

} // namespace hir
} // namespace longnail
