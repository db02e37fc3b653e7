#include "coredsl/sema.hh"

#include <algorithm>
#include <set>

#include "coredsl/parser.hh"
#include "obs/obs.hh"
#include "support/failpoint.hh"
#include "support/logging.hh"

namespace longnail {
namespace coredsl {

unsigned
StateInfo::indexWidth() const
{
    unsigned w = 1;
    while ((uint64_t(1) << w) < numElements)
        ++w;
    return w;
}

const StateInfo *
ElaboratedIsa::findState(const std::string &state_name) const
{
    for (const auto &s : state)
        if (s.name == state_name)
            return &s;
    return nullptr;
}

const FunctionInfo *
ElaboratedIsa::findFunction(const std::string &fn_name) const
{
    for (const auto &f : functions)
        if (f.name == fn_name)
            return &f;
    return nullptr;
}

const InstrInfo *
ElaboratedIsa::findInstruction(const std::string &instr_name) const
{
    for (const auto &i : instructions)
        if (i.name == instr_name)
            return &i;
    return nullptr;
}

// -------------------------------------------------------------------------
// Constant evaluation
// -------------------------------------------------------------------------

namespace {

/** Adjust a constant to a target type (extend or truncate the bits). */
ApInt
adjustTo(const TypedConst &c, Type target)
{
    if (c.type.isSigned)
        return c.value.sextOrTrunc(target.width);
    return c.value.zextOrTrunc(target.width);
}

} // namespace

std::optional<TypedConst>
evalBinary(BinOp op, const TypedConst &lhs, const TypedConst &rhs)
{
    Type rt = resultType(op, lhs.type, rhs.type);
    // Comparison/division operands are evaluated in the smallest common
    // type, which may be wider than the result type.
    Type ct = unionType(lhs.type, rhs.type);
    if (rt.width > ct.width || (rt.isSigned && !ct.isSigned))
        ct = unionType(rt, ct);
    ApInt a = adjustTo(lhs, rt);
    ApInt b = adjustTo(rhs, rt);
    ApInt ca = adjustTo(lhs, ct);
    ApInt cb = adjustTo(rhs, ct);
    TypedConst out;
    out.type = rt;
    switch (op) {
      case BinOp::Add: out.value = a + b; break;
      case BinOp::Sub: out.value = a - b; break;
      case BinOp::Mul: out.value = a * b; break;
      case BinOp::Div:
        if (cb.isZero())
            return std::nullopt;
        out.value = (ct.isSigned ? ca.sdiv(cb) : ca.udiv(cb))
                        .zextOrTrunc(rt.width);
        break;
      case BinOp::Rem:
        if (cb.isZero())
            return std::nullopt;
        out.value = (ct.isSigned ? ca.srem(cb) : ca.urem(cb))
                        .zextOrTrunc(rt.width);
        break;
      case BinOp::Shl:
      case BinOp::Shr: {
        // Shifts keep the lhs type; the amount is the rhs value.
        ApInt lv = lhs.value;
        uint64_t amount = rhs.value.activeBits() > 32
                              ? lv.width()
                              : rhs.value.toUint64();
        unsigned amt = static_cast<unsigned>(
            std::min<uint64_t>(amount, lv.width()));
        if (op == BinOp::Shl)
            out.value = lv.shl(amt);
        else
            out.value = lhs.type.isSigned ? lv.ashr(amt) : lv.lshr(amt);
        out.type = lhs.type;
        break;
      }
      case BinOp::Lt:
        out.value = ApInt(1, ct.isSigned ? ca.slt(cb) : ca.ult(cb));
        break;
      case BinOp::Le:
        out.value = ApInt(1, ct.isSigned ? ca.sle(cb) : ca.ule(cb));
        break;
      case BinOp::Gt:
        out.value = ApInt(1, ct.isSigned ? ca.sgt(cb) : ca.ugt(cb));
        break;
      case BinOp::Ge:
        out.value = ApInt(1, ct.isSigned ? ca.sge(cb) : ca.uge(cb));
        break;
      case BinOp::Eq: out.value = ApInt(1, ca == cb); break;
      case BinOp::Ne: out.value = ApInt(1, ca != cb); break;
      case BinOp::And: out.value = a & b; break;
      case BinOp::Or: out.value = a | b; break;
      case BinOp::Xor: out.value = a ^ b; break;
      case BinOp::LogicalAnd:
        out.value = ApInt(1, !lhs.value.isZero() && !rhs.value.isZero());
        break;
      case BinOp::LogicalOr:
        out.value = ApInt(1, !lhs.value.isZero() || !rhs.value.isZero());
        break;
    }
    // Comparison results are booleans regardless of the mixed-sign
    // handling above.
    switch (op) {
      case BinOp::Lt:
      case BinOp::Le:
      case BinOp::Gt:
      case BinOp::Ge:
      case BinOp::Eq:
      case BinOp::Ne:
      case BinOp::LogicalAnd:
      case BinOp::LogicalOr:
        out.type = Type::makeBool();
        break;
      default:
        break;
    }
    return out;
}

std::optional<TypedConst>
evalConst(const Expr &expr, const std::map<std::string, TypedConst> &env)
{
    switch (expr.kind) {
      case Expr::Kind::IntLit: {
        const auto &lit = static_cast<const IntLitExpr &>(expr);
        TypedConst c;
        if (lit.sized) {
            c.type = Type::makeUnsigned(lit.sizedWidth);
            c.value = lit.value.zextOrTrunc(lit.sizedWidth);
        } else {
            unsigned w = std::max(1u, lit.value.activeBits());
            c.type = Type::makeUnsigned(w);
            c.value = lit.value.zextOrTrunc(w);
        }
        return c;
      }
      case Expr::Kind::Ref: {
        const auto &ref = static_cast<const RefExpr &>(expr);
        auto it = env.find(ref.name);
        if (it == env.end())
            return std::nullopt;
        return it->second;
      }
      case Expr::Kind::Unary: {
        const auto &un = static_cast<const UnaryExpr &>(expr);
        auto operand = evalConst(*un.operand, env);
        if (!operand)
            return std::nullopt;
        TypedConst out;
        switch (un.op) {
          case UnaryExpr::Op::Neg:
            out.type = Type::makeSigned(operand->type.width + 1);
            out.value = adjustTo(*operand, out.type).negate();
            return out;
          case UnaryExpr::Op::BitNot:
            out.type = operand->type;
            out.value = ~operand->value;
            return out;
          case UnaryExpr::Op::LogicalNot:
            out.type = Type::makeBool();
            out.value = ApInt(1, operand->value.isZero());
            return out;
          default:
            return std::nullopt; // ++/-- are not constant expressions
        }
      }
      case Expr::Kind::Binary: {
        const auto &bin = static_cast<const BinaryExpr &>(expr);
        auto lhs = evalConst(*bin.lhs, env);
        auto rhs = evalConst(*bin.rhs, env);
        if (!lhs || !rhs)
            return std::nullopt;
        return evalBinary(bin.op, *lhs, *rhs);
      }
      case Expr::Kind::Conditional: {
        const auto &cond = static_cast<const ConditionalExpr &>(expr);
        auto c = evalConst(*cond.cond, env);
        if (!c)
            return std::nullopt;
        return evalConst(c->value.isZero() ? *cond.elseExpr
                                           : *cond.thenExpr, env);
      }
      case Expr::Kind::Cast: {
        const auto &cast = static_cast<const CastExpr &>(expr);
        auto operand = evalConst(*cast.operand, env);
        if (!operand)
            return std::nullopt;
        bool to_signed = cast.targetType.base == TypeSpec::Base::Signed;
        unsigned width = operand->type.width;
        if (!cast.keepOperandWidth) {
            if (cast.targetType.base == TypeSpec::Base::Bool) {
                width = 1;
            } else if (cast.targetType.aliasWidth) {
                width = cast.targetType.aliasWidth;
            } else if (cast.targetType.widthExpr) {
                auto w = evalConst(*cast.targetType.widthExpr, env);
                if (!w)
                    return std::nullopt;
                width = static_cast<unsigned>(w->value.toUint64());
            } else {
                width = 32;
            }
        }
        TypedConst out;
        out.type = Type(to_signed, width);
        out.value = adjustTo(*operand, out.type);
        return out;
      }
      case Expr::Kind::Concat: {
        const auto &cc = static_cast<const ConcatExpr &>(expr);
        auto lhs = evalConst(*cc.lhs, env);
        auto rhs = evalConst(*cc.rhs, env);
        if (!lhs || !rhs)
            return std::nullopt;
        TypedConst out;
        out.value = lhs->value.concat(rhs->value);
        out.type = Type::makeUnsigned(out.value.width());
        return out;
      }
      case Expr::Kind::RangeIndex: {
        const auto &ri = static_cast<const RangeIndexExpr &>(expr);
        auto base = evalConst(*ri.base, env);
        auto from = evalConst(*ri.from, env);
        auto to = evalConst(*ri.to, env);
        if (!base || !from || !to)
            return std::nullopt;
        unsigned hi = static_cast<unsigned>(from->value.toUint64());
        unsigned lo = static_cast<unsigned>(to->value.toUint64());
        if (hi < lo || hi >= base->type.width)
            return std::nullopt;
        TypedConst out;
        out.value = base->value.extract(lo, hi - lo + 1);
        out.type = Type::makeUnsigned(hi - lo + 1);
        return out;
      }
      case Expr::Kind::Index: {
        const auto &ix = static_cast<const IndexExpr &>(expr);
        auto base = evalConst(*ix.base, env);
        auto index = evalConst(*ix.index, env);
        if (!base || !index)
            return std::nullopt;
        uint64_t bit = index->value.toUint64();
        if (bit >= base->type.width)
            return std::nullopt;
        TypedConst out;
        out.value = base->value.extract(static_cast<unsigned>(bit), 1);
        out.type = Type::makeUnsigned(1);
        return out;
      }
      default:
        return std::nullopt;
    }
}

// -------------------------------------------------------------------------
// Analyzer
// -------------------------------------------------------------------------

namespace {

class Analyzer
{
  public:
    Analyzer(DiagnosticEngine &diags, SourceProvider provider,
             SemaOptions options)
        : diags_(diags), provider_(std::move(provider)),
          options_(std::move(options))
    {}

    std::unique_ptr<ElaboratedIsa>
    run(const std::string &source, const std::string &target_name)
    {
        DiagnosticEngine::ContextScope scope(diags_, Phase::Sema,
                                             "LN1002");
        auto isa = std::make_unique<ElaboratedIsa>();
        isa_ = isa.get();

        std::unique_ptr<Description> desc;
        {
            obs::TraceSpan span("parse");
            desc = std::make_unique<Description>(
                parseString(source, diags_));
        }
        if (diags_.hasErrors())
            return nullptr;
        if (failpoint::fire("sema") != failpoint::Mode::Off) {
            diags_.error({}, "LN1902",
                         "injected fault at failpoint 'sema'");
            return nullptr;
        }

        loadImports(*desc);
        for (auto &def : desc->defs)
            registerDef(def.get());

        IsaDef *target = nullptr;
        if (target_name.empty()) {
            if (!desc->defs.empty())
                target = desc->defs.back().get();
        }
        isa->ownedAsts.push_back(std::move(desc));
        if (diags_.hasErrors())
            return nullptr;

        if (!target_name.empty()) {
            auto it = defsByName_.find(target_name);
            if (it != defsByName_.end())
                target = it->second;
        }
        if (!target) {
            diags_.error({}, "no definition named '" +
                                 (target_name.empty() ? "<last>"
                                                      : target_name) +
                                 "' found");
            return nullptr;
        }
        isa->name = target->name;

        std::vector<IsaDef *> chain = flatten(target);
        if (diags_.hasErrors())
            return nullptr;

        std::set<std::string> base_names = baseSetNames();

        // Phase 1: evaluate parameters, declaration order across the
        // chain; core parameter assignments override defaults.
        for (IsaDef *def : chain) {
            for (auto &decl : def->state)
                if (decl.storage == StateDecl::Storage::Param)
                    defineParameter(decl);
        }
        for (IsaDef *def : chain) {
            for (auto &pa : def->paramAssigns)
                assignParameter(pa);
        }

        // Phase 2: state elements.
        for (IsaDef *def : chain) {
            bool is_base = base_names.count(def->name) > 0;
            for (auto &decl : def->state)
                if (decl.storage != StateDecl::Storage::Param)
                    resolveState(decl, is_base);
        }

        // Phase 3: function signatures, then bodies (so functions may
        // call previously declared functions).
        for (IsaDef *def : chain)
            for (auto &fn : def->functions)
                resolveFunctionSignature(fn);
        for (IsaDef *def : chain)
            for (auto &fn : def->functions)
                checkFunctionBody(fn);

        // Phase 4: instructions and always-blocks.
        for (IsaDef *def : chain) {
            bool is_base = base_names.count(def->name) > 0;
            for (auto &instr : def->instructions)
                resolveInstruction(instr, is_base);
            for (auto &blk : def->alwaysBlocks)
                resolveAlways(blk, is_base);
        }

        if (diags_.hasErrors())
            return nullptr;
        return isa;
    }

  private:
    // --- import / inheritance handling ---------------------------------

    void
    loadImports(Description &desc)
    {
        for (const std::string &import_name : desc.imports) {
            if (!loadedImports_.insert(import_name).second)
                continue;
            auto text = provider_(import_name);
            if (!text) {
                diags_.error({}, "cannot resolve import '" + import_name +
                                     "'");
                continue;
            }
            auto imported = std::make_unique<Description>(
                parseString(*text, diags_));
            loadImports(*imported);
            for (auto &def : imported->defs)
                registerDef(def.get());
            isa_->ownedAsts.push_back(std::move(imported));
        }
    }

    void
    registerDef(IsaDef *def)
    {
        auto [it, inserted] = defsByName_.emplace(def->name, def);
        if (!inserted)
            diags_.error(def->loc,
                         "redefinition of '" + def->name + "'");
    }

    /** Ancestors first, depth-first, each definition once. */
    std::vector<IsaDef *>
    flatten(IsaDef *def)
    {
        std::vector<IsaDef *> chain;
        std::set<std::string> visited;
        flattenInto(def, chain, visited);
        return chain;
    }

    void
    flattenInto(IsaDef *def, std::vector<IsaDef *> &chain,
                std::set<std::string> &visited)
    {
        if (!visited.insert(def->name).second)
            return;
        for (const std::string &parent : def->parents) {
            auto it = defsByName_.find(parent);
            if (it == defsByName_.end()) {
                diags_.error(def->loc, "unknown instruction set '" +
                                           parent + "'");
                continue;
            }
            flattenInto(it->second, chain, visited);
        }
        chain.push_back(def);
    }

    /** The base set and all of its ancestors. */
    std::set<std::string>
    baseSetNames()
    {
        std::set<std::string> names;
        auto it = defsByName_.find(options_.baseSetName);
        if (it == defsByName_.end())
            return names;
        for (IsaDef *def : flatten(it->second))
            names.insert(def->name);
        return names;
    }

    // --- parameters and state -------------------------------------------

    void
    defineParameter(StateDecl &decl)
    {
        Type type = resolveTypeSpec(decl.type, /*bare_means_32=*/true);
        if (!type.isValid())
            return;
        TypedConst value;
        value.type = type;
        value.value = ApInt(type.width, 0);
        if (decl.init) {
            auto c = evalConst(*decl.init, isa_->parameters);
            if (!c) {
                diags_.error(decl.loc, "parameter '" + decl.name +
                                           "' initializer is not a "
                                           "compile-time constant");
                return;
            }
            value.value = adjustTo(*c, type);
        }
        isa_->parameters[decl.name] = std::move(value);
    }

    void
    assignParameter(ParamAssign &pa)
    {
        auto it = isa_->parameters.find(pa.name);
        if (it == isa_->parameters.end()) {
            diags_.error(pa.loc,
                         "assignment to unknown parameter '" + pa.name +
                             "'");
            return;
        }
        auto c = evalConst(*pa.value, isa_->parameters);
        if (!c) {
            diags_.error(pa.loc, "parameter assignment is not a "
                                 "compile-time constant");
            return;
        }
        it->second.value = adjustTo(*c, it->second.type);
    }

    void
    resolveState(StateDecl &decl, bool is_base)
    {
        StateInfo info;
        info.name = decl.name;
        info.kind = decl.storage == StateDecl::Storage::Extern
                        ? StateInfo::Kind::AddressSpace
                        : StateInfo::Kind::Register;
        info.isConst = decl.isConst;
        info.isCoreState = is_base;
        info.elementType = resolveTypeSpec(decl.type, true);
        if (!info.elementType.isValid())
            return;
        if (decl.arraySize) {
            auto c = evalConst(*decl.arraySize, isa_->parameters);
            if (!c) {
                diags_.error(decl.loc, "array size of '" + decl.name +
                                           "' is not a compile-time "
                                           "constant");
                return;
            }
            info.numElements = c->value.toUint64();
            if (info.numElements == 0) {
                diags_.error(decl.loc, "array size must be positive");
                return;
            }
        }
        if (!decl.initList.empty()) {
            if (!info.isConst) {
                diags_.error(decl.loc,
                             "initializer lists are only supported for "
                             "constant registers (ROMs)");
                return;
            }
            if (decl.initList.size() != info.numElements) {
                diags_.error(decl.loc,
                             "initializer list has " +
                                 std::to_string(decl.initList.size()) +
                                 " elements, expected " +
                                 std::to_string(info.numElements));
                return;
            }
            for (auto &e : decl.initList) {
                auto c = evalConst(*e, isa_->parameters);
                if (!c) {
                    diags_.error(decl.loc,
                                 "ROM initializer is not a compile-time "
                                 "constant");
                    return;
                }
                info.constValues.push_back(
                    adjustTo(*c, info.elementType));
            }
        } else if (decl.init) {
            auto c = evalConst(*decl.init, isa_->parameters);
            if (!c || !info.isConst) {
                diags_.error(decl.loc,
                             "only constant registers may carry "
                             "initializers");
                return;
            }
            info.constValues.push_back(adjustTo(*c, info.elementType));
        } else if (info.isConst) {
            diags_.error(decl.loc, "constant register '" + decl.name +
                                       "' needs an initializer");
            return;
        }
        if (isa_->findState(info.name)) {
            diags_.error(decl.loc,
                         "redefinition of state element '" + info.name +
                             "'");
            return;
        }
        isa_->state.push_back(std::move(info));
    }

    // --- functions -------------------------------------------------------

    void
    resolveFunctionSignature(FunctionDef &fn)
    {
        FunctionInfo info;
        info.ast = &fn;
        info.name = fn.name;
        if (!fn.returnType.isVoid()) {
            fn.resolvedReturnType = resolveTypeSpec(fn.returnType, true);
            info.returnType = fn.resolvedReturnType;
        }
        for (auto &p : fn.params) {
            p.resolvedType = resolveTypeSpec(p.type, true);
            info.paramTypes.push_back(p.resolvedType);
        }
        if (isa_->findFunction(fn.name)) {
            diags_.error(fn.loc,
                         "redefinition of function '" + fn.name + "'");
            return;
        }
        isa_->functions.push_back(std::move(info));
    }

    void
    checkFunctionBody(FunctionDef &fn)
    {
        const FunctionInfo *info = isa_->findFunction(fn.name);
        if (!info)
            return;
        ScopeGuard guard(*this);
        for (const auto &p : fn.params)
            declareLocal(p.name, p.resolvedType, p.loc);
        curFields_ = nullptr;
        curReturnType_ = info->returnType;
        inFunction_ = true;
        inInstruction_ = false;
        checkStmt(*fn.body);
        inFunction_ = false;
    }

    // --- instructions and always-blocks ----------------------------------

    void
    resolveInstruction(Instruction &instr, bool is_base)
    {
        InstrInfo info;
        info.ast = &instr;
        info.name = instr.name;
        info.fromBase = is_base;
        info.maskString.assign(32, '-');

        unsigned total = 0;
        for (const auto &e : instr.encoding)
            total += e.width();
        if (total != 32) {
            diags_.error(instr.loc, "encoding of '" + instr.name +
                                        "' is " + std::to_string(total) +
                                        " bits wide, expected 32");
            return;
        }

        unsigned pos = 32; // walk MSB-first
        for (const auto &e : instr.encoding) {
            pos -= e.width();
            if (e.isLiteral) {
                for (unsigned i = 0; i < e.literalWidth; ++i) {
                    unsigned bit = pos + i;
                    info.mask |= 1u << bit;
                    if (e.value.getBit(i))
                        info.match |= 1u << bit;
                    info.maskString[31 - bit] =
                        e.value.getBit(i) ? '1' : '0';
                }
            } else {
                FieldInfo &field = info.fields[e.field];
                field.width = std::max(field.width, e.msb + 1);
                field.slices.push_back({pos, e.lsb, e.msb - e.lsb + 1});
            }
        }

        // Check the behavior with the encoding fields in scope.
        ScopeGuard guard(*this);
        curFields_ = &info.fields;
        inFunction_ = false;
        inInstruction_ = true;
        checkStmt(*instr.behavior);
        curFields_ = nullptr;

        if (isa_->findInstruction(info.name)) {
            diags_.error(instr.loc, "redefinition of instruction '" +
                                        info.name + "'");
            return;
        }
        isa_->instructions.push_back(std::move(info));
    }

    void
    resolveAlways(AlwaysBlock &blk, bool is_base)
    {
        AlwaysInfo info;
        info.ast = &blk;
        info.name = blk.name;
        info.fromBase = is_base;

        ScopeGuard guard(*this);
        curFields_ = nullptr;
        inFunction_ = false;
        inInstruction_ = false;
        checkStmt(*blk.behavior);

        isa_->alwaysBlocks.push_back(std::move(info));
    }

    // --- types -----------------------------------------------------------

    Type
    resolveTypeSpec(TypeSpec &spec, bool bare_means_32)
    {
        switch (spec.base) {
          case TypeSpec::Base::Bool:
            return Type::makeBool();
          case TypeSpec::Base::Void:
            diags_.error(spec.loc, "'void' is not allowed here");
            return {};
          case TypeSpec::Base::Signed:
          case TypeSpec::Base::Unsigned: {
            bool is_signed = spec.base == TypeSpec::Base::Signed;
            if (spec.aliasWidth)
                return Type(is_signed, spec.aliasWidth);
            if (!spec.widthExpr) {
                if (bare_means_32)
                    return Type(is_signed, 32);
                diags_.error(spec.loc, "type requires a width");
                return {};
            }
            auto c = evalConst(*spec.widthExpr, isa_->parameters);
            if (!c) {
                diags_.error(spec.loc,
                             "type width is not a compile-time constant");
                return {};
            }
            uint64_t w = c->value.toUint64();
            if (w == 0 || w > ApInt::maxWidth) {
                diags_.error(spec.loc, "invalid type width " +
                                           std::to_string(w));
                return {};
            }
            return Type(is_signed, static_cast<unsigned>(w));
          }
        }
        return {};
    }

    // --- scopes ----------------------------------------------------------

    struct ScopeGuard
    {
        explicit ScopeGuard(Analyzer &a) : analyzer(a)
        {
            analyzer.scopes_.emplace_back();
        }
        ~ScopeGuard() { analyzer.scopes_.pop_back(); }
        Analyzer &analyzer;
    };

    void
    declareLocal(const std::string &name, Type type, SourceLoc loc)
    {
        if (!scopes_.back().emplace(name, type).second)
            diags_.error(loc, "redeclaration of '" + name + "'");
    }

    const Type *
    lookupLocal(const std::string &name) const
    {
        for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
            auto f = it->find(name);
            if (f != it->end())
                return &f->second;
        }
        return nullptr;
    }

    // --- statement checking ----------------------------------------------

    void
    checkStmt(Stmt &stmt)
    {
        switch (stmt.kind) {
          case Stmt::Kind::Block: {
            auto &block = static_cast<BlockStmt &>(stmt);
            ScopeGuard guard(*this);
            for (auto &s : block.stmts)
                checkStmt(*s);
            break;
          }
          case Stmt::Kind::VarDecl: {
            auto &decl = static_cast<VarDeclStmt &>(stmt);
            decl.resolvedType = resolveTypeSpec(decl.type, true);
            if (!decl.resolvedType.isValid())
                break;
            if (decl.init) {
                Type init_type = checkExpr(*decl.init);
                if (init_type.isValid() &&
                    !isImplicitlyAssignable(decl.resolvedType,
                                            init_type)) {
                    diags_.error(decl.loc,
                                 "cannot implicitly convert " +
                                     init_type.str() + " to " +
                                     decl.resolvedType.str() +
                                     " in initialization of '" +
                                     decl.name + "'");
                }
            }
            declareLocal(decl.name, decl.resolvedType, decl.loc);
            break;
          }
          case Stmt::Kind::ExprStmt:
            checkExpr(*static_cast<ExprStmt &>(stmt).expr);
            break;
          case Stmt::Kind::If: {
            auto &if_stmt = static_cast<IfStmt &>(stmt);
            checkExpr(*if_stmt.cond);
            checkStmt(*if_stmt.thenStmt);
            if (if_stmt.elseStmt)
                checkStmt(*if_stmt.elseStmt);
            break;
          }
          case Stmt::Kind::For: {
            auto &for_stmt = static_cast<ForStmt &>(stmt);
            ScopeGuard guard(*this);
            if (for_stmt.init)
                checkStmt(*for_stmt.init);
            if (for_stmt.cond)
                checkExpr(*for_stmt.cond);
            else
                diags_.error(for_stmt.loc,
                             "for-loops require a condition (loops must "
                             "have compile-time known trip counts)");
            if (for_stmt.step)
                checkExpr(*for_stmt.step);
            checkStmt(*for_stmt.body);
            break;
          }
          case Stmt::Kind::While: {
            auto &while_stmt = static_cast<WhileStmt &>(stmt);
            checkExpr(*while_stmt.cond);
            checkStmt(*while_stmt.body);
            break;
          }
          case Stmt::Kind::Switch: {
            auto &switch_stmt = static_cast<SwitchStmt &>(stmt);
            Type subject = checkExpr(*switch_stmt.subject);
            for (auto &arm : switch_stmt.cases) {
                for (auto &value : arm.values) {
                    Type vt = checkExpr(*value);
                    if (!evalConst(*value, isa_->parameters))
                        diags_.error(value->loc,
                                     "case values must be compile-time "
                                     "constants");
                    (void)vt;
                }
                ScopeGuard guard(*this);
                for (auto &body_stmt : arm.body)
                    checkStmt(*body_stmt);
            }
            (void)subject;
            break;
          }
          case Stmt::Kind::Break:
            diags_.error(stmt.loc,
                         "'break' is only allowed inside a switch arm");
            break;
          case Stmt::Kind::Return: {
            auto &ret = static_cast<ReturnStmt &>(stmt);
            if (!inFunction_) {
                diags_.error(ret.loc,
                             "'return' is only allowed in functions");
                break;
            }
            if (ret.value) {
                Type t = checkExpr(*ret.value);
                if (!curReturnType_.isValid()) {
                    diags_.error(ret.loc,
                                 "void function cannot return a value");
                } else if (t.isValid() &&
                           !isImplicitlyAssignable(curReturnType_, t)) {
                    diags_.error(ret.loc, "cannot implicitly convert " +
                                              t.str() + " to " +
                                              curReturnType_.str() +
                                              " in return");
                }
            } else if (curReturnType_.isValid()) {
                diags_.error(ret.loc, "non-void function must return a "
                                      "value");
            }
            break;
          }
          case Stmt::Kind::Spawn: {
            auto &spawn = static_cast<SpawnStmt &>(stmt);
            if (!inInstruction_)
                diags_.error(spawn.loc, "'spawn' is only allowed in "
                                        "instruction behaviors");
            checkStmt(*spawn.body);
            break;
          }
        }
    }

    // --- expression checking ----------------------------------------------

    /** Fallback type used after reporting an error, to limit cascades. */
    static Type errorType() { return Type::makeUnsigned(32); }

    Type
    checkExpr(Expr &expr)
    {
        Type t = checkExprImpl(expr);
        expr.type = t;
        return t;
    }

    Type
    checkExprImpl(Expr &expr)
    {
        switch (expr.kind) {
          case Expr::Kind::IntLit: {
            auto &lit = static_cast<IntLitExpr &>(expr);
            if (lit.sized)
                return Type::makeUnsigned(lit.sizedWidth);
            return Type::makeUnsigned(
                std::max(1u, lit.value.activeBits()));
          }
          case Expr::Kind::Ref:
            return checkRef(static_cast<RefExpr &>(expr));
          case Expr::Kind::Index:
            return checkIndex(static_cast<IndexExpr &>(expr));
          case Expr::Kind::RangeIndex:
            return checkRangeIndex(static_cast<RangeIndexExpr &>(expr));
          case Expr::Kind::Call:
            return checkCall(static_cast<CallExpr &>(expr));
          case Expr::Kind::Unary:
            return checkUnary(static_cast<UnaryExpr &>(expr));
          case Expr::Kind::Binary: {
            auto &bin = static_cast<BinaryExpr &>(expr);
            Type l = checkExpr(*bin.lhs);
            Type r = checkExpr(*bin.rhs);
            if (!l.isValid() || !r.isValid())
                return errorType();
            return resultType(bin.op, l, r);
          }
          case Expr::Kind::Assign:
            return checkAssign(static_cast<AssignExpr &>(expr));
          case Expr::Kind::Conditional: {
            auto &cond = static_cast<ConditionalExpr &>(expr);
            checkExpr(*cond.cond);
            Type t = checkExpr(*cond.thenExpr);
            Type f = checkExpr(*cond.elseExpr);
            if (!t.isValid() || !f.isValid())
                return errorType();
            return unionType(t, f);
          }
          case Expr::Kind::Cast: {
            auto &cast = static_cast<CastExpr &>(expr);
            Type operand = checkExpr(*cast.operand);
            if (cast.keepOperandWidth) {
                bool to_signed =
                    cast.targetType.base == TypeSpec::Base::Signed;
                return Type(to_signed, operand.width);
            }
            return resolveTypeSpec(cast.targetType, true);
          }
          case Expr::Kind::Concat: {
            auto &cc = static_cast<ConcatExpr &>(expr);
            Type l = checkExpr(*cc.lhs);
            Type r = checkExpr(*cc.rhs);
            if (!l.isValid() || !r.isValid())
                return errorType();
            return Type::makeUnsigned(l.width + r.width);
          }
        }
        return errorType();
    }

    Type
    checkRef(RefExpr &ref)
    {
        if (const Type *local = lookupLocal(ref.name))
            return *local;
        if (curFields_) {
            auto it = curFields_->find(ref.name);
            if (it != curFields_->end())
                return Type::makeUnsigned(it->second.width);
        }
        if (const StateInfo *state = isa_->findState(ref.name)) {
            if (state->isArray() || state->kind ==
                                        StateInfo::Kind::AddressSpace) {
                diags_.error(ref.loc, "'" + ref.name +
                                          "' must be accessed with a "
                                          "subscript");
                return errorType();
            }
            return state->elementType;
        }
        auto param = isa_->parameters.find(ref.name);
        if (param != isa_->parameters.end())
            return param->second.type;
        diags_.error(ref.loc, "use of undeclared identifier '" +
                                  ref.name + "'");
        return errorType();
    }

    Type
    checkIndex(IndexExpr &index)
    {
        // State-array element access: X[rs1], SBOX[v].
        if (index.base->kind == Expr::Kind::Ref) {
            auto &ref = static_cast<RefExpr &>(*index.base);
            if (const StateInfo *state = isa_->findState(ref.name)) {
                index.base->type = state->elementType; // informational
                checkExpr(*index.index);
                return state->elementType;
            }
        }
        // Otherwise: single-bit select on a scalar value.
        Type base = checkExpr(*index.base);
        checkExpr(*index.index);
        if (!base.isValid())
            return errorType();
        return Type::makeBool();
    }

    /**
     * Width of [from:to] where both bounds are constants, or both
     * reference the same variable with constant offsets (Sec. 2.4).
     */
    std::optional<uint64_t>
    rangeSpan(Expr &from, Expr &to)
    {
        auto cf = evalConst(from, isa_->parameters);
        auto ct = evalConst(to, isa_->parameters);
        if (cf && ct) {
            int64_t hi = cf->value.zextOrTrunc(64).toUint64();
            int64_t lo = ct->value.zextOrTrunc(64).toUint64();
            if (hi < lo)
                return std::nullopt;
            return static_cast<uint64_t>(hi - lo);
        }
        // var + c / var - c / var patterns.
        auto split = [](Expr &e) -> std::optional<
                                      std::pair<std::string, int64_t>> {
            if (e.kind == Expr::Kind::Ref)
                return std::make_pair(
                    static_cast<RefExpr &>(e).name, int64_t(0));
            if (e.kind == Expr::Kind::Binary) {
                auto &bin = static_cast<BinaryExpr &>(e);
                if ((bin.op == BinOp::Add || bin.op == BinOp::Sub) &&
                    bin.lhs->kind == Expr::Kind::Ref) {
                    auto c = evalConst(*bin.rhs, {});
                    if (c) {
                        int64_t off = static_cast<int64_t>(
                            c->value.zextOrTrunc(63).toUint64());
                        if (bin.op == BinOp::Sub)
                            off = -off;
                        return std::make_pair(
                            static_cast<RefExpr &>(*bin.lhs).name, off);
                    }
                }
            }
            return std::nullopt;
        };
        auto sf = split(from);
        auto st = split(to);
        if (sf && st && sf->first == st->first &&
            sf->second >= st->second)
            return static_cast<uint64_t>(sf->second - st->second);
        return std::nullopt;
    }

    Type
    checkRangeIndex(RangeIndexExpr &range)
    {
        auto span = rangeSpan(*range.from, *range.to);
        // Type-check bound expressions (they may reference locals).
        checkExpr(*range.from);
        checkExpr(*range.to);
        if (!span) {
            diags_.error(range.loc,
                         "range bounds must be compile-time constants or "
                         "reference the same variable with constant "
                         "offsets");
            return errorType();
        }
        // Address-space range: concatenation of multiple elements.
        if (range.base->kind == Expr::Kind::Ref) {
            auto &ref = static_cast<RefExpr &>(*range.base);
            if (const StateInfo *state = isa_->findState(ref.name)) {
                if (state->kind == StateInfo::Kind::AddressSpace) {
                    range.base->type = state->elementType;
                    uint64_t width =
                        (*span + 1) * state->elementType.width;
                    if (width > ApInt::maxWidth) {
                        diags_.error(range.loc, "range too wide");
                        return errorType();
                    }
                    return Type::makeUnsigned(
                        static_cast<unsigned>(width));
                }
            }
        }
        // Bit range on a scalar value.
        Type base = checkExpr(*range.base);
        if (!base.isValid())
            return errorType();
        if (*span + 1 > base.width) {
            diags_.error(range.loc, "bit range wider than its operand");
            return errorType();
        }
        return Type::makeUnsigned(static_cast<unsigned>(*span + 1));
    }

    Type
    checkCall(CallExpr &call)
    {
        const FunctionInfo *fn = isa_->findFunction(call.callee);
        if (!fn) {
            diags_.error(call.loc,
                         "call to undeclared function '" + call.callee +
                             "'");
            for (auto &a : call.args)
                checkExpr(*a);
            return errorType();
        }
        if (call.args.size() != fn->paramTypes.size()) {
            diags_.error(call.loc,
                         "'" + call.callee + "' expects " +
                             std::to_string(fn->paramTypes.size()) +
                             " arguments, got " +
                             std::to_string(call.args.size()));
        }
        for (size_t i = 0; i < call.args.size(); ++i) {
            Type t = checkExpr(*call.args[i]);
            if (i < fn->paramTypes.size() && t.isValid() &&
                !isImplicitlyAssignable(fn->paramTypes[i], t)) {
                diags_.error(call.args[i]->loc,
                             "cannot implicitly convert " + t.str() +
                                 " to " + fn->paramTypes[i].str() +
                                 " in argument " + std::to_string(i + 1));
            }
        }
        if (!fn->returnType.isValid()) {
            diags_.error(call.loc, "void function call used as a value");
            return errorType();
        }
        return fn->returnType;
    }

    Type
    checkUnary(UnaryExpr &unary)
    {
        Type operand = checkExpr(*unary.operand);
        if (!operand.isValid())
            return errorType();
        switch (unary.op) {
          case UnaryExpr::Op::Neg:
            return Type::makeSigned(operand.width + 1);
          case UnaryExpr::Op::BitNot:
            return operand;
          case UnaryExpr::Op::LogicalNot:
            return Type::makeBool();
          case UnaryExpr::Op::PreInc:
          case UnaryExpr::Op::PreDec:
          case UnaryExpr::Op::PostInc:
          case UnaryExpr::Op::PostDec:
            if (!isLvalue(*unary.operand))
                diags_.error(unary.loc,
                             "increment/decrement requires an "
                             "assignable operand");
            return operand;
        }
        return errorType();
    }

    bool
    isLvalue(Expr &expr)
    {
        switch (expr.kind) {
          case Expr::Kind::Ref: {
            auto &ref = static_cast<RefExpr &>(expr);
            if (lookupLocal(ref.name))
                return true;
            const StateInfo *state = isa_->findState(ref.name);
            return state && !state->isArray() && !state->isConst &&
                   state->kind == StateInfo::Kind::Register;
          }
          case Expr::Kind::Index: {
            auto &index = static_cast<IndexExpr &>(expr);
            if (index.base->kind != Expr::Kind::Ref)
                return false;
            auto &ref = static_cast<RefExpr &>(*index.base);
            const StateInfo *state = isa_->findState(ref.name);
            return state && !state->isConst;
          }
          case Expr::Kind::RangeIndex: {
            auto &range = static_cast<RangeIndexExpr &>(expr);
            if (range.base->kind != Expr::Kind::Ref)
                return false;
            auto &ref = static_cast<RefExpr &>(*range.base);
            const StateInfo *state = isa_->findState(ref.name);
            return state &&
                   state->kind == StateInfo::Kind::AddressSpace;
          }
          default:
            return false;
        }
    }

    Type
    checkAssign(AssignExpr &assign)
    {
        Type lhs = checkExpr(*assign.lhs);
        Type rhs = checkExpr(*assign.rhs);
        if (!isLvalue(*assign.lhs)) {
            diags_.error(assign.loc,
                         "left-hand side of assignment is not "
                         "assignable");
            return errorType();
        }
        if (!lhs.isValid() || !rhs.isValid())
            return errorType();
        if (!assign.compoundOp &&
            !isImplicitlyAssignable(lhs, rhs)) {
            diags_.error(assign.loc,
                         "cannot implicitly convert " + rhs.str() +
                             " to " + lhs.str() +
                             "; use an explicit cast");
        }
        return lhs;
    }

    DiagnosticEngine &diags_;
    SourceProvider provider_;
    SemaOptions options_;

    ElaboratedIsa *isa_ = nullptr;
    std::map<std::string, IsaDef *> defsByName_;
    std::set<std::string> loadedImports_;

    std::vector<std::map<std::string, Type>> scopes_;
    std::map<std::string, FieldInfo> *curFields_ = nullptr;
    Type curReturnType_;
    bool inFunction_ = false;
    bool inInstruction_ = false;
};

} // namespace

Sema::Sema(DiagnosticEngine &diags, SourceProvider provider,
           SemaOptions options)
    : diags_(diags), provider_(std::move(provider)),
      options_(std::move(options))
{
}

std::unique_ptr<ElaboratedIsa>
Sema::analyze(const std::string &source, const std::string &target_name)
{
    Analyzer analyzer(diags_, provider_, options_);
    return analyzer.run(source, target_name);
}

} // namespace coredsl
} // namespace longnail
