/**
 * @file
 * The comb operators: one enum, one row of facts per operator
 * (ir/comb.def) and one reference semantics.
 *
 * LIL comb.* operations, rtl::Node kinds and tv::Term kinds are the
 * same operator set; their enums embed the comb.def rows in the same
 * order, so converting between them is an offset cast. Every consumer
 * that computes a concrete value -- ir::evaluate, both simulation
 * engines, TermBuilder constant folding -- calls evalComb() below.
 */

#ifndef LONGNAIL_IR_COMB_HH
#define LONGNAIL_IR_COMB_HH

#include <optional>
#include <vector>

#include "ir/ir.hh"
#include "support/apint.hh"

namespace longnail {
namespace ir {

/** The comb operators, in comb.def order. */
enum class CombOp
{
#define LN_COMB_OP(name, ...) name,
#include "ir/comb.def"
#undef LN_COMB_OP
};

/** One row of comb.def. */
struct CombOpInfo
{
    const char *name;   ///< "add"
    const char *irName; ///< "comb.add", the LIL operation name
    int arity;          ///< operand count; -1: two or more
    bool commutative;
    const char *infix;  ///< Verilog binary operator, or nullptr
};

constexpr unsigned numCombOps = 0
#define LN_COMB_OP(...) +1
#include "ir/comb.def"
#undef LN_COMB_OP
    ;

const CombOpInfo &combInfo(CombOp op);

static_assert(int(OpKind::CombRom) - int(OpKind::CombConstant) + 1 ==
              int(numCombOps));

/** True for the comb.* operations of LIL. */
inline bool
isComb(OpKind kind)
{
    return kind >= OpKind::CombConstant && kind <= OpKind::CombRom;
}

inline std::optional<CombOp>
combOpOf(OpKind kind)
{
    if (!isComb(kind))
        return std::nullopt;
    return CombOp(int(kind) - int(OpKind::CombConstant));
}

inline OpKind
opKindOf(CombOp op)
{
    return OpKind(int(op) + int(OpKind::CombConstant));
}

/** Division and remainder: a zero divisor yields 0. */
inline bool
isDivOrMod(CombOp op)
{
    return op == CombOp::DivU || op == CombOp::DivS ||
           op == CombOp::ModU || op == CombOp::ModS;
}

/**
 * The effective amount of a shift of a @p value_width-bit value: an
 * amount with more than 32 active bits means the full width, and no
 * amount exceeds the width.
 */
unsigned clampShiftAmount(const ApInt &amount, unsigned value_width);

/** The attributes an operator reads besides its operands. */
struct CombAttrs
{
    const ApInt *value = nullptr;                  ///< Constant
    ICmpPred pred = ICmpPred::Eq;                  ///< ICmp
    unsigned lo = 0;                               ///< Extract
    const std::vector<ApInt> *romValues = nullptr; ///< Rom
};

/** The attributes of @p op read as operator @p as (a comb op, or a
 * hwarith/coredsl op with the same attribute names). */
CombAttrs combAttrs(const Operation &op, CombOp as);

/** Set @p attrs on @p op, a new comb.* operation of operator @p as. */
void setCombAttrs(Operation &op, CombOp as, const CombAttrs &attrs);

/**
 * The operand values of one operator application, wherever the caller
 * keeps them: get(i) returns operand i. Refers to @p get, so it lives
 * only as long as the call it is passed to.
 */
class CombOperands
{
  public:
    template <class Get>
    CombOperands(unsigned count, const Get &get)
        : count_(count), get_(&get),
          call_([](const void *fn, unsigned i) -> const ApInt & {
              return (*static_cast<const Get *>(fn))(i);
          })
    {}

    unsigned size() const { return count_; }
    const ApInt &operator[](unsigned i) const { return call_(get_, i); }

  private:
    unsigned count_;
    const void *get_;
    const ApInt &(*call_)(const void *, unsigned);
};

/**
 * The reference semantics: the @p width-bit result of @p op applied to
 * @p in. Division and remainder by zero give 0; shift amounts clamp
 * (clampShiftAmount); an out-of-range ROM index, or more than 63
 * active index bits, gives 0, and a ROM without an index operand reads
 * entry 0; concat is N-ary with operand 0 high; replicate fills the
 * width with its 1-bit operand.
 */
ApInt evalComb(CombOp op, unsigned width, CombOperands in,
               const CombAttrs &attrs);

} // namespace ir
} // namespace longnail

#endif // LONGNAIL_IR_COMB_HH
