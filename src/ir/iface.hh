/**
 * @file
 * The SCAIE-V sub-interfaces (Table 1): one row of facts per
 * sub-interface (ir/iface.def) for the lil.* operation that uses it.
 *
 * ir::OpKind's interface block and scaiev::SubInterface embed the rows
 * in the same order, so converting between them is an offset cast.
 * The structural consumers read the row: operation and YAML names, the
 * verifier, removability, operand roles, hwgen's ports and the effect
 * summaries. The reference implementations (lil::interpret, the pass
 * signature, TV's obligations, hwgen::runIsolated, the core models)
 * state what each operand means on their own, so they refute a wrong
 * row instead of following it.
 */

#ifndef LONGNAIL_IR_IFACE_HH
#define LONGNAIL_IR_IFACE_HH

#include <string>

#include "ir/ir.hh"

namespace longnail {
namespace ir {

/** One row of iface.def. */
struct IfaceInfo
{
    /** Table 1 name, also the datasheet YAML key; a per-register row's
     * "CustReg" stands for the register in the configuration file's
     * schedule entries ("WrCOUNT.addr"). */
    const char *name = nullptr;
    const char *irName = nullptr; ///< "lil.read_mem"
    /** Updates architectural state and has no result; a read has one. */
    bool write = false;

    // Operand positions, -1 when absent. An op has exactly these
    // operands: lowering always builds the full form.
    int addr = -1;  ///< 32-bit memory address
    int data = -1;  ///< the value written
    int pred = -1;  ///< 1-bit predicate (valid)
    int index = -1; ///< custom register index

    /** The result of a read, or the data of a write, is a 32-bit word;
     * otherwise it is as wide as the custom register's elements. */
    bool word = false;
    /** Instantiated once per custom register ("reg" attribute). */
    bool perRegister = false;
    /** Has the tightly-coupled/decoupled variants (Sec. 3.2): it may be
     * scheduled past the datasheet's latest stage. */
    bool lateVariants = false;
    /** The read's data arrives the operation's latency after its
     * request; hwgen names the request's address wire. */
    bool delayedData = false;
    /** An unused result may be deleted. A read that is not removable
     * is an effect: the core sees the request (RdMem). */
    bool removable = false;

    // hwgen's port names before the "_<stage>" suffix.
    const char *addrPort = nullptr;  ///< address or register index
    const char *dataPort = nullptr;  ///< read data in, write data out
    const char *validPort = nullptr; ///< predicate out

    /** The value a read yields in TV and the pass signature (a free
     * variable); nullptr for writes. */
    const char *tvVar = nullptr;
    /** The effect summary's key (analysis/effects.hh); nullptr when
     * the op alone is not an effect (WrCustReg.addr). */
    const char *effect = nullptr;

    /** Number of operands. */
    constexpr unsigned
    numOperands() const
    {
        return (addr >= 0) + (data >= 0) + (pred >= 0) + (index >= 0);
    }
};

constexpr unsigned numIfaceOps = 0
#define LN_IFACE(...) +1
#include "ir/iface.def"
#undef LN_IFACE
    ;

static_assert(int(OpKind::LilSink) - int(OpKind::LilInstrWord) ==
              int(numIfaceOps));

/** The row of @p kind; nullptr when it is not an interface op. */
const IfaceInfo *ifaceInfo(OpKind kind);

/** A table spelling for register @p reg: '*' stands for its name. */
std::string ifaceName(const char *spelling, const std::string &reg);

} // namespace ir
} // namespace longnail

#endif // LONGNAIL_IR_IFACE_HH
