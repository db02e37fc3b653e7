/**
 * @file
 * SCAIE-V sub-interface definitions (Table 1 of the paper) and the
 * execution modes of Sec. 3.2.
 */

#ifndef LONGNAIL_SCAIEV_INTERFACE_HH
#define LONGNAIL_SCAIEV_INTERFACE_HH

#include <optional>
#include <string>

#include "ir/iface.hh"

namespace longnail {
namespace scaiev {

/**
 * The sub-interface operations a SCAIE-V-enabled core offers
 * (Table 1), one per row of ir/iface.def, in table order.
 * Custom-register interfaces are instantiated per register on demand;
 * stall/flush signals are per-stage and managed by the integration
 * layer, not scheduled by Longnail.
 */
enum class SubInterface
{
#define LN_IFACE(name, ...) name,
#include "ir/iface.def"
#undef LN_IFACE
};

/** The lil.* operation that exercises @p iface. */
constexpr ir::OpKind
opKindFor(SubInterface iface)
{
    return ir::OpKind(int(iface) + int(ir::OpKind::LilInstrWord));
}

/** The sub-interface exercised by a lil.* operation, if any. */
inline std::optional<SubInterface>
subInterfaceFor(ir::OpKind kind)
{
    if (!ir::isInterfaceOp(kind))
        return std::nullopt;
    return SubInterface(int(kind) - int(ir::OpKind::LilInstrWord));
}

/** The ir/iface.def row of @p iface. */
inline const ir::IfaceInfo &
interfaceInfo(SubInterface iface)
{
    return *ir::ifaceInfo(opKindFor(iface));
}

/** The Table 1 name, also the datasheet YAML key. */
inline const char *
subInterfaceName(SubInterface iface)
{
    return interfaceInfo(iface).name;
}

/** Inverse of subInterfaceName(); nullopt for an unknown name. */
std::optional<SubInterface> subInterfaceByName(const std::string &name);

/** True for the interfaces that update architectural state. */
inline bool
isWriteInterface(SubInterface iface)
{
    return interfaceInfo(iface).write;
}

/**
 * Execution modes (Sec. 3.2). In-pipeline and always are available for
 * all sub-interfaces; tightly-coupled and decoupled only for WrRD,
 * RdMem and WrMem.
 */
enum class ExecutionMode
{
    InPipeline,
    TightlyCoupled,
    Decoupled,
    Always,
};

const char *executionModeName(ExecutionMode mode);

/** True if @p iface supports the tightly-coupled/decoupled variants. */
inline bool
supportsLateVariants(SubInterface iface)
{
    return interfaceInfo(iface).lateVariants;
}

} // namespace scaiev
} // namespace longnail

#endif // LONGNAIL_SCAIEV_INTERFACE_HH
