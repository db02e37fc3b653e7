#include "scaiev/interface.hh"

namespace longnail {
namespace scaiev {

// The two enums expand the same rows: conversions are offset casts.
#define LN_IFACE(name, op, ...)                                         \
    static_assert(opKindFor(SubInterface::name) == ir::OpKind::Lil##op);
#include "ir/iface.def"
#undef LN_IFACE

std::optional<SubInterface>
subInterfaceByName(const std::string &name)
{
    for (unsigned i = 0; i < ir::numIfaceOps; ++i)
        if (name == subInterfaceName(SubInterface(i)))
            return SubInterface(i);
    return std::nullopt;
}

const char *
executionModeName(ExecutionMode mode)
{
    switch (mode) {
      case ExecutionMode::InPipeline: return "in-pipeline";
      case ExecutionMode::TightlyCoupled: return "tightly-coupled";
      case ExecutionMode::Decoupled: return "decoupled";
      case ExecutionMode::Always: return "always";
    }
    return "?";
}

} // namespace scaiev
} // namespace longnail
