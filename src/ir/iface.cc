#include "ir/iface.hh"

namespace longnail {
namespace ir {

namespace {

constexpr IfaceInfo ifaceTable[] = {
#define LN_IFACE(name, op, ...) __VA_ARGS__,
#include "ir/iface.def"
#undef LN_IFACE
};

/**
 * Each row's operand positions are 0 .. numOperands()-1, each once. A
 * read has no data operand but a data port and a variable name; the
 * address port carries the address or the register index, never
 * both; the valid port carries the predicate.
 */
constexpr bool
wellFormed(const IfaceInfo &row)
{
    unsigned seen = 0;
    for (int pos : {row.addr, row.data, row.pred, row.index}) {
        if (pos < 0)
            continue;
        if (unsigned(pos) >= row.numOperands() || (seen >> pos & 1))
            return false;
        seen |= 1u << pos;
    }
    bool reads = !row.write;
    bool addressed = row.addr >= 0 || row.index >= 0;
    return row.name && row.irName &&
           (reads ? row.data < 0 && row.dataPort && row.tvVar
                  : (row.data < 0) == !row.dataPort) &&
           !(row.addr >= 0 && row.index >= 0) &&
           addressed == (row.addrPort != nullptr) &&
           (row.pred >= 0) == (row.validPort != nullptr);
}

constexpr bool
tableWellFormed()
{
    for (const IfaceInfo &row : ifaceTable)
        if (!wellFormed(row))
            return false;
    return true;
}

static_assert(tableWellFormed());

} // namespace

const IfaceInfo *
ifaceInfo(OpKind kind)
{
    if (!isInterfaceOp(kind))
        return nullptr;
    return &ifaceTable[size_t(kind) - size_t(OpKind::LilInstrWord)];
}

std::string
ifaceName(const char *spelling, const std::string &reg)
{
    std::string out;
    for (const char *c = spelling; *c; ++c) {
        if (*c == '*')
            out += reg;
        else
            out += *c;
    }
    return out;
}

} // namespace ir
} // namespace longnail
