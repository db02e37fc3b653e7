#include "analysis/effects.hh"

#include <algorithm>
#include <functional>

#include "analysis/dataflow.hh"
#include "ir/iface.hh"

namespace longnail {
namespace analysis {

namespace {

using ir::Graph;
using ir::OpKind;
using ir::Operation;
using ir::Value;

void
forEachOp(const Graph &graph, const std::function<void(const Operation &)> &fn)
{
    for (const auto &op : graph.ops()) {
        fn(*op);
        if (op->subgraph())
            forEachOp(*op->subgraph(), fn);
    }
}

void
joinEffect(std::map<std::string, Effect> &into, const std::string &key,
           bool may, bool must, SourceLoc loc)
{
    auto [it, fresh] = into.emplace(key, Effect{may, must, loc});
    if (!fresh) {
        it->second.may |= may;
        it->second.must |= must;
    }
}

/** Walks the transitive fan-in of values, memoized per query set. */
class FanIn
{
  public:
    explicit FanIn(const Graph &graph)
    {
        collectDefs(graph);
    }

    /** True if any op satisfying @p pred is in @p root's fan-in
     * (including @p root's defining op itself). */
    bool
    reaches(const Value *root,
            const std::function<bool(const Operation &)> &pred) const
    {
        std::set<const Value *> seen;
        return walk(root, pred, seen);
    }

  private:
    bool
    walk(const Value *v, const std::function<bool(const Operation &)> &pred,
         std::set<const Value *> &seen) const
    {
        if (!v || !seen.insert(v).second)
            return false;
        auto it = defs_.find(v);
        if (it == defs_.end())
            return false;
        const Operation &def = *it->second;
        if (pred(def))
            return true;
        for (const Value *operand : def.operands())
            if (walk(operand, pred, seen))
                return true;
        return false;
    }

    void
    collectDefs(const Graph &graph)
    {
        for (const auto &op : graph.ops()) {
            for (unsigned r = 0; r < op->numResults(); ++r)
                defs_[op->result(r)] = op.get();
            if (op->subgraph())
                collectDefs(*op->subgraph());
        }
    }

    std::map<const Value *, const Operation *> defs_;
};

} // namespace

bool
EffectSummary::redirectsPc() const
{
    auto it = ifaceWrites.find("pc");
    return it != ifaceWrites.end() && it->second.may;
}

bool
EffectSummary::observableEmpty() const
{
    for (const auto &[reg, e] : regsWritten)
        if (e.may)
            return false;
    for (const auto &m : memWrites)
        if (m.may)
            return false;
    for (const auto &[port, e] : ifaceWrites)
        if (e.may)
            return false;
    return true;
}

GraphEffects
summarizeGraph(const Graph &graph)
{
    GraphEffects fx;
    auto ranges = computeRanges(graph);
    auto rangeOf = [&](const Value *v) {
        auto it = ranges.find(v);
        return it != ranges.end() ? it->second
                                  : ValueRange::full(v->type.width);
    };
    FanIn fanin(graph);

    auto readsReg = [&](const Value *v, const std::string &reg) {
        return fanin.reaches(v, [&](const Operation &def) {
            return def.kind() == OpKind::LilReadCustReg &&
                   def.strAttr("reg") == reg;
        });
    };
    auto readsMem = [&](const Value *v) {
        return fanin.reaches(v, [&](const Operation &def) {
            return def.kind() == OpKind::LilReadMem;
        });
    };

    forEachOp(graph, [&](const Operation &op) {
        const ir::IfaceInfo *iface = ir::ifaceInfo(op.kind());
        if (!iface)
            return;

        bool in_spawn = op.hasAttr("spawn");
        if (in_spawn && !fx.hasSpawn) {
            fx.hasSpawn = true;
            fx.spawnLoc = op.loc();
        }
        EffectSummary &s = in_spawn ? fx.spawn : fx.main;

        // MAY/MUST from the predicate: a provably false predicate
        // means the op has no effect at all; a provably true (or
        // absent) predicate makes it a MUST effect.
        bool may = true, must = true;
        if (iface->pred >= 0) {
            ValueRange r = rangeOf(op.operand(iface->pred));
            if (r.isConstZero())
                may = must = false;
            else
                must = r.umin >= 1;
        }
        // The address leg of a custom-register write is not an effect
        // alone: its data write carries the value and predicate.
        if (!may || !iface->effect)
            return;

        // Core ports by name; custom registers by register.
        std::string key = ir::ifaceName(
            iface->effect, iface->perRegister ? op.strAttr("reg") : "");
        auto &into = iface->perRegister
                         ? (iface->write ? s.regsWritten : s.regsRead)
                         : (iface->write ? s.ifaceWrites : s.ifaceReads);
        joinEffect(into, key, may, must, op.loc());

        // Byte-address interval of a memory access: the LIL memory
        // interface moves aligned 32-bit words, so the footprint is
        // [addr, addr + 3] (saturating).
        if (iface->addr >= 0) {
            const Value *addr = op.operand(iface->addr);
            ValueRange r = rangeOf(addr);
            MemEffect m;
            m.lo = r.umin;
            m.hi = r.umax > UINT64_MAX - 3 ? UINT64_MAX : r.umax + 3;
            m.may = may;
            m.must = must;
            m.loc = op.loc();
            if (iface->write) {
                m.dependsOnMemRead =
                    readsMem(addr) || readsMem(op.operand(iface->data));
                s.memWrites.push_back(m);
            } else {
                s.memReads.push_back(m);
            }
        }
        if (iface->perRegister && iface->write &&
            readsReg(op.operand(iface->data), key))
            s.regsRmw.insert(key);
    });
    return fx;
}

const char *
hazardKindName(HazardKind kind)
{
    switch (kind) {
      case HazardKind::RegRace: return "reg-race";
      case HazardKind::RegWaw: return "reg-waw";
      case HazardKind::MemAlias: return "mem-alias";
      case HazardKind::PortConflict: return "port-conflict";
    }
    return "?";
}

std::vector<Hazard>
interference(const EffectSummary &a, const EffectSummary &b)
{
    std::vector<Hazard> out;

    // Register hazards: a's writes against b's reads and writes.
    for (const auto &[reg, wa] : a.regsWritten) {
        if (!wa.may)
            continue;
        if (auto it = b.regsRead.find(reg);
            it != b.regsRead.end() && it->second.may)
            out.push_back({HazardKind::RegRace, reg,
                           wa.must && it->second.must, wa.loc});
        if (auto it = b.regsWritten.find(reg);
            it != b.regsWritten.end() && it->second.may)
            out.push_back({HazardKind::RegWaw, reg,
                           wa.must && it->second.must, wa.loc});
    }

    // Port conflicts: both partitions driving the same core write
    // port (rd/pc; "mem" overlap is reported precisely below).
    for (const auto &[port, wa] : a.ifaceWrites) {
        if (!wa.may || port == "mem")
            continue;
        if (auto it = b.ifaceWrites.find(port);
            it != b.ifaceWrites.end() && it->second.may)
            out.push_back({HazardKind::PortConflict, port,
                           wa.must && it->second.must, wa.loc});
    }

    // Memory aliasing: a's writes against b's reads and writes, using
    // the range-lattice address intervals.
    for (const auto &wa : a.memWrites) {
        if (!wa.may)
            continue;
        bool alias = false, must = false;
        for (const auto &rb : b.memReads)
            if (rb.may && wa.overlaps(rb)) {
                alias = true;
                must |= wa.must && rb.must;
            }
        for (const auto &wb : b.memWrites)
            if (wb.may && wa.overlaps(wb)) {
                alias = true;
                must |= wa.must && wb.must;
            }
        if (alias)
            out.push_back({HazardKind::MemAlias, "memory", must,
                           wa.loc});
    }
    return out;
}

bool
spawnIsolated(const GraphEffects &fx)
{
    if (!fx.hasSpawn)
        return false;
    return interference(fx.spawn, fx.main).empty() &&
           interference(fx.main, fx.spawn).empty();
}

} // namespace analysis
} // namespace longnail
