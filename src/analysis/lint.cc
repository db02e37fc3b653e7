#include "analysis/lint.hh"

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <set>
#include <sstream>

#include "analysis/dataflow.hh"
#include "analysis/effects.hh"
#include "analysis/verifier.hh"
#include "cores/rv32i.hh"
#include "scaiev/interface.hh"

namespace longnail {
namespace analysis {

namespace {

using coredsl::InstrInfo;
using ir::Graph;
using ir::OpKind;
using ir::Operation;
using ir::Value;

std::string
lowercase(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return s;
}

void
forEachOp(const Graph &graph, const std::function<void(const Operation &)> &fn)
{
    for (const auto &op : graph.ops()) {
        fn(*op);
        if (op->subgraph())
            forEachOp(*op->subgraph(), fn);
    }
}

// --------------------------------------------------------------------
// HIR-level dataflow lints
// --------------------------------------------------------------------

/** The predicate operand of a state-update op, if any. */
const Value *
predOperand(const Operation &op)
{
    switch (op.kind()) {
      case OpKind::CoredslSet:
        // [index,] value, pred — the predicate is always last.
        return op.numOperands() >= 2 ? op.operand(op.numOperands() - 1)
                                     : nullptr;
      case OpKind::CoredslSetMem:
        return op.numOperands() == 3 ? op.operand(2) : nullptr;
      default: {
        const ir::IfaceInfo *iface = ir::ifaceInfo(op.kind());
        return iface && iface->pred >= 0 ? op.operand(iface->pred)
                                         : nullptr;
      }
    }
}

void
checkHirGraph(const Graph &graph, const std::string &unit,
              DiagnosticEngine &diags)
{
    auto ranges = computeRanges(graph);
    auto rangeOf = [&](const Value *v) {
        auto it = ranges.find(v);
        return it != ranges.end() ? it->second
                                  : ValueRange::full(v->type.width);
    };
    // One `if` lowers to one mux per assigned variable; report the
    // shared dead condition once per source location.
    std::set<std::pair<int, int>> dead_mux_locs;

    forEachOp(graph, [&](const Operation &op) {
        // LN4101: a narrowing cast whose operand is provably too large
        // for the result width — the discarded bits are never zero.
        if (op.kind() == OpKind::CoredslCast && op.numOperands() == 1 &&
            op.numResults() == 1) {
            const Value *src = op.operand(0);
            unsigned rw = op.result()->type.width;
            if (!src->type.isSigned && rw < src->type.width) {
                ValueRange r = rangeOf(src);
                if (r.umin > ValueRange::maxFor(rw)) {
                    std::ostringstream os;
                    os << "cast from " << src->type.str() << " to "
                       << op.result()->type.str() << " in '" << unit
                       << "' always truncates: the value is at least "
                       << r.umin << " but only " << rw
                       << " bits are kept";
                    diags.warning(op.loc(), "LN4101", os.str());
                }
            }
        }

        // LN4102: a state write predicated on a provably false
        // condition, or a mux whose condition never holds.
        if (const Value *pred = predOperand(op)) {
            if (op.kind() == OpKind::CoredslSet ||
                op.kind() == OpKind::CoredslSetMem) {
                if (rangeOf(pred).isConstZero()) {
                    std::string state =
                        op.hasAttr("state") ? op.strAttr("state") : "?";
                    diags.warning(op.loc(), "LN4102",
                                  "condition is always false: the "
                                  "write to '" +
                                      state + "' in '" + unit +
                                      "' never executes");
                }
            }
        }
        if (op.kind() == OpKind::HwMux && op.numOperands() == 3 &&
            rangeOf(op.operand(0)).isConstZero() &&
            dead_mux_locs.insert({op.loc().line, op.loc().column})
                .second)
            diags.warning(op.loc(), "LN4102",
                          "condition is always false: the true "
                          "branch in '" +
                              unit + "' is never selected");

        // LN4805 (structural variant): a spawn block with no state
        // update at all. Checked here, pre-canonicalization, because
        // DCE erases the dead body before the LIL-level effect
        // summary could see it.
        if (op.kind() == OpKind::CoredslSpawn && op.subgraph()) {
            bool has_update = false;
            forEachOp(*op.subgraph(), [&](const Operation &inner) {
                if (inner.kind() == OpKind::CoredslSet ||
                    inner.kind() == OpKind::CoredslSetMem)
                    has_update = true;
            });
            if (!has_update)
                diags.warning(op.loc(), "LN4805",
                              "dead spawn block in '" + unit +
                                  "': it contains no state update, so "
                                  "its effects are never observable");
        }
    });
}

// --------------------------------------------------------------------
// LIL-level dataflow lints
// --------------------------------------------------------------------

void
checkLilGraph(const lil::LilGraph &graph,
              const std::set<std::string> &written_regs,
              DiagnosticEngine &diags)
{
    // LN4103: reads of custom registers no instruction or always-block
    // ever writes. Definite-initialization dataflow then shows where
    // the uninitialized value ends up.
    std::set<const Operation *> uninit_reads;
    forEachOp(graph.graph, [&](const Operation &op) {
        if (op.kind() != OpKind::LilReadCustReg)
            return;
        const std::string &reg = op.strAttr("reg");
        if (written_regs.count(reg))
            return;
        uninit_reads.insert(&op);
        diags.warning(op.loc(), "LN4103",
                      "custom register '" + reg + "' is read in '" +
                          graph.name +
                          "' but never written by any instruction or "
                          "always-block");
    });
    if (!uninit_reads.empty()) {
        InitLattice lattice(uninit_reads);
        auto states = ForwardDataflow<InitState>(lattice).run(graph.graph);
        forEachOp(graph.graph, [&](const Operation &op) {
            if (!ir::isStateUpdateOp(op.kind()))
                return;
            for (const Value *v : op.operands()) {
                auto it = states.find(v);
                if (it != states.end() && it->second.maybeUninit) {
                    diags.note(op.loc(),
                               std::string("the uninitialized value "
                                           "reaches ") +
                                   op.name() + " here");
                    break;
                }
            }
        });
    }

    // LN4104: interface operations that can never take effect because
    // their predicate is constant false — dead LIL nodes the frontend
    // could not fold away.
    auto ranges = computeRanges(graph.graph);
    forEachOp(graph.graph, [&](const Operation &op) {
        const Value *pred = predOperand(op);
        if (!pred || !ir::isInterfaceOp(op.kind()))
            return;
        auto it = ranges.find(pred);
        if (it != ranges.end() && it->second.isConstZero())
            diags.warning(op.loc(), "LN4104",
                          std::string("dead node: ") + op.name() +
                              " in '" + graph.name +
                              "' never executes (its predicate is "
                              "always false)");
    });

    // LN4105: shift amounts that are provably at least the operand
    // width. Amounts clamp to the width, so such a shift discards
    // every data bit — almost always an off-by-one in the amount
    // expression or a width mix-up.
    forEachOp(graph.graph, [&](const Operation &op) {
        bool is_shift = op.kind() == OpKind::CombShl ||
                        op.kind() == OpKind::CombShrU ||
                        op.kind() == OpKind::CombShrS;
        if (!is_shift || op.numOperands() != 2 || op.numResults() != 1)
            return;
        unsigned width = op.result()->type.width;
        auto it = ranges.find(op.operand(1));
        if (it == ranges.end() || it->second.umin < width)
            return;
        bool arith = op.kind() == OpKind::CombShrS;
        diags.warning(
            op.loc(), "LN4105",
            std::string("shift amount in '") + graph.name +
                "' is always >= the operand width (" +
                std::to_string(width) + "): " + op.name() +
                (arith ? " always yields just copies of the sign bit"
                       : " always yields 0"));
    });
}

// --------------------------------------------------------------------
// Spawn/always effect-interference checks (LN4801..LN4805)
// --------------------------------------------------------------------

/**
 * Joins the MAY/MUST effect summaries (analysis/effects.hh) across
 * every graph of the module and reports the decoupled-execution
 * hazards. The architectural side of each comparison is a graph's
 * non-spawn (main) partition — always-blocks are all main.
 */
void
checkEffects(const lil::LilModule &mod, DiagnosticEngine &diags)
{
    struct Unit
    {
        const lil::LilGraph *graph;
        GraphEffects fx;
    };
    std::vector<Unit> units;
    units.reserve(mod.graphs.size());
    for (const auto &graph : mod.graphs)
        units.push_back({graph.get(), summarizeGraph(graph->graph)});

    auto describe = [](const Unit &u) {
        return std::string(u.graph->isAlways ? "always-block '"
                                             : "'") +
               u.graph->name + "'";
    };

    for (size_t i = 0; i < units.size(); ++i) {
        const Unit &u = units[i];
        if (!u.fx.hasSpawn)
            continue;
        const EffectSummary &sp = u.fx.spawn;

        // LN4801: a decoupled custom-register write racing an
        // architectural (in-order) read in *another* graph. The same
        // graph's own in-order reads always precede the spawn
        // (operands are retrieved with the fetched instruction), so
        // they are not a race.
        for (const auto &[reg, w] : sp.regsWritten) {
            if (!w.may)
                continue;
            for (size_t j = 0; j < units.size(); ++j) {
                if (j == i)
                    continue;
                auto it = units[j].fx.main.regsRead.find(reg);
                if (it == units[j].fx.main.regsRead.end() ||
                    !it->second.may)
                    continue;
                diags.warning(
                    w.loc, "LN4801",
                    "decoupled write to custom register '" + reg +
                        "' in " + describe(u) +
                        " races the architectural read in " +
                        describe(units[j]) +
                        ": the read may observe the value before or "
                        "after the spawn retires");
                diags.note(it->second.loc,
                           "the racing read of '" + reg + "' is here");
            }
        }

        // LN4802: lost update — the decoupled write and another
        // write (an in-order write anywhere, or another graph's
        // spawn) target the same register with no ordering between
        // them.
        for (const auto &[reg, w] : sp.regsWritten) {
            if (!w.may)
                continue;
            for (size_t j = 0; j < units.size(); ++j) {
                const EffectSummary &other_main = units[j].fx.main;
                auto it = other_main.regsWritten.find(reg);
                if (it != other_main.regsWritten.end() &&
                    it->second.may) {
                    diags.warning(
                        w.loc, "LN4802",
                        "lost update: the decoupled write to custom "
                        "register '" +
                            reg + "' in " + describe(u) +
                            " and the in-order write in " +
                            describe(units[j]) +
                            " are unordered; one update can be "
                            "silently overwritten");
                    diags.note(it->second.loc,
                               "the conflicting write to '" + reg +
                                   "' is here");
                }
                if (j <= i)
                    continue; // each spawn/spawn pair reported once
                auto sp_it = units[j].fx.spawn.regsWritten.find(reg);
                if (sp_it != units[j].fx.spawn.regsWritten.end() &&
                    sp_it->second.may) {
                    diags.warning(
                        w.loc, "LN4802",
                        "lost update: decoupled writes to custom "
                        "register '" +
                            reg + "' in " + describe(u) + " and " +
                            describe(units[j]) +
                            " retire in an unpredictable order");
                    diags.note(sp_it->second.loc,
                               "the conflicting write to '" + reg +
                                   "' is here");
                }
            }
        }

        // LN4803: a decoupled memory write whose address interval
        // overlaps a core-visible (in-order) memory access — the
        // core's ordering guarantees do not extend to the spawn.
        for (const auto &mw : sp.memWrites) {
            if (!mw.may)
                continue;
            bool reported = false;
            for (size_t j = 0; j < units.size() && !reported; ++j) {
                const EffectSummary &other_main = units[j].fx.main;
                auto checkAlias = [&](const MemEffect &acc,
                                      const char *what) {
                    if (reported || !acc.may || !mw.overlaps(acc))
                        return;
                    reported = true;
                    diags.warning(
                        mw.loc, "LN4803",
                        "memory ordering hazard: the decoupled store "
                        "in " +
                            describe(u) + " may alias the in-order " +
                            what + " in " + describe(units[j]) +
                            " (address ranges overlap)");
                    diags.note(acc.loc,
                               std::string("the aliasing ") + what +
                                   " is here");
                };
                for (const auto &mr : other_main.memReads)
                    checkAlias(mr, "load");
                for (const auto &ow : other_main.memWrites)
                    checkAlias(ow, "store");
            }
        }

        // LN4804: a non-idempotent decoupled effect (read-modify-write
        // of a register, or a store derived from a load) in a graph
        // whose in-order part may redirect the PC. The redirect is a
        // flush boundary: a squashed-and-reissued instruction would
        // launch the spawn twice.
        if (u.fx.main.redirectsPc()) {
            for (const auto &reg : sp.regsRmw) {
                auto it = sp.regsWritten.find(reg);
                if (it == sp.regsWritten.end() || !it->second.may)
                    continue;
                diags.warning(
                    it->second.loc, "LN4804",
                    "non-idempotent decoupled effect in " +
                        describe(u) +
                        ": the read-modify-write of custom register "
                        "'" +
                        reg +
                        "' is launched before the PC redirect (a "
                        "flush boundary); a re-issued instruction "
                        "applies it twice");
            }
            for (const auto &mw : sp.memWrites) {
                if (!mw.may || !mw.dependsOnMemRead)
                    continue;
                diags.warning(
                    mw.loc, "LN4804",
                    "non-idempotent decoupled effect in " +
                        describe(u) +
                        ": the store depends on a load and is "
                        "launched before the PC redirect (a flush "
                        "boundary); a re-issued instruction applies "
                        "it twice");
            }
        }

        // LN4805 (effect variant): spawn ops exist but no observable
        // update MAY execute — e.g. every decoupled write is
        // predicated provably false.
        if (sp.observableEmpty())
            diags.warning(u.fx.spawnLoc, "LN4805",
                          "dead spawn block in " + describe(u) +
                              ": no decoupled state update can ever "
                              "execute, so its effects are never "
                              "observable");
    }
}

// --------------------------------------------------------------------
// Encoding checks
// --------------------------------------------------------------------

/** True if some instruction word matches both patterns. */
bool
patternsOverlap(uint32_t mask_a, uint32_t match_a, uint32_t mask_b,
                uint32_t match_b)
{
    return ((match_a ^ match_b) & mask_a & mask_b) == 0;
}

std::string
hexWord(uint32_t word)
{
    std::ostringstream os;
    os << "0x" << std::hex << word;
    return os.str();
}

void
checkEncodings(const coredsl::ElaboratedIsa &isa, DiagnosticEngine &diags)
{
    std::vector<const InstrInfo *> ext;
    for (const auto &instr : isa.instructions)
        if (!instr.fromBase)
            ext.push_back(&instr);

    // LN4201: pairwise overlap between the ISAX's own instructions —
    // some word would decode as both, making the extension ambiguous.
    for (size_t i = 0; i < ext.size(); ++i) {
        for (size_t j = i + 1; j < ext.size(); ++j) {
            const InstrInfo &a = *ext[i], &b = *ext[j];
            if (!patternsOverlap(a.mask, a.match, b.mask, b.match))
                continue;
            SourceLoc loc = b.ast ? b.ast->loc : SourceLoc{};
            diags.warning(loc, "LN4201",
                          "encodings of '" + a.name + "' and '" +
                              b.name + "' overlap: word " +
                              hexWord(a.match | b.match) +
                              " matches both");
        }
    }

    // LN4202: overlap with the RV32I base — the host core would steal
    // (or mis-decode) the ISAX's encodings.
    for (const InstrInfo *instr : ext) {
        std::set<std::string> reported;
        SourceLoc loc = instr->ast ? instr->ast->loc : SourceLoc{};
        for (const auto &pat : cores::rv32iBasePatterns()) {
            if (!patternsOverlap(instr->mask, instr->match, pat.mask,
                                 pat.match))
                continue;
            reported.insert(lowercase(pat.name));
            diags.warning(loc, "LN4202",
                          "encoding of '" + instr->name +
                              "' overlaps the RV32I base instruction "
                              "'" +
                              pat.name + "'");
        }
        for (const auto &base : isa.instructions) {
            if (!base.fromBase || reported.count(lowercase(base.name)))
                continue;
            if (patternsOverlap(instr->mask, instr->match, base.mask,
                                base.match))
                diags.warning(loc, "LN4202",
                              "encoding of '" + instr->name +
                                  "' overlaps the base instruction '" +
                                  base.name + "'");
        }
    }
}

// --------------------------------------------------------------------
// Pre-schedule datasheet checks
// --------------------------------------------------------------------

void
checkDatasheet(const lil::LilModule &mod, const scaiev::Datasheet &sheet,
               DiagnosticEngine &diags)
{
    for (const auto &graph : mod.graphs) {
        // Dependence-driven ASAP lower bound per op: interface ops may
        // not start before their window opens, and every operand must
        // have been produced (interface latencies included). This is a
        // relaxation of the real scheduling problem, so anything
        // flagged here is guaranteed infeasible for the scheduler too.
        std::map<const Value *, int> ready; // earliest availability
        forEachOp(graph->graph, [&](const Operation &op) {
            int start = 0;
            for (const Value *v : op.operands()) {
                auto it = ready.find(v);
                if (it != ready.end())
                    start = std::max(start, it->second);
            }

            auto iface = scaiev::subInterfaceFor(op.kind());
            unsigned latency = 0;
            if (iface) {
                auto timing_it = sheet.timings.find(*iface);
                if (timing_it == sheet.timings.end()) {
                    // LN4301: the datasheet does not offer this
                    // sub-interface at all.
                    diags.warning(
                        op.loc(), "LN4301",
                        std::string("sub-interface ") +
                            scaiev::subInterfaceName(*iface) +
                            " used by '" + graph->name +
                            "' is not offered by core '" +
                            sheet.coreName + "'");
                } else {
                    const auto &timing = timing_it->second;
                    start = std::max(start, timing.earliest);
                    latency = timing.latency;
                    // LN4302: the op depends on values that are only
                    // ready after the interface's window has closed.
                    // Decoupled/spawned ops and late-capable writes
                    // (WrRD, memory) escape the native window.
                    bool windowed =
                        !scaiev::supportsLateVariants(*iface) &&
                        !op.hasAttr("spawn");
                    if (windowed && start > timing.latest) {
                        std::ostringstream os;
                        os << op.name() << " in '" << graph->name
                           << "' cannot start before stage " << start
                           << ", but core '" << sheet.coreName
                           << "' only offers "
                           << scaiev::subInterfaceName(*iface)
                           << " in stages " << timing.earliest << ".."
                           << timing.latest;
                        diags.warning(op.loc(), "LN4302", os.str());
                    }
                }
            }
            for (unsigned r = 0; r < op.numResults(); ++r)
                ready[op.result(r)] = start + int(latency);
        });
    }

    // LN4303: two always-blocks driving the same write port would
    // contend every cycle — there is no instruction arbitration to
    // separate them.
    std::map<std::string, std::vector<std::string>> always_writers;
    for (const auto &graph : mod.graphs) {
        if (!graph->isAlways)
            continue;
        std::set<std::string> targets;
        forEachOp(graph->graph, [&](const Operation &op) {
            auto iface = scaiev::subInterfaceFor(op.kind());
            if (!iface || !scaiev::isWriteInterface(*iface))
                return;
            if (scaiev::interfaceInfo(*iface).perRegister)
                targets.insert("custom register '" +
                               op.strAttr("reg") + "'");
            else
                targets.insert(
                    std::string(scaiev::subInterfaceName(*iface)));
        });
        for (const auto &target : targets)
            always_writers[target].push_back(graph->name);
    }
    for (const auto &[target, writers] : always_writers) {
        if (writers.size() < 2)
            continue;
        std::string names;
        for (const auto &w : writers)
            names += (names.empty() ? "'" : ", '") + w + "'";
        diags.warning({}, "LN4303",
                      "write-port arbitration conflict: always-blocks " +
                          names + " all drive " + target +
                          " every cycle");
    }
}

} // namespace

// --------------------------------------------------------------------
// Entry points
// --------------------------------------------------------------------

namespace {

bool
verifyUnit(const Graph &graph, const std::string &what,
           DiagnosticEngine &diags)
{
    VerifyOptions options;
    options.requireTerminator = true;
    auto issues = verifyGraph(graph, options);
    reportIssues(issues, what, diags);
    return issues.empty();
}

} // namespace

bool
verifyHirModule(const hir::HirModule &mod, DiagnosticEngine &diags)
{
    bool ok = true;
    for (const auto &instr : mod.instructions)
        ok &= verifyUnit(instr->body, "HIR of '" + instr->name + "'",
                         diags);
    for (const auto &blk : mod.alwaysBlocks)
        ok &= verifyUnit(blk->body, "HIR of '" + blk->name + "'", diags);
    return ok;
}

bool
verifyLilModule(const lil::LilModule &mod, DiagnosticEngine &diags)
{
    bool ok = true;
    for (const auto &graph : mod.graphs)
        ok &= verifyUnit(graph->graph, "LIL of '" + graph->name + "'",
                         diags);
    return ok;
}

void
checkHirModule(const hir::HirModule &mod, DiagnosticEngine &diags)
{
    for (const auto &instr : mod.instructions)
        checkHirGraph(instr->body, instr->name, diags);
    for (const auto &blk : mod.alwaysBlocks)
        checkHirGraph(blk->body, blk->name, diags);
}

void
checkLilModule(const lil::LilModule &mod, const scaiev::Datasheet &sheet,
               DiagnosticEngine &diags)
{
    std::set<std::string> written;
    for (const auto &graph : mod.graphs)
        for (const auto &reg : graph->customRegsWritten)
            written.insert(reg);

    for (const auto &graph : mod.graphs)
        checkLilGraph(*graph, written, diags);

    checkEffects(mod, diags);

    if (mod.isa)
        checkEncodings(*mod.isa, diags);
    checkDatasheet(mod, sheet, diags);
}

// --------------------------------------------------------------------
// LN-code registry
// --------------------------------------------------------------------

const LnCodeInfo *
findLnCode(const std::string &code)
{
    for (const LnCodeInfo &info : lnCodeRegistry)
        if (code == info.code)
            return &info;
    return nullptr;
}

std::string
renderLnCodeTable()
{
    std::ostringstream os;
    os << "| code | severity | phase | finding |\n";
    os << "|------|----------|-------|---------|\n";
    for (const LnCodeInfo &info : lnCodeRegistry)
        os << "| " << info.code << " | " << info.severity << " | "
           << info.phase << " | " << info.summary << " |\n";
    return os.str();
}

} // namespace analysis
} // namespace longnail
