/**
 * @file
 * LIL — the "Longnail Intermediate Language" (Sec. 4.1(c), Fig. 5c):
 * flat control-data-flow graphs in which the SCAIE-V sub-interfaces are
 * explicit operations, subject to scheduling like the rest of the
 * behavior. Computations are expressed in the signless comb dialect.
 */

#ifndef LONGNAIL_LIL_LIL_HH
#define LONGNAIL_LIL_LIL_HH

#include <memory>
#include <string>
#include <vector>

#include "coredsl/module.hh"
#include "hir/hir.hh"
#include "ir/ir.hh"
#include "support/diagnostics.hh"

namespace longnail {
namespace lil {

/** One lil.graph: the flat CDFG of an instruction or always-block. */
struct LilGraph
{
    std::string name;
    /** Encoding pattern, e.g. "-----------------000-----0010011". */
    std::string maskString;
    const coredsl::InstrInfo *instr = nullptr; ///< null for always
    bool isAlways = false;
    ir::Graph graph;

    /** Custom (non-core) registers read or written by this graph. */
    std::vector<std::string> customRegsRead;
    std::vector<std::string> customRegsWritten;

    /** Recompute customRegsRead/Written from the graph's ops. */
    void collectCustomRegs();
    bool hasSpawnOps() const;
    std::string print() const;
};

/** The LIL view of an elaborated ISA. */
struct LilModule
{
    const coredsl::ElaboratedIsa *isa = nullptr;
    std::vector<std::unique_ptr<LilGraph>> graphs;

    const LilGraph *findGraph(const std::string &name) const;
};

/**
 * Lower a HIR module to LIL.
 *
 * GPR accesses are pattern-matched to the RdRS1/RdRS2/WrRD
 * sub-interfaces via the instruction-word positions of their index
 * fields; other fields become extracts of lil.instr_word; spawn blocks
 * are flattened with a provenance mark ("spawn" attribute) on their
 * interface operations.
 *
 * @return the module, or nullptr if diagnostics were reported (e.g.
 *         sub-interface legality violations).
 */
std::unique_ptr<LilModule> lowerToLil(const hir::HirModule &mod,
                                      DiagnosticEngine &diags);

/** Lower a single HIR instruction (for tests and the ADDI example). */
std::unique_ptr<LilGraph>
lowerInstructionToLil(const coredsl::ElaboratedIsa &isa,
                      const hir::HirInstruction &instr,
                      DiagnosticEngine &diags);

/** Lower a single always-block. */
std::unique_ptr<LilGraph>
lowerAlwaysToLil(const coredsl::ElaboratedIsa &isa,
                 const hir::HirAlways &always, DiagnosticEngine &diags);

/**
 * Enforce the SCAIE-V rule that each sub-interface is used at most once
 * per instruction (Sec. 3.1). Reports diagnostics on violations.
 * @return true if legal.
 */
bool checkInterfaceUsage(const LilGraph &graph, DiagnosticEngine &diags);

} // namespace lil
} // namespace longnail

#endif // LONGNAIL_LIL_LIL_HH
