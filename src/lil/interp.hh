/**
 * @file
 * Interpreter for LIL graphs: the untimed golden model of an ISAX's
 * datapath. Used to verify the generated RTL (paper Sec. 5.3 verifies
 * via RTL simulation; we additionally cross-check against this model)
 * and as the semantic reference inside the core simulators' tests.
 */

#ifndef LONGNAIL_LIL_INTERP_HH
#define LONGNAIL_LIL_INTERP_HH

#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "lil/lil.hh"
#include "support/apint.hh"

namespace longnail {
namespace lil {

/** Architectural inputs for one execution of a LIL graph. */
struct InterpInput
{
    ApInt instrWord{32, 0};
    ApInt rs1{32, 0};
    ApInt rs2{32, 0};
    ApInt pc{32, 0};
    /** Word-read callback for RdMem (little-endian word at addr). */
    std::function<ApInt(const ApInt &addr)> readMem;
    /** Custom register contents by name (scalars have one element). */
    std::map<std::string, std::vector<ApInt>> custRegs;
};

/** One predicated scalar result. */
struct InterpWrite
{
    bool enabled = false;
    ApInt value{32, 0};
};

/** Predicated memory word store. */
struct InterpMemWrite
{
    bool enabled = false;
    ApInt addr{32, 0};
    ApInt value{32, 0};
};

/** Predicated custom register write. */
struct InterpCustWrite
{
    bool enabled = false;
    ApInt index{1, 0};
    ApInt value{32, 0};
};

/** Architectural effects of one execution. */
struct InterpResult
{
    InterpWrite rd;
    InterpWrite pcWrite;
    InterpMemWrite mem;
    std::map<std::string, InterpCustWrite> custWrites;
    /** Whether RdMem was exercised (and predicated on). */
    bool memReadUsed = false;
    ApInt memReadAddr{32, 0};
};

/**
 * Execute a LIL graph on the given inputs.
 * Interface reads pull from @p input; interface writes are collected in
 * the result. The execution is untimed (spawn marks are ignored).
 */
InterpResult interpret(const LilGraph &graph, const InterpInput &input);

// Co-simulation against interpret(): translation validation compares
// it with the netlist, the -O1 pass checker across a pass.

/** Deterministic memory contents: a pure hash of the address. */
ApInt hashMemWord(const ApInt &addr);

/**
 * Inputs of co-simulation trial @p trial: all zeros for trial 0, all
 * ones for trial 1, then draws from @p rng (custom-register words high
 * half first). The instruction word keeps @p graph's encoding bits;
 * custom registers of @p isa (none when null) are filled too.
 */
InterpInput cosimInput(const LilGraph &graph,
                       const coredsl::ElaboratedIsa *isa, unsigned trial,
                       std::mt19937 &rng);

/** "instr_word=0x.. rs1=0x.. rs2=0x.. pc=0x..". */
std::string describeInput(const InterpInput &input);

/**
 * First difference between the effects @p want and @p got, e.g.
 * "WrRD: golden=0x1 rtl=0x2" with @p want_label "golden" and
 * @p got_label "rtl"; empty when they agree.
 */
std::string diffEffects(const InterpResult &want, const InterpResult &got,
                        const std::string &want_label,
                        const std::string &got_label);

} // namespace lil
} // namespace longnail

#endif // LONGNAIL_LIL_INTERP_HH
