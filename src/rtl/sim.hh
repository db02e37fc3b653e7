/**
 * @file
 * Cycle-accurate simulator for netlist Modules. This is the "RTL
 * simulation" half of the paper's verification story (Sec. 5.3): the
 * generated ISAX modules execute here, in lock-step with the cycle-
 * level host-core models.
 *
 * Two engines implement the same API (docs/simulation.md):
 *  - SimEngine::Compiled (what Simulator(module) builds): the module
 *    is lowered once into a bytecode program run by a threaded-code
 *    loop (simjit.hh).
 *  - SimEngine::Interp: the original node-by-node ApInt interpreter,
 *    retained as the differential oracle for the compiled engine.
 *
 * Net values are defined after evalComb(); the engines are
 * bit-identical there for every net (tests/rtl/test_sim_diff.cc).
 * reset() returns either engine to its freshly constructed state, so
 * one Simulator can serve any number of executions of its module.
 */

#ifndef LONGNAIL_RTL_SIM_HH
#define LONGNAIL_RTL_SIM_HH

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "rtl/netlist.hh"
#include "rtl/simjit.hh"
#include "support/apint.hh"

namespace longnail {
namespace rtl {

enum class SimEngine
{
    Interp,   ///< node-by-node ApInt interpretation (the oracle)
    Compiled, ///< bytecode + threaded-code dispatch (simjit.hh)
};

/** "interp" / "compiled". */
const char *simEngineName(SimEngine engine);

class Simulator
{
  public:
    /** The compiled engine. */
    explicit Simulator(const Module &module);
    Simulator(const Module &module, SimEngine engine);
    /** Compiled engine sharing an already-compiled program (the core
     * models compile each ISAX module once and share it among that
     * module's simulators). The program must be for @p module. */
    Simulator(const Module &module,
              std::shared_ptr<const simjit::Program> program);
    /** Flushes this instance's clock edges (`sim.cycles`) and, on the
     * compiled engine, its executed instructions (`sim.ops`) to the obs
     * registry. */
    ~Simulator();

    SimEngine engine() const
    {
        return machine_ ? SimEngine::Compiled : SimEngine::Interp;
    }

    /** Back to the freshly constructed state: every register to its
     * initial value, every input to 0. Other nets are undefined until
     * the next evalComb(). */
    void reset();

    void setInput(const std::string &name, const ApInt &value);
    void setInput(const std::string &name, uint64_t value);
    void setInput(NetId net, const ApInt &value);
    void setInput(NetId net, uint64_t value);

    /**
     * Evaluate all combinational logic with the current inputs and
     * register states. Safe to call repeatedly within a cycle. The
     * compiled engine is activity-driven: it runs only the logic
     * downstream of the inputs and registers that changed since the
     * last call, and nothing when none did (docs/simulation.md).
     */
    void evalComb();

    /** Capture register inputs (call after evalComb). A register's net
     * shows the captured value from the next evalComb() on. */
    void clockEdge();

    /** evalComb + clockEdge. */
    void
    tick()
    {
        evalComb();
        clockEdge();
    }

    const ApInt &net(NetId id) const;
    /** Low 64 bits of a net (the full value for nets <= 64 bits wide);
     * avoids materializing an ApInt on the compiled engine. */
    uint64_t netU64(NetId id) const;
    const ApInt &output(const std::string &name) const;
    uint64_t outputU64(const std::string &name) const;

    const Module &module() const { return module_; }

  private:
    void evalCombInterp();
    NetId inputNet(const std::string &name) const;
    NetId outputNet(const std::string &name) const;

    const Module &module_;
    // Port-name lookup, built once (findInput/findOutput scan).
    std::unordered_map<std::string, NetId> inputIndex_;
    std::unordered_map<std::string, NetId> outputIndex_;
    // Interpreter engine state (empty when compiled).
    std::vector<ApInt> values_;    ///< current net values
    std::vector<ApInt> regState_;  ///< per register node, stored value
    std::vector<size_t> regNodes_; ///< indices of register nodes
    // Compiled engine state (null when interpreting).
    std::unique_ptr<simjit::Machine> machine_;
    uint64_t cycles_ = 0; ///< clock edges simulated by this instance
};

} // namespace rtl
} // namespace longnail

#endif // LONGNAIL_RTL_SIM_HH
