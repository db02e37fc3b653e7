/**
 * @file
 * Timing/area characterization of operations for scheduling and the
 * ASIC flow model.
 *
 * The paper's Longnail "currently assume[s] uniform delays and area for
 * logic and non-combinational sub-interface operations" (Sec. 4.2) and
 * names a real technology library as future work. We provide both:
 *
 *  - TimingMode::Uniform reproduces the paper's behavior (and thus the
 *    frequency regressions of Sec. 5.4, which stem from the scheduler
 *    underestimating late-stage logic);
 *  - TimingMode::Library uses 22nm-class per-operation delays, the
 *    "better-informed scheduler" the paper plans (ablation bench).
 *
 * combDelayNs() and combAreaUm2() are the 22nm-class cost of each comb
 * operator; the library timing mode and the synthetic ASIC flow
 * (src/asic) both use them.
 */

#ifndef LONGNAIL_SCHED_TECHLIB_HH
#define LONGNAIL_SCHED_TECHLIB_HH

#include <cstddef>

#include "ir/comb.hh"
#include "ir/ir.hh"

namespace longnail {
namespace sched {

enum class TimingMode
{
    Uniform, ///< paper default: every logic level costs the same delay
    Library, ///< per-operation 22nm-class delays
};

/** Timing of one operation as seen by the scheduler. */
struct OpTiming
{
    double delayNs = 0.0; ///< combinational propagation delay
    unsigned latency = 0; ///< cycles until the result is available
};

/** What the cost of one comb operator depends on. */
struct CombShape
{
    ir::CombOp op = ir::CombOp::Constant;
    unsigned width = 1;          ///< result width
    unsigned lhsWidth = 1;       ///< width of operand 0
    unsigned rhsWidth = 1;       ///< width of operand 1
    size_t romEntries = 0;       ///< Rom table size
    bool constantAmount = false; ///< a shift by a constant (wiring)
};

/** 22nm-class propagation delay of one comb operator (ns). */
double combDelayNs(const CombShape &shape);
/** 22nm-class cell area of one comb operator (um^2). */
double combAreaUm2(const CombShape &shape);

class TechLibrary
{
  public:
    explicit TechLibrary(TimingMode mode = TimingMode::Uniform)
        : mode_(mode)
    {}

    TimingMode mode() const { return mode_; }

    /** Scheduler-visible timing of @p op. */
    OpTiming timing(const ir::Operation &op) const;

    /** Physical delay of @p op in TimingMode::Library. */
    double physicalDelayNs(const ir::Operation &op) const;

    /** Uniform logic delay used in TimingMode::Uniform. */
    double uniformDelayNs() const { return 0.15; }

  private:
    TimingMode mode_;
};

} // namespace sched
} // namespace longnail

#endif // LONGNAIL_SCHED_TECHLIB_HH
