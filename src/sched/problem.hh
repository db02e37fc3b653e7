/**
 * @file
 * CIRCT-style extensible scheduling problem model (Sec. 4.2, Table 2).
 *
 * The hierarchy mirrors CIRCT's static scheduling infrastructure:
 *
 *  - Problem: operations linked to operator types with latencies,
 *    dependences, and startTime as the solution property.
 *  - ChainingProblem: adds physical propagation delays
 *    (incomingDelay/outgoingDelay) and startTimeInCycle.
 *  - LongnailProblem: adds the earliest/latest stage windows taken from
 *    the SCAIE-V virtual datasheet.
 *
 * Problems are value types; schedulers fill in the solution properties
 * and verification methods check the solution constraints of Table 2.
 */

#ifndef LONGNAIL_SCHED_PROBLEM_HH
#define LONGNAIL_SCHED_PROBLEM_HH

#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace longnail {
namespace sched {

/** Sentinel for "no upper bound" (latest = infinity). */
constexpr int noUpperBound = std::numeric_limits<int>::max();

/** Characterization of the hardware executing operations. */
struct OperatorType
{
    std::string name;
    unsigned latency = 0;
    /** Physical delays for chaining, in nanoseconds. */
    double incomingDelay = 0.0;
    double outgoingDelay = 0.0;
    /** LongnailProblem properties (interface windows). */
    int earliest = 0;
    int latest = noUpperBound;
};

/** One operation to schedule. */
struct Operation
{
    std::string name;
    unsigned linkedOperatorType = 0;
    /** Solution: integer start time (cycle). */
    std::optional<int> startTime;
    /** ChainingProblem solution: offset within the cycle, ns. */
    std::optional<double> startTimeInCycle;
};

/** A dependence edge: @p to consumes a result of @p from. */
struct Dependence
{
    unsigned from = 0;
    unsigned to = 0;
};

/** The first broken solution constraint a verifier found. */
struct Violation
{
    enum class Kind
    {
        None,
        Unscheduled,  ///< a start time (or time in cycle) is missing
        Precedence,   ///< a dependence latency (Problem row)
        ChainBreaker, ///< a C5 chain breaker's one-step distance
        Chaining,     ///< same-cycle delay propagation (ChainingProblem)
        CycleTime,    ///< an operation's delay exceeds the cycle time
        Window,       ///< an interface window (LongnailProblem row)
    };

    Kind kind = Kind::None;
    std::string message;

    explicit operator bool() const { return kind != Kind::None; }
};

/**
 * Base problem: acyclic scheduling with operator latencies
 * (corresponds to circt::scheduling::Problem).
 */
class Problem
{
  public:
    virtual ~Problem() = default;

    unsigned addOperatorType(OperatorType type);
    unsigned addOperation(Operation op);
    void addDependence(unsigned from, unsigned to);

    size_t numOperations() const { return operations_.size(); }
    size_t numDependences() const { return dependences_.size(); }
    Operation &operation(unsigned i) { return operations_.at(i); }
    const Operation &operation(unsigned i) const
    {
        return operations_.at(i);
    }
    const OperatorType &operatorTypeOf(const Operation &op) const
    {
        return operatorTypes_.at(op.linkedOperatorType);
    }
    const OperatorType &operatorType(unsigned i) const
    {
        return operatorTypes_.at(i);
    }
    const std::vector<Dependence> &dependences() const
    {
        return dependences_;
    }

    /**
     * Input constraints: operator-type links valid, graph acyclic.
     * @return empty string when satisfiable, else a description.
     */
    virtual std::string checkInput() const;

    /**
     * Solution constraints (Table 2, Problem row): every operation
     * scheduled, and i.ST + i.LOT.latency <= j.ST per dependence.
     * @return the first violation, or a Kind::None one.
     */
    virtual Violation findViolation() const;

    /** findViolation()'s message: empty when the solution is valid. */
    std::string verify() const { return findViolation().message; }

    /** Objective value of Fig. 7: sum of start times and lifetimes. */
    double objectiveValue() const;

    /** Makespan: maximum of startTime + latency. */
    int makespan() const;

  protected:
    std::vector<OperatorType> operatorTypes_;
    std::vector<Operation> operations_;
    std::vector<Dependence> dependences_;
};

/**
 * Adds operator chaining (corresponds to
 * circt::scheduling::ChainingProblem): zero-latency operations placed
 * in the same cycle accumulate their propagation delays, which must
 * not exceed the target cycle time.
 */
class ChainingProblem : public Problem
{
  public:
    void setCycleTime(double ns) { cycleTime_ = ns; }
    double cycleTime() const { return cycleTime_; }

    /**
     * Chain-breaker edges (C5 of Fig. 7): endpoints must be at least
     * one time step apart.
     */
    void addChainBreaker(unsigned from, unsigned to);
    const std::vector<Dependence> &chainBreakers() const
    {
        return chainBreakers_;
    }

    /**
     * Compute startTimeInCycle for all operations from the integer
     * start times by propagating physical delays (the CIRCT utility).
     */
    void computeStartTimesInCycle();

    Violation findViolation() const override;

  protected:
    double cycleTime_ = 0.0; ///< 0 disables chaining checks
    std::vector<Dependence> chainBreakers_;
};

/**
 * The LongnailProblem (Table 2): adds the earliest/latest windows of
 * the SCAIE-V sub-interfaces.
 */
class LongnailProblem : public ChainingProblem
{
  public:
    std::string checkInput() const override;
    Violation findViolation() const override;
};

} // namespace sched
} // namespace longnail

#endif // LONGNAIL_SCHED_PROBLEM_HH
