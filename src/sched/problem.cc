#include "sched/problem.hh"

#include <algorithm>
#include <queue>
#include <sstream>

#include "support/logging.hh"

namespace longnail {
namespace sched {

unsigned
Problem::addOperatorType(OperatorType type)
{
    operatorTypes_.push_back(std::move(type));
    return operatorTypes_.size() - 1;
}

unsigned
Problem::addOperation(Operation op)
{
    operations_.push_back(std::move(op));
    return operations_.size() - 1;
}

void
Problem::addDependence(unsigned from, unsigned to)
{
    if (from >= operations_.size() || to >= operations_.size())
        LN_PANIC("dependence endpoint out of range");
    dependences_.push_back({from, to});
}

std::string
Problem::checkInput() const
{
    for (const auto &op : operations_) {
        if (op.linkedOperatorType >= operatorTypes_.size())
            return "operation '" + op.name +
                   "' has an invalid linked operator type";
    }
    // Acyclicity via Kahn's algorithm.
    std::vector<unsigned> indegree(operations_.size(), 0);
    for (const auto &dep : dependences_)
        ++indegree[dep.to];
    std::queue<unsigned> ready;
    for (unsigned i = 0; i < operations_.size(); ++i)
        if (indegree[i] == 0)
            ready.push(i);
    size_t visited = 0;
    std::vector<std::vector<unsigned>> succs(operations_.size());
    for (const auto &dep : dependences_)
        succs[dep.from].push_back(dep.to);
    while (!ready.empty()) {
        unsigned i = ready.front();
        ready.pop();
        ++visited;
        for (unsigned s : succs[i])
            if (--indegree[s] == 0)
                ready.push(s);
    }
    if (visited != operations_.size())
        return "dependence graph contains a cycle";
    return "";
}

Violation
Problem::findViolation() const
{
    for (const auto &op : operations_) {
        if (!op.startTime)
            return {Violation::Kind::Unscheduled,
                    "operation '" + op.name + "' is unscheduled"};
        if (*op.startTime < 0)
            return {Violation::Kind::Unscheduled,
                    "operation '" + op.name +
                        "' has a negative start time"};
    }
    for (const auto &dep : dependences_) {
        const Operation &from = operations_[dep.from];
        const Operation &to = operations_[dep.to];
        int finish = *from.startTime +
                     int(operatorTypeOf(from).latency);
        if (finish > *to.startTime) {
            std::ostringstream os;
            os << "precedence violated: '" << from.name << "' finishes "
               << "at " << finish << " but '" << to.name
               << "' starts at " << *to.startTime;
            return {Violation::Kind::Precedence, os.str()};
        }
    }
    return {};
}

double
Problem::objectiveValue() const
{
    double obj = 0.0;
    for (const auto &op : operations_)
        obj += op.startTime.value_or(0);
    for (const auto &dep : dependences_) {
        int lifetime = operations_[dep.to].startTime.value_or(0) -
                       operations_[dep.from].startTime.value_or(0);
        obj += lifetime;
    }
    return obj;
}

int
Problem::makespan() const
{
    int span = 0;
    for (const auto &op : operations_)
        span = std::max(span, op.startTime.value_or(0) +
                                  int(operatorTypeOf(op).latency));
    return span;
}

void
ChainingProblem::addChainBreaker(unsigned from, unsigned to)
{
    if (from >= operations_.size() || to >= operations_.size())
        LN_PANIC("chain breaker endpoint out of range");
    chainBreakers_.push_back({from, to});
}

void
ChainingProblem::computeStartTimesInCycle()
{
    // Propagate physical delays along dependences in topological order;
    // the operation list is required to be topologically sorted by
    // construction (def-before-use in the source graph).
    for (auto &op : operations_)
        op.startTimeInCycle = operatorTypeOf(op).incomingDelay;
    for (const auto &dep : dependences_) {
        Operation &from = operations_[dep.from];
        Operation &to = operations_[dep.to];
        const OperatorType &from_type = operatorTypeOf(from);
        if (!from.startTime || !to.startTime)
            continue;
        double ready = 0.0;
        if (from_type.latency == 0 && *from.startTime == *to.startTime) {
            ready = *from.startTimeInCycle + from_type.outgoingDelay;
        } else if (from_type.latency > 0 &&
                   *from.startTime + int(from_type.latency) ==
                       *to.startTime) {
            ready = from_type.outgoingDelay;
        } else {
            continue; // registered in an earlier cycle
        }
        to.startTimeInCycle =
            std::max(to.startTimeInCycle.value_or(0.0), ready);
    }
}

Violation
ChainingProblem::findViolation() const
{
    Violation base = Problem::findViolation();
    if (base)
        return base;
    for (const auto &dep : chainBreakers_) {
        const Operation &from = operations_[dep.from];
        const Operation &to = operations_[dep.to];
        int min_start = *from.startTime +
                        int(operatorTypeOf(from).latency) + 1;
        if (min_start > *to.startTime)
            return {Violation::Kind::ChainBreaker,
                    "chain breaker violated between '" + from.name +
                        "' and '" + to.name + "'"};
    }
    if (cycleTime_ <= 0.0)
        return {};
    // Table 2, ChainingProblem row.
    for (const auto &dep : dependences_) {
        const Operation &from = operations_[dep.from];
        const Operation &to = operations_[dep.to];
        const OperatorType &from_type = operatorTypeOf(from);
        if (!from.startTimeInCycle || !to.startTimeInCycle)
            return {Violation::Kind::Unscheduled,
                    "startTimeInCycle missing"};
        if (from_type.latency == 0 && *from.startTime == *to.startTime &&
            *from.startTimeInCycle + from_type.outgoingDelay >
                *to.startTimeInCycle + 1e-9)
            return {Violation::Kind::Chaining,
                    "chaining violated between '" + from.name +
                        "' and '" + to.name + "'"};
        if (from_type.latency > 0 &&
            *from.startTime + int(from_type.latency) == *to.startTime &&
            from_type.outgoingDelay > *to.startTimeInCycle + 1e-9)
            return {Violation::Kind::Chaining,
                    "chaining violated after multi-cycle '" + from.name +
                        "'"};
    }
    for (const auto &op : operations_) {
        const OperatorType &type = operatorTypeOf(op);
        if (op.startTimeInCycle &&
            *op.startTimeInCycle + type.outgoingDelay >
                cycleTime_ + 1e-9)
            return {Violation::Kind::CycleTime,
                    "operation '" + op.name + "' exceeds the cycle time"};
    }
    return {};
}

std::string
LongnailProblem::checkInput() const
{
    std::string base = ChainingProblem::checkInput();
    if (!base.empty())
        return base;
    for (const auto &type : operatorTypes_) {
        if (type.earliest < 0)
            return "operator type '" + type.name +
                   "' has a negative earliest time";
        if (type.latest < type.earliest)
            return "operator type '" + type.name +
                   "' has latest < earliest";
    }
    return "";
}

Violation
LongnailProblem::findViolation() const
{
    Violation base = ChainingProblem::findViolation();
    if (base)
        return base;
    // Table 2, LongnailProblem row.
    for (const auto &op : operations_) {
        const OperatorType &type = operatorTypeOf(op);
        if (*op.startTime < type.earliest ||
            *op.startTime > type.latest) {
            std::ostringstream os;
            os << "operation '" << op.name << "' scheduled at "
               << *op.startTime << " outside its interface window ["
               << type.earliest << ", ";
            if (type.latest == noUpperBound)
                os << "inf";
            else
                os << type.latest;
            os << "]";
            return {Violation::Kind::Window, os.str()};
        }
    }
    return {};
}

} // namespace sched
} // namespace longnail
