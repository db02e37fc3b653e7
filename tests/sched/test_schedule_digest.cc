/**
 * @file
 * Pins the optimal schedules of the whole catalog: every ISAX on every
 * built-in core at -O0 and -O1. A digest over each graph's start times
 * and makespan is compared with a pinned value, so a tie-break change
 * in the scheduler or its LP solver fails here instead of surfacing
 * only as shifted hardware metrics.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "driver/isax_catalog.hh"
#include "driver/longnail.hh"
#include "scaiev/datasheet.hh"
#include "sched/scheduler.hh"

using namespace longnail;

namespace {

/** FNV-1a over little-endian 64-bit words. */
class Digest
{
  public:
    void
    add(int64_t value)
    {
        for (int byte = 0; byte < 8; ++byte) {
            hash_ ^= (uint64_t(value) >> (8 * byte)) & 0xff;
            hash_ *= 0x100000001b3ull;
        }
    }
    uint64_t value() const { return hash_; }

  private:
    uint64_t hash_ = 0xcbf29ce484222325ull;
};

/**
 * Compile @p isax for every built-in core at @p opt_level and digest
 * the schedules: per graph, the optimal scheduler's start times and
 * makespan (re-solved on the compiled LIL, exactly as the driver
 * does), then the driver's makespan after zero-delay sinking.
 */
uint64_t
catalogScheduleDigest(const std::string &isax, unsigned opt_level)
{
    Digest digest;
    for (const std::string &core : scaiev::Datasheet::knownCores()) {
        driver::CompileOptions options;
        options.coreName = core;
        options.optLevel = opt_level;
        driver::CompiledIsax compiled =
            driver::compileCatalogIsax(isax, options);
        EXPECT_TRUE(compiled.ok()) << isax << " on " << core << ": "
                                   << compiled.errors;
        if (!compiled.ok())
            continue;
        sched::TechLibrary tech(options.timingMode);
        const scaiev::Datasheet &sheet = scaiev::Datasheet::forCore(core);
        for (const auto &graph : compiled.lilModule->graphs) {
            sched::BuiltProblem built =
                sched::buildProblem(*graph, sheet, tech);
            sched::computeChainBreakers(built.problem);
            sched::ScheduleOutcome outcome =
                sched::scheduleWithFallback(built.problem, {});
            EXPECT_EQ(outcome.quality, sched::ScheduleQuality::Optimal)
                << isax << "/" << graph->name << " on " << core;
            for (unsigned i = 0; i < built.problem.numOperations(); ++i)
                digest.add(*built.problem.operation(i).startTime);
            digest.add(built.problem.makespan());
            const driver::CompiledUnit *unit =
                compiled.findUnit(graph->name);
            EXPECT_NE(unit, nullptr) << isax << "/" << graph->name;
            digest.add(unit ? unit->makespan : -1);
        }
    }
    return digest.value();
}

struct PinnedDigest
{
    const char *isax;
    uint64_t o0;
    uint64_t o1;
};

// Generated from the successive-shortest-paths solver that preceded the
// primal-dual one and the network simplex; all must agree on every
// schedule.
const PinnedDigest pinned[] = {
    {"autoinc", 0xae94201ae27725c5ull, 0xe23d050f6074df23ull},
    {"dotp", 0x31dd5a170b3ec405ull, 0x83166bb5d65b4467ull},
    {"ijmp", 0xe823c2f3d1218367ull, 0x01c4d596933426a1ull},
    {"sbox", 0x3ab30521c76ef8a7ull, 0x3ab30521c76ef8a7ull},
    {"sparkle", 0x52fea654f23e0042ull, 0xa8a4d5a7c449eb84ull},
    {"sqrt_tightly", 0xd8ebb630a84172adull, 0x9329493dcf58ef80ull},
    {"sqrt_decoupled", 0xd8ebb630a84172adull, 0x9329493dcf58ef80ull},
    {"zol", 0x4461b21cf7254c25ull, 0x5c25fbd81f468c07ull},
    {"autoinc_zol", 0x84284faf13427b65ull, 0xf0f1eea15727eda1ull},
    {"bitmanip", 0x8734796722ba2d43ull, 0xbfd8725e102c0689ull},
    {"ringbuf", 0xdb70af90c3e9e187ull, 0x00813b592a4e0165ull},
};

std::string
hex(uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llxull",
                  static_cast<unsigned long long>(value));
    return buf;
}

} // namespace

TEST(ScheduleDigest, CatalogSchedulesArePinned)
{
    ASSERT_EQ(std::size(pinned), catalog::allIsaxes().size());
    for (const PinnedDigest &p : pinned) {
        ASSERT_NE(catalog::findIsax(p.isax), nullptr) << p.isax;
        uint64_t o0 = catalogScheduleDigest(p.isax, 0);
        uint64_t o1 = catalogScheduleDigest(p.isax, 1);
        EXPECT_EQ(hex(o0), hex(p.o0)) << p.isax << " at -O0";
        EXPECT_EQ(hex(o1), hex(p.o1)) << p.isax << " at -O1";
    }
}
