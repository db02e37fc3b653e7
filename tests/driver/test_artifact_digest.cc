/**
 * @file
 * Pins the artifacts of the whole catalog: every ISAX on every built-in
 * core at -O0 and at -O1 --validate, plus every ISAX on VexRiscv under
 * the library timing model. A digest covers the emitted SystemVerilog
 * and SCAIE-V YAML, each unit's ASIC-model area and critical path, the
 * extended core's area and fmax (as exact double bit patterns) and the
 * deterministic PhaseReport tallies apart from the LP work units (they
 * count the solver's effort, not the hardware). A change to an operator's
 * semantics, spelling or cost fails here instead of surfacing only as
 * shifted hardware metrics.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

#include "asic/flow.hh"
#include "driver/isax_catalog.hh"
#include "driver/longnail.hh"
#include "scaiev/datasheet.hh"

using namespace longnail;

namespace {

/** FNV-1a over bytes. */
class Digest
{
  public:
    void
    add(const void *data, size_t size)
    {
        const auto *bytes = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < size; ++i) {
            hash_ ^= bytes[i];
            hash_ *= 0x100000001b3ull;
        }
    }
    void add(const std::string &text) { add(text.data(), text.size()); }
    void
    add(uint64_t value)
    {
        for (int byte = 0; byte < 8; ++byte) {
            unsigned char b = (value >> (8 * byte)) & 0xff;
            add(&b, 1);
        }
    }
    void
    add(double value)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof bits);
        add(bits);
    }
    uint64_t value() const { return hash_; }

  private:
    uint64_t hash_ = 0xcbf29ce484222325ull;
};

/** Compile @p isax for @p core and fold its artifacts into @p digest. */
void
digestCompile(Digest &digest, const std::string &isax,
              const std::string &core, driver::CompileOptions options)
{
    options.coreName = core;
    driver::CompiledIsax compiled =
        driver::compileCatalogIsax(isax, options);
    ASSERT_TRUE(compiled.ok()) << isax << " on " << core << ": "
                               << compiled.errors;
    digest.add(compiled.emitAllVerilog());
    digest.add(compiled.config.emit());

    asic::AsicFlow flow(scaiev::Datasheet::forCore(core));
    std::vector<const hwgen::GeneratedModule *> modules;
    for (const auto &unit : compiled.units) {
        digest.add(flow.moduleAreaUm2(unit.module));
        digest.add(flow.moduleCriticalPathNs(unit.module));
        modules.push_back(&unit.module);
    }
    asic::SynthesisResult ext =
        flow.synthesizeExtended(isax + ":" + core, modules);
    digest.add(ext.areaUm2);
    digest.add(ext.fmaxMhz);

    const driver::PhaseReport &r = compiled.report;
    digest.add(uint64_t(r.passRewrites));
    digest.add(uint64_t(r.passProved));
    digest.add(uint64_t(r.passCosimAgreed));
    digest.add(uint64_t(r.tvProved));
    digest.add(uint64_t(r.tvCexCycles));
    digest.add(uint64_t(r.lilOpsOptimized));
}

struct PinnedDigest
{
    const char *isax;
    uint64_t o0;         ///< 4 cores at -O0
    uint64_t o1Validate; ///< 4 cores at -O1 --validate
    uint64_t library;    ///< VexRiscv, TimingMode::Library, -O0
};

// Generated by the primal-dual LP solver, before the network simplex
// replaced it: the digests pin the hardware and the report tallies,
// not the solver's effort (PhaseReport::lpWorkUnits is left out).
const PinnedDigest pinned[] = {
    {"autoinc", 0x84869737b8b314cbull, 0x26fc01c318ef2a69ull,
     0x7d6be4ff88edf338ull},
    {"dotp", 0x0773dfc2861432aeull, 0xdb904b2d2f5e4f50ull,
     0x7d621d0512194515ull},
    {"ijmp", 0xa12357ee8993e277ull, 0x019051f90e6edccbull,
     0xb56a524027c25000ull},
    {"sbox", 0x6caa361919c8c8a3ull, 0x5c29443f492daed5ull,
     0x694ced1ee21b087aull},
    {"sparkle", 0x8e441ca563c20b4cull, 0xf4bd10bba4acb6efull,
     0x9e315a4765a3c20aull},
    {"sqrt_tightly", 0xff108752d0a178f5ull, 0x36c21076c50d8034ull,
     0xb92e6218e52215a0ull},
    {"sqrt_decoupled", 0xb33e67f7fef2710eull, 0x689ca746a0381942ull,
     0x89eca7c76348dddcull},
    {"zol", 0xba6b90024fc859e5ull, 0x376e8e1c07833536ull,
     0x93c0c95c360766fcull},
    {"autoinc_zol", 0x9a49cd536b1e0fd6ull, 0x1bc01da7fc0ddaaeull,
     0xd4ba6ff9f7609322ull},
    {"bitmanip", 0xcca3b41fdff3b335ull, 0x149a5778bc7f71b7ull,
     0x6cbf4a3ab10e954aull},
    {"ringbuf", 0xf4a55fe3194276deull, 0xd9133e5799979228ull,
     0x7587c6683ca4387cull},
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

TEST(ArtifactDigest, CatalogArtifactsArePinned)
{
    ASSERT_EQ(std::size(pinned), catalog::allIsaxes().size());
    for (const PinnedDigest &p : pinned) {
        ASSERT_NE(catalog::findIsax(p.isax), nullptr) << p.isax;
        Digest o0, o1;
        for (const std::string &core : scaiev::Datasheet::knownCores()) {
            driver::CompileOptions options;
            digestCompile(o0, p.isax, core, options);
            options.optLevel = 1;
            options.validate = true;
            digestCompile(o1, p.isax, core, options);
        }
        EXPECT_EQ(hex(o0.value()), hex(p.o0)) << p.isax << " at -O0";
        EXPECT_EQ(hex(o1.value()), hex(p.o1Validate))
            << p.isax << " at -O1 --validate";
    }
}

TEST(ArtifactDigest, LibraryTimingArtifactsArePinned)
{
    for (const PinnedDigest &p : pinned) {
        Digest lib;
        driver::CompileOptions options;
        options.timingMode = sched::TimingMode::Library;
        digestCompile(lib, p.isax, "VexRiscv", options);
        EXPECT_EQ(hex(lib.value()), hex(p.library))
            << p.isax << " under --timing library";
    }
}
