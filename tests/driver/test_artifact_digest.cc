/**
 * @file
 * Pins the artifacts of the whole catalog: every ISAX on every built-in
 * core at -O0 and at -O1 --validate, plus every ISAX on VexRiscv under
 * the library timing model. A digest covers the emitted SystemVerilog
 * and SCAIE-V YAML, each unit's ASIC-model area and critical path, the
 * extended core's area and fmax (as exact double bit patterns) and the
 * deterministic PhaseReport tallies. A change to an operator's
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
    digest.add(uint64_t(r.lpWorkUnits));
}

struct PinnedDigest
{
    const char *isax;
    uint64_t o0;         ///< 4 cores at -O0
    uint64_t o1Validate; ///< 4 cores at -O1 --validate
    uint64_t library;    ///< VexRiscv, TimingMode::Library, -O0
};

// Generated at the commit before the comb operator table existed.
const PinnedDigest pinned[] = {
    {"autoinc", 0x830e7b5079579f13ull, 0x4a882b41fa8052b8ull,
     0x1644bce0eb1cd6bbull},
    {"dotp", 0x009d7291bd00dc09ull, 0xda477020d7784526ull,
     0x49350ef36c315452ull},
    {"ijmp", 0xe0b80298340c57d5ull, 0x4286750d6b1a14a7ull,
     0x298403dff96309f1ull},
    {"sbox", 0x37cab008a3720656ull, 0x9182bd4ae7b80f58ull,
     0xb6664e1165f18112ull},
    {"sparkle", 0xb4b76d6114fec09eull, 0x162caf35cfa1269dull,
     0xcd8db04386c45819ull},
    {"sqrt_tightly", 0x6efcf9ff3a47fdfcull, 0x90aa369ffb061be1ull,
     0x0d7ba7bcff7bdfb0ull},
    {"sqrt_decoupled", 0x266132d20b338ab7ull, 0x615c9d0775a6bc8full,
     0x0672cf9ca510dd6cull},
    {"zol", 0x63c91b49213df496ull, 0x864100a92059fdbdull,
     0x875490ce49b34258ull},
    {"autoinc_zol", 0x4ff9573a549ef8dfull, 0x8f80a92974715eb7ull,
     0x8869e38fea66a5e4ull},
    {"bitmanip", 0x00733da180a20744ull, 0xffe2e42b8fa4c31eull,
     0x316aaa588e53aefaull},
    {"ringbuf", 0x000181120fac5d08ull, 0x4966282dae1781dfull,
     0xf069378d9696f37bull},
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
