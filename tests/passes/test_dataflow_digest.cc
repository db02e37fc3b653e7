/**
 * @file
 * Pins the dataflow results of the whole catalog: the range and
 * demanded-bits states (plus the effect summaries) that
 * passes::writeAnalysisDump renders for every ISAX, once as lowered
 * (-O0) and once after the -O1 pipeline. A digest of each dump is
 * compared with a pinned value, so a change in the dataflow engine's
 * fixpoint or drain order fails here instead of surfacing only as
 * different rewrites or hardware.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "driver/isax_catalog.hh"
#include "driver/longnail.hh"
#include "passes/passes.hh"

using namespace longnail;

namespace {

/** FNV-1a over the bytes of @p text. */
uint64_t
fnv1a(const std::string &text)
{
    uint64_t hash = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

struct Digests
{
    uint64_t o0 = 0;
    uint64_t o1 = 0;
};

/**
 * Lower @p isax (lint-only compile: no passes, no scheduling) and
 * digest the analysis dump, then run the -O1 pipeline over the same
 * module and digest the dump again.
 */
Digests
catalogDataflowDigests(const catalog::IsaxEntry &entry)
{
    driver::CompileOptions options;
    options.lintOnly = true;
    driver::CompiledIsax compiled =
        driver::compile(entry.source, entry.target, options);
    EXPECT_TRUE(compiled.ok()) << entry.name << ": " << compiled.errors;
    if (!compiled.ok() || !compiled.lilModule)
        return {};

    Digests digests;
    std::ostringstream o0;
    passes::writeAnalysisDump(*compiled.lilModule, o0);
    digests.o0 = fnv1a(o0.str());

    DiagnosticEngine diags;
    passes::PipelineResult result =
        passes::runPipeline(*compiled.lilModule, {}, diags);
    EXPECT_FALSE(result.refuted) << entry.name;
    std::ostringstream o1;
    passes::writeAnalysisDump(*compiled.lilModule, o1);
    digests.o1 = fnv1a(o1.str());
    return digests;
}

struct PinnedDigest
{
    const char *isax;
    uint64_t o0;
    uint64_t o1;
};

// Generated from the map/set-based dataflow engine that preceded the
// dense one; both must reach the same states on every value.
const PinnedDigest pinned[] = {
    {"autoinc", 0xa7fac3ae620a160cull, 0xf3c65ba5eca0ee68ull},
    {"dotp", 0x4a16d65e2848c694ull, 0xda2bb126e276a874ull},
    {"ijmp", 0x5b0caac02431ba2full, 0xa9d649e5bcd6c8adull},
    {"sbox", 0x329cba47f5278a5dull, 0x329cba47f5278a5dull},
    {"sparkle", 0xc87eb8684b81611aull, 0x17e4c888d7b66702ull},
    {"sqrt_tightly", 0xb4b86c0e747808c9ull, 0x5e5df87a75e1be02ull},
    {"sqrt_decoupled", 0xc70b834e0a77f2dfull, 0x5c4d4f298444cdb3ull},
    {"zol", 0x23fd8a8f6bf35e13ull, 0xa19b054d7f51287dull},
    {"autoinc_zol", 0x40f0c960ce7e81bdull, 0x41223217bd9281bfull},
    {"bitmanip", 0x6974163b5c6759bdull, 0xa0aa3679f8b80d57ull},
    {"ringbuf", 0xed9f9ae96167086full, 0x63dc0cad4ff3d5e2ull},
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

TEST(DataflowDigest, CatalogAnalysisDumpsArePinned)
{
    ASSERT_EQ(std::size(pinned), catalog::allIsaxes().size());
    for (const PinnedDigest &p : pinned) {
        const catalog::IsaxEntry *entry = catalog::findIsax(p.isax);
        ASSERT_NE(entry, nullptr) << p.isax;
        Digests d = catalogDataflowDigests(*entry);
        EXPECT_EQ(hex(d.o0), hex(p.o0)) << p.isax << " at -O0";
        EXPECT_EQ(hex(d.o1), hex(p.o1)) << p.isax << " after -O1";
    }
}
