/**
 * @file
 * Compound loop steps (`i OP= expr`) through the whole flow: every
 * compound operator as the step of an unrolled for-loop, compiled at
 * -O0 and at -O1 --validate and run on the core models, must write what
 * a hand-unrolled copy of the same loop writes.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cores/core.hh"
#include "driver/longnail.hh"
#include "rvasm/assembler.hh"
#include "scaiev/datasheet.hh"

using namespace longnail;

namespace {

/** One loop: its induction variable, header and the values it takes. */
struct StepCase
{
    const char *name;
    const char *type;   ///< the induction variable's CoreDSL type
    const char *header; ///< for (...) clauses over `i`
    std::vector<int64_t> values;
};

// The values are worked out by hand from the header, wrapping each step
// to the induction variable's type.
const std::vector<StepCase> &
stepCases()
{
    static const std::vector<StepCase> cases = {
        {"add", "unsigned<8>", "unsigned<8> i = 3; i < 40; i += 9",
         {3, 12, 21, 30, 39}},
        {"sub", "signed<8>", "signed<8> i = 20; i > -10; i -= 7",
         {20, 13, 6, -1, -8}},
        {"mul", "unsigned<16>", "unsigned<16> i = 1; i < 1000; i *= 3",
         {1, 3, 9, 27, 81, 243, 729}},
        {"div", "unsigned<8>", "unsigned<8> i = 128; i > 0; i /= 2",
         {128, 64, 32, 16, 8, 4, 2, 1}},
        {"rem", "unsigned<8>",
         "unsigned<8> i = 200; i > 2; i %= i / 2 + 1",
         {200, 99, 49, 24, 11, 5}},
        {"and", "unsigned<8>", "unsigned<8> i = 255; i != 0; i &= i - 1",
         {255, 254, 252, 248, 240, 224, 192, 128}},
        {"or", "unsigned<8>", "unsigned<8> i = 1; i < 255; i |= i << 1",
         {1, 3, 7, 15, 31, 63, 127}},
        {"xor", "unsigned<8>",
         "unsigned<8> i = 1; i < 128; i ^= (i << 1) | 1",
         {1, 2, 7, 8, 25, 42, 127}},
        {"shl", "unsigned<16>", "unsigned<16> i = 3; i != 0; i <<= 3",
         {3, 24, 192, 1536, 12288, 32768}},
        {"shr", "signed<8>",
         "signed<8> i = (signed<8>) -128; i != -1; i >>= 1",
         {-128, -64, -32, -16, -8, -4, -2}},
    };
    return cases;
}

/** The fold both instruction bodies compute over the loop's values. */
const char *foldStep = "acc = (acc << 4) ^ (unsigned<32>) i;";

std::string
encoding(unsigned index)
{
    return "encoding: 7'd" + std::to_string(index) +
           " :: rs2[4:0] :: rs1[4:0] :: 3'd0 :: rd[4:0] :: 7'b0001011;";
}

/** An ISAX with a loop and a hand-unrolled instruction per case. */
std::string
isaxSource()
{
    std::string src = "import \"RV32I.core_desc\"\n\n"
                      "InstructionSet X_STEPS extends RV32I {\n"
                      "    instructions {\n";
    unsigned index = 0;
    for (const StepCase &c : stepCases()) {
        src += std::string("        loop_") + c.name + " {\n            " +
               encoding(index++) +
               "\n            behavior: {\n"
               "                unsigned<32> acc = 0;\n"
               "                for (" + c.header + ") {\n"
               "                    " + foldStep + "\n"
               "                }\n"
               "                X[rd] = acc;\n"
               "            }\n        }\n";
        src += std::string("        unrolled_") + c.name +
               " {\n            " + encoding(index++) +
               "\n            behavior: {\n"
               "                unsigned<32> acc = 0;\n"
               "                " + c.type + " i = 0;\n";
        for (int64_t v : c.values)
            src += "                i = (" + std::string(c.type) + ") " +
                   std::to_string(v) + "; " + foldStep + "\n";
        src += "                X[rd] = acc;\n"
               "            }\n        }\n";
    }
    src += "    }\n}\n";
    return src;
}

/** The fold in C++: each value sign-extends to 32 bits. */
uint32_t
expectedFold(const StepCase &c)
{
    uint32_t acc = 0;
    for (int64_t v : c.values)
        acc = (acc << 4) ^ uint32_t(int32_t(v));
    return acc;
}

struct StepRun
{
    const char *core;
    bool optimized; ///< -O1 --validate, else -O0
};

void
PrintTo(const StepRun &run, std::ostream *os)
{
    *os << run.core << (run.optimized ? " -O1 --validate" : " -O0");
}

class CompoundLoopStep : public ::testing::TestWithParam<StepRun>
{
};

TEST_P(CompoundLoopStep, MatchesHandUnrolledLoop)
{
    driver::CompileOptions options;
    options.coreName = GetParam().core;
    options.optLevel = GetParam().optimized ? 1 : 0;
    options.validate = GetParam().optimized;
    driver::CompiledIsax compiled =
        driver::compile(isaxSource(), "", options);
    ASSERT_TRUE(compiled.ok()) << compiled.errors;

    rvasm::Assembler as;
    driver::registerIsaxMnemonics(as, *compiled.isa);
    // x10 + 2k gets loop k's result, x11 + 2k its unrolled copy's.
    std::string asm_text;
    for (size_t k = 0; k < stepCases().size(); ++k) {
        const char *name = stepCases()[k].name;
        asm_text += "loop_" + std::string(name) + " x" +
                    std::to_string(10 + 2 * k) + ", x0, x0\n";
        asm_text += "unrolled_" + std::string(name) + " x" +
                    std::to_string(11 + 2 * k) + ", x0, x0\n";
    }
    asm_text += "ecall\n";
    rvasm::Program program = as.assemble(asm_text, 0);
    ASSERT_TRUE(program.ok) << program.error;

    cores::Core core(scaiev::Datasheet::forCore(compiled.coreName), {});
    core.attachIsax(compiled.makeBundle());
    core.loadProgram(program.words, 0);
    ASSERT_TRUE(core.run().halted);
    driver::GoldenModel golden(compiled);
    golden.loadProgram(program.words, 0);
    golden.run();

    for (size_t k = 0; k < stepCases().size(); ++k) {
        const StepCase &c = stepCases()[k];
        unsigned loop_reg = 10 + 2 * k, unrolled_reg = 11 + 2 * k;
        EXPECT_EQ(core.reg(loop_reg), core.reg(unrolled_reg)) << c.name;
        EXPECT_EQ(core.reg(loop_reg), expectedFold(c)) << c.name;
        EXPECT_EQ(golden.reg(loop_reg), expectedFold(c)) << c.name;
    }
}

std::vector<StepRun>
stepRuns()
{
    std::vector<StepRun> out;
    for (const char *core : {"ORCA", "Piccolo", "PicoRV32", "VexRiscv"})
        for (bool optimized : {false, true})
            out.push_back({core, optimized});
    return out;
}

INSTANTIATE_TEST_SUITE_P(
    Cores, CompoundLoopStep, ::testing::ValuesIn(stepRuns()),
    [](const ::testing::TestParamInfo<StepRun> &info) {
        return std::string(info.param.core) +
               (info.param.optimized ? "_O1_validate" : "_O0");
    });

} // namespace
