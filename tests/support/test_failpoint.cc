/**
 * @file
 * Tests for the deterministic fault-injection facility.
 */

#include <gtest/gtest.h>

#include "support/failpoint.hh"

namespace failpoint = longnail::failpoint;
using failpoint::Mode;

namespace {

class FailpointTest : public ::testing::Test
{
  protected:
    void SetUp() override { failpoint::reset(); }
    void TearDown() override { failpoint::reset(); }
};

TEST_F(FailpointTest, UnarmedSiteIsInert)
{
    EXPECT_EQ(failpoint::fire("parse"), Mode::Off);
    EXPECT_EQ(failpoint::fire("parse"), Mode::Off);
    EXPECT_EQ(failpoint::hitCount("parse"), 2u);
}

TEST_F(FailpointTest, FailModeFailsEveryTime)
{
    failpoint::arm("sema", Mode::Fail);
    EXPECT_EQ(failpoint::fire("sema"), Mode::Fail);
    EXPECT_EQ(failpoint::fire("sema"), Mode::Fail);
}

TEST_F(FailpointTest, TransientFailsFirstNThenPasses)
{
    failpoint::arm("sched", Mode::Transient, 2);
    EXPECT_EQ(failpoint::fire("sched"), Mode::Transient);
    EXPECT_EQ(failpoint::fire("sched"), Mode::Transient);
    EXPECT_EQ(failpoint::fire("sched"), Mode::Off);
}

TEST_F(FailpointTest, DisarmMakesSiteInert)
{
    failpoint::arm("hwgen", Mode::Fail);
    EXPECT_EQ(failpoint::fire("hwgen"), Mode::Fail);
    failpoint::disarm("hwgen");
    EXPECT_EQ(failpoint::fire("hwgen"), Mode::Off);
}

TEST_F(FailpointTest, ScopedDisarmsOnExit)
{
    {
        failpoint::Scoped scoped("lil", Mode::Fail);
        EXPECT_EQ(failpoint::fire("lil"), Mode::Fail);
    }
    EXPECT_EQ(failpoint::fire("lil"), Mode::Off);
}

TEST_F(FailpointTest, ArmFromSpecParsesModes)
{
    EXPECT_EQ(failpoint::armFromSpec("sema=fail"), "");
    EXPECT_EQ(failpoint::fire("sema"), Mode::Fail);

    EXPECT_EQ(failpoint::armFromSpec("sched=transient:3"), "");
    EXPECT_EQ(failpoint::fire("sched"), Mode::Transient);

    EXPECT_EQ(failpoint::armFromSpec("sema=off"), "");
    EXPECT_EQ(failpoint::fire("sema"), Mode::Off);
}

TEST_F(FailpointTest, ArmFromSpecRejectsGarbage)
{
    EXPECT_NE(failpoint::armFromSpec("no-equals-sign"), "");
    EXPECT_NE(failpoint::armFromSpec("x=bogus-mode"), "");
    EXPECT_NE(failpoint::armFromSpec("x=transient:notanumber"), "");
    EXPECT_NE(failpoint::armFromSpec("=fail"), "");
}

TEST_F(FailpointTest, ArmFromEnvParsesMultipleSpecs)
{
    ::setenv("LN_TEST_FAILPOINTS", "parse=fail;sched=transient:1", 1);
    EXPECT_EQ(failpoint::armFromEnv("LN_TEST_FAILPOINTS"), "");
    EXPECT_EQ(failpoint::fire("parse"), Mode::Fail);
    EXPECT_EQ(failpoint::fire("sched"), Mode::Transient);
    ::unsetenv("LN_TEST_FAILPOINTS");
}

TEST_F(FailpointTest, ArmFromEnvUnsetIsNotAnError)
{
    ::unsetenv("LN_TEST_FAILPOINTS");
    EXPECT_EQ(failpoint::armFromEnv("LN_TEST_FAILPOINTS"), "");
    EXPECT_TRUE(failpoint::armedNames().empty());
}

TEST_F(FailpointTest, ArmedNamesListsArmedSitesOnly)
{
    failpoint::arm("a", Mode::Fail);
    failpoint::arm("b", Mode::Transient, 1);
    failpoint::arm("c", Mode::Off);
    auto names = failpoint::armedNames();
    EXPECT_NE(std::find(names.begin(), names.end(), "a"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "b"), names.end());
    EXPECT_EQ(std::find(names.begin(), names.end(), "c"), names.end());
}

TEST_F(FailpointTest, ResetClearsEverything)
{
    failpoint::arm("a", Mode::Transient, 5);
    failpoint::fire("a");
    failpoint::reset();
    EXPECT_EQ(failpoint::hitCount("a"), 0u);
    EXPECT_EQ(failpoint::fire("a"), Mode::Off);
}

} // namespace
