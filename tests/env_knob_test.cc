/**
 * @file
 * Rejection tests for the shared strict env-knob parse
 * (util/env_knob.hh) and the serve flags built on it.  Each
 * malformed value must warn and fall back to the documented default
 * — never be silently coerced the way the old atoi/strtol readers
 * coerced "2x" to 2 or wrapped "-1" to a huge unsigned.
 *
 * LVA_CLIENT_BUSY_RETRIES is exercised with the range lva_client
 * passes; the other cases use the test-local names LVA_FIX_U and
 * LVA_FIX_F, which no binary reads.
 */

#include <cstdlib>

#include <gtest/gtest.h>

#include "eval/service.hh"
#include "util/env_knob.hh"

namespace {

using lva::envKnobF64;
using lva::envKnobU64;

/** setenv-for-the-test-body helper; unsets on destruction. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        ::setenv(name, value, 1);
    }
    ~ScopedEnv() { ::unsetenv(name_); }

  private:
    const char *name_;
};

TEST(EnvKnobU64, UnsetAndEmptyReturnFallbackSilently)
{
    ::unsetenv("LVA_FIX_U");
    EXPECT_EQ(envKnobU64("LVA_FIX_U", 4, 1, 64), 4u);
    ScopedEnv env("LVA_FIX_U", "");
    EXPECT_EQ(envKnobU64("LVA_FIX_U", 4, 1, 64), 4u);
}

TEST(EnvKnobU64, PureDecimalInRangeIsAccepted)
{
    ScopedEnv env("LVA_FIX_U", "8");
    EXPECT_EQ(envKnobU64("LVA_FIX_U", 4, 1, 64), 8u);
}

TEST(EnvKnobU64, TrailingJunkIsRejectedNotTruncated)
{
    // The pre-PR-8 reader turned "2x" into 2.
    ScopedEnv env("LVA_FIX_U", "2x");
    EXPECT_EQ(envKnobU64("LVA_FIX_U", 4, 1, 64), 4u);
}

TEST(EnvKnobU64, SignsAreRejectedNotWrapped)
{
    // strtoull would wrap "-1" to 2^64-1; the knob must not.
    {
        ScopedEnv env("LVA_CLIENT_BUSY_RETRIES", "-1");
        EXPECT_EQ(envKnobU64("LVA_CLIENT_BUSY_RETRIES", 5, 0, 1000),
                  5u);
    }
    {
        ScopedEnv env("LVA_CLIENT_BUSY_RETRIES", "+3");
        EXPECT_EQ(envKnobU64("LVA_CLIENT_BUSY_RETRIES", 5, 0, 1000),
                  5u);
    }
}

TEST(EnvKnobU64, HexWhitespaceAndWordsAreRejected)
{
    {
        ScopedEnv env("LVA_FIX_U", "0x10");
        EXPECT_EQ(envKnobU64("LVA_FIX_U", 0, 0, 1000000), 0u);
    }
    {
        ScopedEnv env("LVA_FIX_U", " 7");
        EXPECT_EQ(envKnobU64("LVA_FIX_U", 0, 0, 1000000), 0u);
    }
    {
        ScopedEnv env("LVA_FIX_U", "unbounded");
        EXPECT_EQ(envKnobU64("LVA_FIX_U", 0, 0, 1000000), 0u);
    }
}

TEST(EnvKnobU64, OutOfRangeFallsBackInsteadOfClamping)
{
    {
        ScopedEnv env("LVA_FIX_U", "65");
        EXPECT_EQ(envKnobU64("LVA_FIX_U", 4, 1, 64), 4u);
    }
    {
        ScopedEnv env("LVA_FIX_U", "0");
        EXPECT_EQ(envKnobU64("LVA_FIX_U", 4, 1, 64), 4u);
    }
    {
        // Past 2^64: strtoull saturates with ERANGE; still rejected.
        ScopedEnv env("LVA_FIX_U", "99999999999999999999999");
        EXPECT_EQ(envKnobU64("LVA_FIX_U", 4, 1, 64), 4u);
    }
}

TEST(EnvKnobF64, StrictFloatParseAndRange)
{
    {
        ScopedEnv env("LVA_FIX_F", "0.25");
        EXPECT_DOUBLE_EQ(envKnobF64("LVA_FIX_F", 1.0, 0.0, 2.0),
                         0.25);
    }
    {
        ScopedEnv env("LVA_FIX_F", "0.25x");
        EXPECT_DOUBLE_EQ(envKnobF64("LVA_FIX_F", 1.0, 0.0, 2.0), 1.0);
    }
    {
        ScopedEnv env("LVA_FIX_F", "nan");
        EXPECT_DOUBLE_EQ(envKnobF64("LVA_FIX_F", 1.0, 0.0, 2.0), 1.0);
    }
    {
        ScopedEnv env("LVA_FIX_F", "3.5");
        EXPECT_DOUBLE_EQ(envKnobF64("LVA_FIX_F", 1.0, 0.0, 2.0), 1.0);
    }
}

TEST(FlagU64, ParsesLikeTheKnobButABadOperandExitsTwo)
{
    EXPECT_EQ(lva::flagU64("--retries", "99", 0, 99), 99u);
    EXPECT_EQ(lva::flagU64("--seed", "18446744073709551615", 0,
                           ~0ull),
              ~0ull);
    for (const char *bad : {"-1", "100", "4294967295", "1x", " 1", "",
                            "0x10", "18446744073709551616"})
        EXPECT_EXIT(lva::flagU64("--retries", bad, 0, 99),
                    ::testing::ExitedWithCode(2), "bad value")
            << bad;
}

TEST(FlagF64, FiniteInRangeOnly)
{
    EXPECT_DOUBLE_EQ(lva::flagF64("--scale", "0.05", 1e-6, 4.0), 0.05);
    for (const char *bad : {"0", "5", "nan", "inf", "0.2x", "abc"})
        EXPECT_EXIT(lva::flagF64("--scale", bad, 1e-6, 4.0),
                    ::testing::ExitedWithCode(2), "bad value")
            << bad;
}

TEST(ServeFlags, NumericFlagsUseTheirKnobRanges)
{
    lva::ServeFlags flags;
    // The documented defaults, which no environment changes.
    EXPECT_EQ(flags.serve.queueCap, 16u);
    EXPECT_EQ(flags.serve.cacheCap, 0u); // unbounded
    EXPECT_TRUE(lva::applyServeFlag("--workers", "4", flags));
    EXPECT_TRUE(lva::applyServeFlag("--retries", "2", flags));
    EXPECT_TRUE(lva::applyServeFlag("--seeds", "3", flags));
    EXPECT_EQ(flags.serve.workers, 4u);
    EXPECT_EQ(flags.serve.maxAttempts, 3u);
    EXPECT_EQ(flags.seeds, 3u);
    EXPECT_FALSE(lva::applyServeFlag("--fleet", "2", flags));
    EXPECT_EXIT(lva::applyServeFlag("--port", "70000", flags),
                ::testing::ExitedWithCode(2), "--port");
    EXPECT_EXIT(lva::applyServeFlag("--workers", "0", flags),
                ::testing::ExitedWithCode(2), "--workers");
}

} // namespace
