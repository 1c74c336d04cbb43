/**
 * @file
 * Rejection tests for the shared strict env-knob parse
 * (util/env_knob.hh) and its resolveServeOptions consumers.  Each
 * malformed value must warn and fall back to the documented default
 * — never be silently coerced the way the old atoi/strtol readers
 * coerced "2x" to 2 or wrapped "-1" to a huge unsigned.
 *
 * The knob names used below are the production ones (LVA_FLEET_SIZE,
 * LVA_SERVE_CACHE, LVA_SERVE_QUEUE, LVA_CLIENT_BUSY_RETRIES) so the
 * exact knob/range pairs the binaries pass are what gets exercised.
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
    ::unsetenv("LVA_FLEET_SIZE");
    EXPECT_EQ(envKnobU64("LVA_FLEET_SIZE", 4, 1, 64), 4u);
    ScopedEnv env("LVA_FLEET_SIZE", "");
    EXPECT_EQ(envKnobU64("LVA_FLEET_SIZE", 4, 1, 64), 4u);
}

TEST(EnvKnobU64, PureDecimalInRangeIsAccepted)
{
    ScopedEnv env("LVA_FLEET_SIZE", "8");
    EXPECT_EQ(envKnobU64("LVA_FLEET_SIZE", 4, 1, 64), 8u);
}

TEST(EnvKnobU64, TrailingJunkIsRejectedNotTruncated)
{
    // The pre-PR-8 reader turned "2x" into 2.
    ScopedEnv env("LVA_FLEET_SIZE", "2x");
    EXPECT_EQ(envKnobU64("LVA_FLEET_SIZE", 4, 1, 64), 4u);
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
        ScopedEnv env("LVA_SERVE_CACHE", "0x10");
        EXPECT_EQ(envKnobU64("LVA_SERVE_CACHE", 0, 0, 1000000), 0u);
    }
    {
        ScopedEnv env("LVA_SERVE_CACHE", " 7");
        EXPECT_EQ(envKnobU64("LVA_SERVE_CACHE", 0, 0, 1000000), 0u);
    }
    {
        ScopedEnv env("LVA_SERVE_CACHE", "unbounded");
        EXPECT_EQ(envKnobU64("LVA_SERVE_CACHE", 0, 0, 1000000), 0u);
    }
}

TEST(EnvKnobU64, OutOfRangeFallsBackInsteadOfClamping)
{
    {
        ScopedEnv env("LVA_FLEET_SIZE", "65");
        EXPECT_EQ(envKnobU64("LVA_FLEET_SIZE", 4, 1, 64), 4u);
    }
    {
        ScopedEnv env("LVA_FLEET_SIZE", "0");
        EXPECT_EQ(envKnobU64("LVA_FLEET_SIZE", 4, 1, 64), 4u);
    }
    {
        // Past 2^64: strtoull saturates with ERANGE; still rejected.
        ScopedEnv env("LVA_FLEET_SIZE", "99999999999999999999999");
        EXPECT_EQ(envKnobU64("LVA_FLEET_SIZE", 4, 1, 64), 4u);
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

TEST(ServeOptions, MalformedQueueAndCacheKnobsFallBackToDefaults)
{
    ScopedEnv queue("LVA_SERVE_QUEUE", "-1");
    ScopedEnv cache("LVA_SERVE_CACHE", "lots");
    const lva::ServeOptions opts =
        lva::resolveServeOptions(lva::ServeOptions{});
    EXPECT_EQ(opts.queueCap, 16u);  // documented default
    EXPECT_EQ(opts.cacheCap, 0u);   // unbounded default
}

TEST(ServeOptions, ValidKnobsResolveAndExplicitFieldsWin)
{
    ScopedEnv queue("LVA_SERVE_QUEUE", "32");
    ScopedEnv cache("LVA_SERVE_CACHE", "128");
    lva::ServeOptions opts = lva::resolveServeOptions(lva::ServeOptions{});
    EXPECT_EQ(opts.queueCap, 32u);
    EXPECT_EQ(opts.cacheCap, 128u);

    lva::ServeOptions forced;
    forced.queueCap = 3;
    forced.cacheCap = 9;
    opts = lva::resolveServeOptions(forced);
    EXPECT_EQ(opts.queueCap, 3u);
    EXPECT_EQ(opts.cacheCap, 9u);
}

} // namespace
