/**
 * @file
 * Tests for the sweep robustness layer: per-point failure isolation,
 * bounded retry with the runtime gauges,
 * checkpoint/resume through the manifest, and the partial-result
 * export. Crash (abort) recovery across processes lives in
 * sweep_resume_test; here every fault is survivable in-process.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "eval/stat_report.hh"
#include "eval/sweep.hh"
#include "util/fault.hh"

namespace lva {
namespace {

namespace fs = std::filesystem;

std::string
slurp(const std::string &p)
{
    std::ifstream in(p, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::vector<SweepPoint>
threeCannealPoints()
{
    std::vector<SweepPoint> points;
    points.push_back({"lva", "canneal", Evaluator::baselineLva()});
    ApproxMemory::Config deg4 = Evaluator::baselineLva();
    deg4.approx.approxDegree = 4;
    points.push_back({"deg4", "canneal", deg4});
    ApproxMemory::Config deg8 = Evaluator::baselineLva();
    deg8.approx.approxDegree = 8;
    points.push_back({"deg8", "canneal", deg8});
    return points;
}

/** Explicit policy: no env influence, no checkpoint, single attempt. */
SweepOptions
plainOptions(u32 max_attempts = 1)
{
    SweepOptions opts;
    opts.maxAttempts = max_attempts;
    return opts;
}

/** Disarm any injected faults on the way out of every test. */
class RobustSweepTest : public ::testing::Test
{
  protected:
    void TearDown() override { setFaultSpecForTest(""); }
};

TEST_F(RobustSweepTest, IsolatedFailureLeavesOtherPointsComplete)
{
    setFaultSpecForTest("sweep.point.1=throw");
    Evaluator eval(1, 0.05);
    SweepRunner runner(eval, 1);
    const SweepOutcome outcome =
        runner.runChecked(threeCannealPoints(), plainOptions());

    EXPECT_FALSE(outcome.ok());
    ASSERT_EQ(outcome.results.size(), 3u);
    ASSERT_EQ(outcome.failures.size(), 1u);

    const PointFailure &f = outcome.failures[0];
    EXPECT_EQ(f.index, 1u);
    EXPECT_EQ(f.label, "deg4");
    EXPECT_EQ(f.workload, "canneal");
    EXPECT_EQ(f.attempts, 1u);
    EXPECT_NE(f.error.find("injected fault"), std::string::npos);

    // The failed slot is an honest NaN placeholder, not a number.
    EXPECT_TRUE(outcome.results[1].failed);
    EXPECT_TRUE(std::isnan(outcome.results[1].mpki));
    // The other two points completed normally.
    EXPECT_FALSE(outcome.results[0].failed);
    EXPECT_FALSE(outcome.results[2].failed);
    EXPECT_GT(outcome.results[0].instructions, 0u);
}

TEST_F(RobustSweepTest, PoolPathIsolatesFailuresToo)
{
    setFaultSpecForTest("sweep.point.0=throw");
    Evaluator eval(1, 0.05);
    SweepRunner runner(eval, 2);
    const SweepOutcome outcome =
        runner.runChecked(threeCannealPoints(), plainOptions());
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures[0].index, 0u);
    EXPECT_FALSE(outcome.results[1].failed);
    EXPECT_FALSE(outcome.results[2].failed);
}

TEST_F(RobustSweepTest, RetryRecoversTransientFaultAndCountsAttempts)
{
    setFaultSpecForTest("sweep.point.0=throw@first2");
    Evaluator eval(1, 0.05);
    SweepRunner runner(eval, 1);
    const SweepOutcome outcome = runner.runChecked(
        {{"lva", "canneal", Evaluator::baselineLva()}},
        plainOptions(3));

    EXPECT_TRUE(outcome.ok());
    ASSERT_EQ(outcome.results.size(), 1u);
    const StatSnapshot &stats = outcome.results[0].stats;
    EXPECT_EQ(stats.valueOf("eval.retries.attempts"), 3.0);
    EXPECT_EQ(stats.valueOf("eval.failures.transient"), 2.0);
}

TEST_F(RobustSweepTest, CleanPointReportsOneAttempt)
{
    Evaluator eval(1, 0.05);
    SweepRunner runner(eval, 1);
    const SweepOutcome outcome = runner.runChecked(
        {{"lva", "canneal", Evaluator::baselineLva()}},
        plainOptions());
    ASSERT_TRUE(outcome.ok());
    const StatSnapshot &stats = outcome.results[0].stats;
    EXPECT_EQ(stats.valueOf("eval.retries.attempts"), 1.0);
    EXPECT_EQ(stats.valueOf("eval.failures.transient"), 0.0);
}

TEST_F(RobustSweepTest, RetryExhaustionReportsAttemptsConsumed)
{
    setFaultSpecForTest("sweep.point.0=throw");
    Evaluator eval(1, 0.05);
    SweepRunner runner(eval, 1);
    const SweepOutcome outcome = runner.runChecked(
        {{"lva", "canneal", Evaluator::baselineLva()}},
        plainOptions(2));
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures[0].attempts, 2u);
    EXPECT_TRUE(outcome.results[0].failed);
}

TEST_F(RobustSweepTest, MapCheckedIsolatesPanic)
{
    // lva_panic would normally abort the process; under the per-point
    // isolation it becomes a structured failure.
    SweepRunner runner(1);
    const auto outcome = runner.mapChecked(
        2,
        [](u64 i) {
            if (i == 1)
                lva_panic("deliberate test panic %d", 42);
            return static_cast<int>(i);
        },
        plainOptions(),
        [](u64 i) { return "task" + std::to_string(i); });

    ASSERT_EQ(outcome.results.size(), 2u);
    ASSERT_TRUE(outcome.results[0].has_value());
    EXPECT_EQ(*outcome.results[0], 0);
    EXPECT_FALSE(outcome.results[1].has_value());
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures[0].label, "task1");
    EXPECT_NE(outcome.failures[0].error.find("deliberate test panic"),
              std::string::npos);
}

TEST_F(RobustSweepTest, AllocationFailureIsIsolated)
{
    setFaultSpecForTest("sweep.point.0=allocfail");
    SweepRunner runner(1);
    const auto outcome =
        runner.mapChecked(1, [](u64) { return 1; }, plainOptions());
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_NE(outcome.failures[0].error.find("bad_alloc"),
              std::string::npos);
}

TEST_F(RobustSweepTest, EvalResultEncodingRoundTripsExactly)
{
    Evaluator eval(1, 0.05);
    const EvalResult r =
        eval.evaluate("canneal", Evaluator::baselineLva());

    const std::string encoded = encodeEvalResult(r);
    const EvalResult back = decodeEvalResult(parseJson(encoded));

    // Scalars survive bit-for-bit (%.17g round-trip).
    EXPECT_EQ(back.mpki, r.mpki);
    EXPECT_EQ(back.preciseMpki, r.preciseMpki);
    EXPECT_EQ(back.normMpki, r.normMpki);
    EXPECT_EQ(back.fetches, r.fetches);
    EXPECT_EQ(back.preciseFetches, r.preciseFetches);
    EXPECT_EQ(back.normFetches, r.normFetches);
    EXPECT_EQ(back.outputError, r.outputError);
    EXPECT_EQ(back.coverage, r.coverage);
    EXPECT_EQ(back.instrVariation, r.instrVariation);
    EXPECT_EQ(back.instructions, r.instructions);

    // Re-encoding the decoded result reproduces the same bytes, so a
    // resumed point's manifest line is stable across generations.
    EXPECT_EQ(encodeEvalResult(back), encoded);

    // And the stats JSON rendering — the user-visible artifact — is
    // byte-identical whether the snapshot came from the run or the
    // manifest.
    const std::string direct = renderStatsJson(
        "roundtrip", {{"lva", "canneal", r.stats}});
    const std::string resumed = renderStatsJson(
        "roundtrip", {{"lva", "canneal", back.stats}});
    EXPECT_EQ(direct, resumed);
}

TEST_F(RobustSweepTest, FailuresSectionRendersAndEmptyIsByteCompatible)
{
    Evaluator eval(1, 0.05);
    const EvalResult r =
        eval.evaluate("canneal", Evaluator::baselineLva());
    const std::vector<NamedSnapshot> snaps = {
        {"lva", "canneal", r.stats}};

    // Empty failures: exactly the historical bytes.
    EXPECT_EQ(renderStatsJson("d", snaps),
              renderStatsJson("d", snaps, {}));

    PointFailure f;
    f.index = 2;
    f.label = "deg8";
    f.workload = "canneal";
    f.error = "injected fault at sweep.point.2";
    f.attempts = 3;
    const std::string out = renderStatsJson("d", snaps, {f});
    EXPECT_NE(out.find("\"failures\": ["), std::string::npos);
    EXPECT_NE(out.find("\"index\": 2"), std::string::npos);
    EXPECT_NE(out.find("\"label\": \"deg8\""), std::string::npos);
    EXPECT_NE(out.find("\"workload\": \"canneal\""),
              std::string::npos);
    EXPECT_NE(out.find("injected fault at sweep.point.2"),
              std::string::npos);
    EXPECT_NE(out.find("\"attempts\": 3"), std::string::npos);
    EXPECT_NE(out.find("\"timedOut\": false"), std::string::npos);
}

/** Checkpoint/resume tests need a scratch results directory. */
class CheckpointSweepTest : public RobustSweepTest
{
  protected:
    void
    SetUp() override
    {
        // Unique per test case: parallel ctest processes would
        // otherwise race on a shared scratch directory.
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = fs::temp_directory_path() /
               (std::string("lva_robust_ckpt_") + info->name());
        fs::remove_all(dir_);
        ::setenv("LVA_RESULTS_DIR", dir_.c_str(), 1);
    }

    void
    TearDown() override
    {
        RobustSweepTest::TearDown();
        ::unsetenv("LVA_RESULTS_DIR");
        fs::remove_all(dir_);
    }

    fs::path dir_;
};

TEST_F(CheckpointSweepTest, ResumeSkipsCompletedPointsByteIdentically)
{
    const std::vector<SweepPoint> points = threeCannealPoints();
    SweepOptions opts = plainOptions();
    opts.driver = "robust_ckpt";
    opts.checkpoint = true;

    // Reference: an uninterrupted checkpointed run.
    Evaluator eval1(1, 0.05);
    SweepRunner runner1(eval1, 1);
    const SweepOutcome first = runner1.runChecked(points, opts);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.resumed, 0u);
    const std::string ref =
        slurp(exportSweepStats("robust_ckpt", points, first));

    // Second process generation: every point restores from the
    // manifest, nothing re-runs, and the export bytes are identical.
    opts.resume = true;
    Evaluator eval2(1, 0.05);
    SweepRunner runner2(eval2, 1);
    const SweepOutcome second = runner2.runChecked(points, opts);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second.resumed, 3u);
    EXPECT_EQ(slurp(exportSweepStats("robust_ckpt", points, second)),
              ref);
}

TEST_F(CheckpointSweepTest, ResumeRerunsOnlyTheFailedPoint)
{
    const std::vector<SweepPoint> points = threeCannealPoints();
    SweepOptions opts = plainOptions();
    opts.driver = "robust_partial";
    opts.checkpoint = true;

    // First generation: point 1 fails, the other two checkpoint.
    setFaultSpecForTest("sweep.point.1=throw");
    Evaluator eval1(1, 0.05);
    SweepRunner runner1(eval1, 1);
    const SweepOutcome broken = runner1.runChecked(points, opts);
    ASSERT_EQ(broken.failures.size(), 1u);

    // Second generation (fault gone): resumes 2, re-runs 1, and the
    // export matches a never-interrupted run byte for byte.
    setFaultSpecForTest("");
    opts.resume = true;
    Evaluator eval2(1, 0.05);
    SweepRunner runner2(eval2, 1);
    const SweepOutcome fixed = runner2.runChecked(points, opts);
    ASSERT_TRUE(fixed.ok());
    EXPECT_EQ(fixed.resumed, 2u);
    const std::string resumed_export =
        slurp(exportSweepStats("robust_partial", points, fixed));

    fs::remove_all(dir_ / "checkpoints");
    SweepOptions clean_opts = plainOptions();
    clean_opts.driver = "robust_partial";
    Evaluator eval3(1, 0.05);
    SweepRunner runner3(eval3, 1);
    const SweepOutcome clean = runner3.runChecked(points, clean_opts);
    ASSERT_TRUE(clean.ok());
    EXPECT_EQ(
        slurp(exportSweepStats("robust_partial", points, clean)),
        resumed_export);
}

TEST_F(CheckpointSweepTest, ResumeIgnoresManifestFromOtherContext)
{
    const std::vector<SweepPoint> points = {
        {"lva", "canneal", Evaluator::baselineLva()}};
    SweepOptions opts = plainOptions();
    opts.driver = "robust_ctx";
    opts.checkpoint = true;

    Evaluator eval1(1, 0.05);
    SweepRunner runner1(eval1, 1);
    ASSERT_TRUE(runner1.runChecked(points, opts).ok());

    // Different seed count => different context key: the stale
    // manifest must not be resumed.
    opts.resume = true;
    Evaluator eval2(2, 0.05);
    SweepRunner runner2(eval2, 1);
    const SweepOutcome outcome = runner2.runChecked(points, opts);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.resumed, 0u);
}

TEST_F(CheckpointSweepTest, CheckedExportIsJobCountInvariant)
{
    const std::vector<SweepPoint> points = threeCannealPoints();

    auto runAndExport = [&](u32 jobs) {
        Evaluator eval(1, 0.05);
        SweepRunner runner(eval, jobs);
        const SweepOutcome outcome =
            runner.runChecked(points, plainOptions());
        return slurp(exportSweepStats("robust_jobs", points, outcome));
    };

    const std::string serial = runAndExport(1);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, runAndExport(3));
}

} // namespace
} // namespace lva
