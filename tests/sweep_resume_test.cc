/**
 * @file
 * Cross-process crash/resume acceptance test: kill the helper sweep
 * binary after K of N points via an injected abort (a real process
 * exit, no unwinding), restart it with --resume, and require the
 * final stats export to be byte-identical to an uninterrupted run —
 * for both the serial path and a 4-worker pool.
 *
 * The helper path arrives via the LVA_CRASH_HELPER compile
 * definition; faults and knobs travel through the child environment.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

#include "util/fault.hh"

namespace lva {
namespace {

namespace fs = std::filesystem;

std::string
slurp(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Run the helper with the given env prefix + args; exit status. */
int
runHelper(const std::string &env, const std::string &args)
{
    const std::string cmd = env + " '" + LVA_CRASH_HELPER + "' " +
                            args + " >/dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    if (status < 0 || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

class SweepResumeTest : public ::testing::TestWithParam<int>
{
  protected:
    void
    SetUp() override
    {
        // One dir per process and test: under ctest -j the tests of
        // one parameter run at once and must not share files.
        std::string test = ::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->name();
        std::replace(test.begin(), test.end(), '/', '_');
        base_ = fs::temp_directory_path() /
                ("lva_resume_" +
                 std::to_string(static_cast<long>(getpid())) + "_" +
                 test);
        fs::remove_all(base_);
    }

    void TearDown() override { fs::remove_all(base_); }

    std::string
    env(const fs::path &dir, const std::string &extra = "") const
    {
        return "LVA_RESULTS_DIR='" + dir.string() + "' LVA_JOBS=" +
               std::to_string(GetParam()) +
               (extra.empty() ? "" : " " + extra);
    }

    fs::path base_;
};

TEST_P(SweepResumeTest, CrashAtPointKThenResumeIsByteIdentical)
{
    const fs::path ref_dir = base_ / "ref";
    const fs::path crash_dir = base_ / "crash";
    const fs::path stats = "stats/sweep_crash_helper.json";
    const fs::path manifest = "checkpoints/sweep_crash_helper.jsonl";

    // Reference: a clean, uninterrupted run.
    ASSERT_EQ(runHelper(env(ref_dir), ""), 0);
    const std::string ref = slurp(ref_dir / stats);
    ASSERT_FALSE(ref.empty());

    // Kill the process the moment point 2 starts: _Exit, mid-sweep.
    ASSERT_EQ(runHelper(env(crash_dir,
                            "LVA_FAULT='sweep.point.2=abort'"),
                        "--checkpoint"),
              faultExitCode());
    // The crash happened before the export could be written, but the
    // manifest recorded the durable progress.
    EXPECT_FALSE(fs::exists(crash_dir / stats));
    ASSERT_TRUE(fs::exists(crash_dir / manifest));

    // Restart with --resume: completed points come from the manifest,
    // the rest run now, and the bytes match the reference exactly.
    ASSERT_EQ(runHelper(env(crash_dir), "--resume"), 0);
    EXPECT_EQ(slurp(crash_dir / stats), ref);
}

TEST_P(SweepResumeTest, PermanentFailureStillExportsTheRest)
{
    const fs::path dir = base_ / "partial";
    const fs::path stats = dir / "stats/sweep_crash_helper.json";

    // One permanently failing point: the sweep finishes degraded
    // (exit 3), the other three points export, and the failure is
    // recorded structurally.
    ASSERT_EQ(runHelper(env(dir, "LVA_FAULT='sweep.point.1=throw'"),
                        ""),
              3);
    const std::string out = slurp(stats);
    ASSERT_FALSE(out.empty());
    EXPECT_NE(out.find("\"failures\": ["), std::string::npos);
    EXPECT_NE(out.find("injected fault at sweep.point.1"),
              std::string::npos);
    EXPECT_NE(out.find("\"label\": \"deg0\""), std::string::npos);
    EXPECT_NE(out.find("\"label\": \"deg4\""), std::string::npos);
    EXPECT_NE(out.find("\"label\": \"deg8\""), std::string::npos);
    // The failed point exports no snapshot: "deg2" appears exactly
    // once, in its failure record.
    const auto first = out.find("\"label\": \"deg2\"");
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(out.find("\"label\": \"deg2\"", first + 1),
              std::string::npos);
}

TEST_P(SweepResumeTest, UnknownFlagIsAUsageError)
{
    EXPECT_EQ(runHelper(env(base_ / "usage"), "--bogus"), 2);
}

INSTANTIATE_TEST_SUITE_P(Jobs, SweepResumeTest,
                         ::testing::Values(1, 4));

} // namespace
} // namespace lva
