/**
 * @file
 * Tests for the parallel sweep engine: parallel evaluation must be
 * bit-identical to the serial path, results must come back in
 * submission order, and the shared golden-run cache must hold under
 * concurrency.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "eval/sweep.hh"

namespace lva {
namespace {

/** Every EvalResult field, bit-for-bit — stats snapshot included. */
void
expectIdentical(const EvalResult &a, const EvalResult &b)
{
    EXPECT_EQ(a.preciseMpki, b.preciseMpki);
    EXPECT_EQ(a.mpki, b.mpki);
    EXPECT_EQ(a.normMpki, b.normMpki);
    EXPECT_EQ(a.preciseFetches, b.preciseFetches);
    EXPECT_EQ(a.fetches, b.fetches);
    EXPECT_EQ(a.normFetches, b.normFetches);
    EXPECT_EQ(a.outputError, b.outputError);
    EXPECT_EQ(a.coverage, b.coverage);
    EXPECT_EQ(a.instrVariation, b.instrVariation);
    EXPECT_EQ(a.instructions, b.instructions);
    ASSERT_EQ(a.stats.entries.size(), b.stats.entries.size());
    for (std::size_t i = 0; i < a.stats.entries.size(); ++i) {
        const SnapEntry &ea = a.stats.entries[i];
        const SnapEntry &eb = b.stats.entries[i];
        EXPECT_EQ(ea.path, eb.path);
        EXPECT_EQ(ea.count, eb.count);
        EXPECT_EQ(ea.gauge, eb.gauge);
        EXPECT_EQ(ea.histBuckets, eb.histBuckets);
    }
}

std::vector<SweepPoint>
allWorkloadPoints()
{
    std::vector<SweepPoint> points;
    for (const auto &name : allWorkloadNames()) {
        points.push_back({"lva", name, Evaluator::baselineLva()});

        ApproxMemory::Config deg8 = Evaluator::baselineLva();
        deg8.approx.approxDegree = 8;
        points.push_back({"deg8", name, deg8});
    }
    return points;
}

TEST(SweepRunner, ParallelMatchesSerialBitForBit)
{
    const std::vector<SweepPoint> points = allWorkloadPoints();

    Evaluator serial_eval(2, 0.05);
    SweepRunner serial(serial_eval, 1);
    const std::vector<EvalResult> expect =
        serial.runChecked(points, {}).results;

    Evaluator parallel_eval(2, 0.05);
    SweepRunner parallel(parallel_eval, 4);
    const std::vector<EvalResult> got =
        parallel.runChecked(points, {}).results;

    ASSERT_EQ(expect.size(), got.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
        SCOPED_TRACE(points[i].workload + "/" + points[i].label);
        expectIdentical(expect[i], got[i]);
    }
}

TEST(SweepRunner, ResultsComeBackInSubmissionOrder)
{
    // Unequal task costs: a late cheap task finishing first must not
    // displace earlier results.
    SweepRunner runner(4);
    const auto out = runner.map(32, [](u64 i) {
        volatile double sink = 0.0;
        for (u64 k = 0; k < (i % 3) * 100000; ++k)
            sink = sink + static_cast<double>(k);
        return static_cast<int>(i);
    });
    ASSERT_EQ(out.size(), 32u);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(out[i], i);
}

TEST(SweepRunner, ConcurrentPointsShareOneGoldenRun)
{
    // 8 concurrent points on the same workload: the golden (precise)
    // baseline must be built exactly once per seed, and every point
    // must see the identical baseline numbers.
    Evaluator eval(1, 0.05);
    std::vector<SweepPoint> points;
    for (int i = 0; i < 8; ++i)
        points.push_back({"lva", "canneal", Evaluator::baselineLva()});

    SweepRunner runner(eval, 4);
    const std::vector<EvalResult> results =
        runner.runChecked(points, {}).results;
    for (const EvalResult &r : results) {
        EXPECT_EQ(r.preciseMpki, results[0].preciseMpki);
        EXPECT_EQ(r.preciseFetches, results[0].preciseFetches);
    }
}

TEST(SweepRunner, SerialRunnerUsesNoPool)
{
    Evaluator eval(1, 0.05);
    SweepRunner runner(eval, 1);
    EXPECT_EQ(runner.jobs(), 1u);
    const auto out =
        runner
            .runChecked({{"precise", "x264", Evaluator::preciseConfig()}},
                        {})
            .results;
    ASSERT_EQ(out.size(), 1u);
    EXPECT_NEAR(out[0].normMpki, 1.0, 1e-9);
}

TEST(SweepRunner, ExplicitJobsOverrideTheEnvironment)
{
    // Pinned precedence (DESIGN.md section 10): an explicit nonzero
    // jobs count always wins. jobs=1 is the exact serial path — no
    // pool is built even when LVA_JOBS demands more — so a driver can
    // guarantee the historical serial behavior programmatically.
    ::setenv("LVA_JOBS", "8", 1);
    Evaluator eval(1, 0.05);
    SweepRunner serial(eval, 1);
    EXPECT_EQ(serial.jobs(), 1u);
    EXPECT_TRUE(serial.serial());

    SweepRunner two(eval, 2);
    EXPECT_EQ(two.jobs(), 2u);
    EXPECT_FALSE(two.serial());

    // Only jobs=0 defers to the environment.
    SweepRunner deferred(eval, 0);
    EXPECT_EQ(deferred.jobs(), 8u);
    ::unsetenv("LVA_JOBS");
}

TEST(SweepRunner, StatsJsonExportIsJobCountInvariant)
{
    // The acceptance bar for the registry refactor: the versioned
    // JSON export must be byte-identical between the serial path and
    // a 4-worker pool.
    namespace fs = std::filesystem;
    std::vector<SweepPoint> points;
    for (const auto &name : {"canneal", "x264"}) {
        points.push_back({"lva", name, Evaluator::baselineLva()});
        ApproxMemory::Config deg4 = Evaluator::baselineLva();
        deg4.approx.approxDegree = 4;
        points.push_back({"deg4", name, deg4});
    }

    auto runAndExport = [&](unsigned jobs, const fs::path &dir) {
        fs::remove_all(dir);
        setenv("LVA_RESULTS_DIR", dir.c_str(), 1);
        Evaluator eval(2, 0.05);
        SweepRunner runner(eval, jobs);
        const std::string written = exportSweepStats(
            "sweep_json_test", points, runner.runChecked(points, {}));
        unsetenv("LVA_RESULTS_DIR");
        std::ifstream in(written);
        std::stringstream ss;
        ss << in.rdbuf();
        return ss.str();
    };

    const fs::path base = fs::temp_directory_path();
    const std::string serial =
        runAndExport(1, base / "lva_sweep_json_serial");
    const std::string parallel =
        runAndExport(4, base / "lva_sweep_json_parallel");

    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);

    fs::remove_all(base / "lva_sweep_json_serial");
    fs::remove_all(base / "lva_sweep_json_parallel");
}

TEST(SweepRunner, MapExceptionPropagates)
{
    SweepRunner runner(2);
    EXPECT_THROW(runner.map(4,
                            [](u64 i) -> int {
                                if (i == 2)
                                    throw std::runtime_error("bad");
                                return 0;
                            }),
                 std::runtime_error);
}

TEST(SweepRunner, MapJoinsEveryTaskBeforeRethrowing)
{
    // Tasks may capture the caller's locals by reference, so map()
    // must not rethrow index 0's exception while index 1 still runs.
    SweepRunner runner(2);
    auto finished = std::make_shared<std::atomic<bool>>(false);
    EXPECT_THROW(runner.map(2,
                            [finished](u64 i) -> int {
                                if (i == 0)
                                    throw std::runtime_error("bad");
                                std::this_thread::sleep_for(
                                    std::chrono::milliseconds(50));
                                finished->store(true);
                                return 1;
                            }),
                 std::runtime_error);
    EXPECT_TRUE(finished->load());
}

} // namespace
} // namespace lva
