/**
 * @file
 * Byte-identity gate for the phase-1 figure specs (eval/figure).
 *
 * The twelve figure and ablation drivers were hand-written mains
 * before one engine ran them from a table of FigureSpecs. These tests
 * run every spec through runFigure at seeds=1, scale=0.05, serially
 * and on a 4-worker pool, and pin the FNV-1a digest of every CSV and
 * stats/<driver>.json it writes. The digests were captured from the
 * hand-written drivers, so a spec (axis, override, column, format or
 * CSV name) that drifts one exported byte from them fails here.
 *
 * If a change alters simulation semantics on purpose, re-capture the
 * digests from the drivers' own output (LVA_SEEDS=1 LVA_SCALE=0.05)
 * and say so, as for refactor_identity_test.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "eval/figure.hh"
#include "util/checkpoint.hh"

namespace lva {
namespace {

/** One export file under the results directory and its digest. */
struct Golden
{
    const char *file;
    const char *digest;
};

// Captured from the hand-written drivers at seeds=1, scale=0.05
// (identical at LVA_JOBS=1 and 4).
const Golden kGoldens[] = {
    {"fig4_ghb_mpki.csv", "782f27befe0c22fb"},
    {"stats/fig4_ghb_mpki.json", "2bb8187fef793a56"},
    {"fig5_ghb_error.csv", "4d1811e6f98699fb"},
    {"stats/fig5_ghb_error.json", "be309ab6a953e763"},
    {"fig6a_confidence_mpki.csv", "64858ce2ede3b00f"},
    {"fig6b_confidence_error.csv", "b18ffa1022dc5087"},
    {"stats/fig6_confidence.json", "a632a99b71294fd9"},
    {"fig7a_delay_mpki.csv", "3c9805aee405f1ac"},
    {"fig7b_delay_error.csv", "86899f73c22c3462"},
    {"stats/fig7_value_delay.json", "3c83a19e38dcabc8"},
    {"fig8a_degree_mpki.csv", "a02bea0046f35fe7"},
    {"fig8b_degree_fetches.csv", "91a3b79a19057b5f"},
    {"stats/fig8_degree_fetches.json", "ed5efb3db63bddd8"},
    {"fig9_degree_error.csv", "644681e3501cb1ea"},
    {"stats/fig9_degree_error.json", "3b5e342e0aa498ab"},
    {"fig13_precision.csv", "810a8b962cf371df"},
    {"stats/fig13_precision.json", "3a87af5ebde9505d"},
    {"ablation_estimators_mpki.csv", "97a3ea5110fb09dd"},
    {"ablation_estimators_error.csv", "5643bbdf1d414694"},
    {"stats/ablation_estimators.json", "696ec2eedc482f6c"},
    {"ablation_table_size_mpki.csv", "1ad299f8f4f4849a"},
    {"ablation_table_size_error.csv", "5a9bdaaeeded32d2"},
    {"stats/ablation_table_size.json", "b03f6e986ced2521"},
    {"ablation_confidence_step.csv", "e5feb13221097f7e"},
    {"stats/ablation_confidence_step.json", "d5a1cb9962eba595"},
    {"ablation_lhb_size_mpki.csv", "ac1b6515b5f526dc"},
    {"ablation_lhb_size_error.csv", "d698561dcec3fd8d"},
    {"stats/ablation_lhb_size.json", "fcedc4ea4ee1f0c7"},
    {"ablation_table_assoc_mpki.csv", "ef923e2030025094"},
    {"ablation_table_assoc_error.csv", "6f8d3cd1aa1e3021"},
    {"stats/ablation_table_assoc.json", "afcde75a20ff3154"},
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void
expectGoldenExports(u32 jobs)
{
    const std::string dir = ::testing::TempDir() + "figure_identity_" +
                            std::to_string(::getpid()) + "_j" +
                            std::to_string(jobs);
    ::setenv("LVA_RESULTS_DIR", dir.c_str(), 1);

    std::set<std::string> written;
    for (const FigureSpec &spec : figureSpecs()) {
        Evaluator eval(1, 0.05);
        SweepRunner runner(eval, jobs);
        SweepOptions opts;
        opts.driver = spec.driver;
        EXPECT_EQ(runFigure(spec, runner, opts), 0) << spec.driver;
        for (const FigureTable &t : spec.tables)
            written.insert(t.csv);
        written.insert("stats/" + spec.driver + ".json");
    }
    ::unsetenv("LVA_RESULTS_DIR");

    std::set<std::string> pinned;
    for (const Golden &g : kGoldens) {
        pinned.insert(g.file);
        EXPECT_EQ(hexU64(fnv1a64(readFile(dir + "/" + g.file))), g.digest)
            << g.file;
    }
    EXPECT_EQ(written, pinned) << "every export must carry a golden";
    std::filesystem::remove_all(dir);
}

TEST(FigureIdentity, ExportsMatchHandWrittenDriversSerial)
{
    expectGoldenExports(1);
}

TEST(FigureIdentity, ExportsMatchHandWrittenDriversJobs4)
{
    expectGoldenExports(4);
}

TEST(FigureIdentity, SpecsNameTheTwelveDrivers)
{
    EXPECT_EQ(figureSpecs().size(), 12u);
    EXPECT_EQ(figureSpec("fig13_precision").workloads,
              std::vector<std::string>{"fluidanimate"});
    EXPECT_THROW(figureSpec("fig10_fullsystem"), std::runtime_error);
}

TEST(FigureIdentity, AxisOverridesUseTheConfigVocabulary)
{
    // fig8's prefetch points change the mode and the prefetcher, its
    // approx points only the approximator of every per-core variant.
    ApproxMemory::Config base = Evaluator::baselineLva();
    base.threadApprox.assign(2, base.approx);
    const std::vector<SweepPoint> points =
        figurePoints(figureSpec("fig8_degree_fetches"), base);
    ASSERT_EQ(points.size(), 8u * allWorkloadNames().size());
    EXPECT_EQ(points[1].label, "prefetch-4");
    EXPECT_EQ(points[1].config.mode, MemMode::Prefetch);
    EXPECT_EQ(points[1].config.prefetch.degree, 4u);
    EXPECT_EQ(points[7].label, "approx-16");
    EXPECT_EQ(points[7].config.mode, MemMode::Lva);
    EXPECT_EQ(points[7].config.approx.approxDegree, 16u);
    EXPECT_EQ(points[7].config.threadApprox[1].approxDegree, 16u);
    EXPECT_EQ(points[8].workload, allWorkloadNames()[1]);
}

} // namespace
} // namespace lva
