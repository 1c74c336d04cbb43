/**
 * @file
 * Byte-identity gate for the figure specs (eval/figure).
 *
 * The figure and ablation drivers were hand-written mains before one
 * engine ran them from a table of FigureSpecs. These tests run every
 * spec through runFigure at seeds=1, scale=0.05, serially and on a
 * 4-worker pool, and pin the FNV-1a digest of every CSV and
 * stats/<driver>.json it writes; the full-system specs also on the
 * 2-core and heterogeneous example machines and with one workload
 * failing. The digests were captured from the hand-written drivers,
 * so a spec (axis, override, column, format or CSV name) that drifts
 * one exported byte from them fails here.
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
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "eval/figure.hh"
#include "sim/machine_config.hh"
#include "util/checkpoint.hh"
#include "util/fault.hh"

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

/** A full-system export's digest on each pinned machine; nullptr
 *  when the driver refuses that machine and writes no file. */
struct FsGolden
{
    const char *file;
    const char *table2;
    const char *twoCore; ///< examples/machine-2core.json
    const char *hetero;  ///< examples/machine-hetero.json
};

// Captured from the hand-written full-system drivers at seeds=1,
// scale=0.05 on each machine (identical at LVA_JOBS=1 and 4). The
// heterogeneous-NoC leg's 4-node slow plane does not fit the 2-core
// machine's 2-node mesh, so that driver refuses the machine (exit 2).
const FsGolden kFsGoldens[] = {
    {"fig10a_speedup.csv", "ac534122b50241d1", "18b9133703f19e6f",
     "b7254d98ff07cf53"},
    {"fig10b_energy.csv", "1ae90c8841a9fd94", "b2af2f432ae2b6aa",
     "09006b6a5b8abb0d"},
    {"stats/fig10_fullsystem.json", "036da5fdd7d27b1f",
     "b04ae33e206dcff6", "2b608e30471ce2d7"},
    {"fig11_edp.csv", "f62c840dc2f17d81", "56cf7e7b0991f65f",
     "95392a9e4e1879a7"},
    {"stats/fig11_edp.json", "ad9bb4f03f575243", "57049217a41a385a",
     "d99c267e2ca09d23"},
    {"ablation_slow_fetch.csv", "5fa7088ed50f0d14", "ebb8049e4f8b398c",
     "43ee624893c7881b"},
    {"stats/ablation_slow_fetch.json", "ceaa07eb349d628b",
     "a94366397bf6cb88", "a31b417c5dc31f38"},
    {"ablation_hetero_noc.csv", "18927e86fabf0034", nullptr,
     "e91eb8b92664594c"},
    {"stats/ablation_hetero_noc.json", "b382312967eb5548", nullptr,
     "ab9f64685c06049f"},
    {"ablation_coherence.csv", "4b3c08e6ee1d5188", "f12f6469ce880b64",
     "08bfd2e0ccf8d75d"},
    {"stats/ablation_coherence.json", "0ee01deb5a4ba474",
     "7ff079decf69cbf6", "fcb7b58a6cb65a56"},
};

// fig10_fullsystem with LVA_FAULT=sweep.point.2=throw: canneal fails.
const Golden kFig10CannealFailed[] = {
    {"fig10a_speedup.csv", "e6f130eff0e9a9fa"},
    {"fig10b_energy.csv", "6b8326bf669580ac"},
    {"stats/fig10_fullsystem.json", "f2f6b2df872ed45a"},
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

std::string
digestOf(const std::string &path)
{
    return hexU64(fnv1a64(readFile(path)));
}

std::string
resultsDirFor(const std::string &tag)
{
    return ::testing::TempDir() + "figure_identity_" +
           std::to_string(::getpid()) + "_" + tag;
}

/**
 * Run every spec whose fullSystem flag is @p fullSystem into @p dir
 * on @p machine (null = Table II) with @p jobs workers, expecting a
 * clean exit, or exit 2 from the drivers in @p refused; returns the
 * files the clean specs name.
 */
std::set<std::string>
runSpecs(const std::string &dir, bool fullSystem, u32 jobs,
         std::shared_ptr<const MachineConfig> machine = nullptr,
         const std::set<std::string> &refused = {})
{
    ::setenv("LVA_RESULTS_DIR", dir.c_str(), 1);
    std::set<std::string> written;
    for (const FigureSpec &spec : figureSpecs()) {
        if (spec.fullSystem != fullSystem)
            continue;
        Evaluator eval(1, 0.05);
        SweepRunner runner(eval, jobs);
        SweepOptions opts;
        opts.driver = spec.driver;
        opts.machine = machine;
        const bool refuses = refused.count(spec.driver) > 0;
        EXPECT_EQ(runFigure(spec, runner, opts), refuses ? 2 : 0)
            << spec.driver;
        if (refuses)
            continue;
        for (const FigureTable &t : spec.tables)
            written.insert(t.csv);
        written.insert("stats/" + spec.driver + ".json");
    }
    ::unsetenv("LVA_RESULTS_DIR");
    return written;
}

void
expectGoldenExports(u32 jobs)
{
    const std::string dir = resultsDirFor("j" + std::to_string(jobs));
    const std::set<std::string> written = runSpecs(dir, false, jobs);

    std::set<std::string> pinned;
    for (const Golden &g : kGoldens) {
        pinned.insert(g.file);
        EXPECT_EQ(digestOf(dir + "/" + g.file), g.digest) << g.file;
    }
    EXPECT_EQ(written, pinned) << "every export must carry a golden";
    std::filesystem::remove_all(dir);
}

void
expectFullSystemGoldenExports(u32 jobs)
{
    const std::string examples = LVA_EXAMPLES_DIR;
    const struct
    {
        const char *tag;
        std::shared_ptr<const MachineConfig> machine;
        const char *FsGolden::*digest;
        std::set<std::string> refused;
    } machines[] = {
        {"table2", nullptr, &FsGolden::table2, {}},
        {"2core",
         std::make_shared<MachineConfig>(
             machineFromFile(examples + "/machine-2core.json")),
         &FsGolden::twoCore, {"ablation_hetero_noc"}},
        {"hetero",
         std::make_shared<MachineConfig>(
             machineFromFile(examples + "/machine-hetero.json")),
         &FsGolden::hetero, {}},
    };
    for (const auto &m : machines) {
        const std::string dir = resultsDirFor(
            std::string("fs_") + m.tag + "_j" + std::to_string(jobs));
        const std::set<std::string> written =
            runSpecs(dir, true, jobs, m.machine, m.refused);

        std::set<std::string> pinned;
        for (const FsGolden &g : kFsGoldens) {
            if (g.*m.digest == nullptr) {
                EXPECT_FALSE(std::filesystem::exists(dir + "/" + g.file))
                    << m.tag << ": " << g.file;
                continue;
            }
            pinned.insert(g.file);
            EXPECT_EQ(digestOf(dir + "/" + g.file), g.*m.digest)
                << m.tag << ": " << g.file;
        }
        EXPECT_EQ(written, pinned) << "every export must carry a golden";
        std::filesystem::remove_all(dir);
    }
}

TEST(FigureIdentity, ExportsMatchHandWrittenDriversSerial)
{
    expectGoldenExports(1);
}

TEST(FigureIdentity, ExportsMatchHandWrittenDriversJobs4)
{
    expectGoldenExports(4);
}

TEST(FigureIdentity, FullSystemExportsMatchHandWrittenDriversSerial)
{
    expectFullSystemGoldenExports(1);
}

TEST(FigureIdentity, FullSystemExportsMatchHandWrittenDriversJobs4)
{
    expectFullSystemGoldenExports(4);
}

TEST(FigureIdentity, FailedFullSystemWorkloadLeavesTheTables)
{
    // Phase-2 failure behaviour: the failed workload (canneal, map
    // task 2) is absent from both fig10 CSVs and their averages, and
    // listed in the export's failures section.
    for (u32 jobs : {1u, 4u}) {
        const std::string dir =
            resultsDirFor("fault_j" + std::to_string(jobs));
        ::setenv("LVA_RESULTS_DIR", dir.c_str(), 1);
        setFaultSpecForTest("sweep.point.2=throw");
        Evaluator eval(1, 0.05);
        SweepRunner runner(eval, jobs);
        SweepOptions opts;
        opts.driver = "fig10_fullsystem";
        const int code =
            runFigure(figureSpec("fig10_fullsystem"), runner, opts);
        setFaultSpecForTest("");
        ::unsetenv("LVA_RESULTS_DIR");

        EXPECT_EQ(code, 3);
        for (const Golden &g : kFig10CannealFailed)
            EXPECT_EQ(digestOf(dir + "/" + g.file), g.digest) << g.file;
        for (const char *csv : {"fig10a_speedup.csv", "fig10b_energy.csv"})
            EXPECT_EQ(readFile(dir + "/" + csv).find("canneal"),
                      std::string::npos)
                << csv;

        const JsonValue stats =
            parseJson(readFile(dir + "/stats/fig10_fullsystem.json"));
        const JsonValue *failures = stats.find("failures");
        ASSERT_NE(failures, nullptr);
        ASSERT_EQ(failures->items.size(), 1u);
        EXPECT_EQ(failures->items[0].find("label")->asString(), "canneal");
        std::filesystem::remove_all(dir);
    }
}

TEST(FigureIdentity, SpecsNameTheSeventeenDrivers)
{
    EXPECT_EQ(figureSpecs().size(), 17u);
    EXPECT_EQ(figureSpec("fig13_precision").workloads,
              std::vector<std::string>{"fluidanimate"});
    EXPECT_TRUE(figureSpec("fig10_fullsystem").fullSystem);
    EXPECT_THROW(figureSpec("fsdiag"), std::runtime_error);

    // Every column reads axis points the spec has.
    for (const FigureSpec &spec : figureSpecs())
        for (const FigureTable &t : spec.tables)
            for (const FigureColumn &c : t.columns) {
                const std::size_t points =
                    t.rows.empty() ? spec.axis.size() : 1;
                EXPECT_LT(c.point, points) << spec.driver << " " << c.header;
                EXPECT_LT(c.over, points) << spec.driver << " " << c.header;
            }
}

TEST(FigureIdentity, FullSystemAxisEditsTheMachine)
{
    // On the Table II machine the Fig. 10 points are exactly the
    // historical FullSystemConfig::baseline() / lva(d) presets.
    const std::vector<FullSystemConfig> fig10 =
        figureSystems(figureSpec("fig10_fullsystem"), defaultMachine());
    ASSERT_EQ(fig10.size(), 6u);
    EXPECT_FALSE(fig10[0].lvaEnabled);
    EXPECT_TRUE(fig10[5].lvaEnabled);
    EXPECT_EQ(fig10[5].approx.approxDegree,
              FullSystemConfig::lva(16).approx.approxDegree);
    EXPECT_EQ(fig10[5].approx.valueDelay,
              FullSystemConfig::lva(16).approx.valueDelay);

    // The hetero leg adds a 4-node slow plane: it fits Table II's
    // 4-node mesh, and the 2-core machine's 2-node mesh refuses it
    // with validate()'s message.
    const std::vector<FullSystemConfig> hetero =
        figureSystems(figureSpec("ablation_hetero_noc"), defaultMachine());
    ASSERT_EQ(hetero.size(), 3u);
    EXPECT_FALSE(hetero[1].heteroNoc);
    EXPECT_TRUE(hetero[2].heteroNoc);
    EXPECT_EQ(hetero[2].mesh.nodes(), 4u);
    EXPECT_EQ(hetero[2].slowMesh.nodes(), 4u);
    EXPECT_EQ(hetero[2].approx.approxDegree, 4u);
    MachineConfig dual =
        machineFromFile(std::string(LVA_EXAMPLES_DIR) + "/machine-2core.json");
    try {
        figureSystems(figureSpec("ablation_hetero_noc"), dual);
        ADD_FAILURE() << "the 2-core machine took a 4-node slow plane";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("slowNoc"),
                  std::string::npos)
            << e.what();
    }

    // The baseline legs keep the machine's own settings.
    dual.protocol = CoherenceProtocol::Mesi;
    dual.backgroundFetchExtraLatency = 50;
    EXPECT_EQ(figureSystems(figureSpec("ablation_slow_fetch"), dual)[0]
                  .backgroundFetchExtraLatency,
              50u);
    EXPECT_EQ(figureSystems(figureSpec("ablation_slow_fetch"), dual)[3]
                  .backgroundFetchExtraLatency,
              300u);
    const std::vector<FullSystemConfig> coherence =
        figureSystems(figureSpec("ablation_coherence"), dual);
    EXPECT_EQ(coherence[1].protocol, CoherenceProtocol::Msi);
    EXPECT_EQ(coherence[2].protocol, CoherenceProtocol::Mesi);
    EXPECT_FALSE(coherence[2].lvaEnabled);
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
