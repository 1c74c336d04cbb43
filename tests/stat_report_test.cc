/**
 * @file
 * Tests for the versioned lva-stats-v1 JSON export, and that it
 * carries every aggregate the phase-1 and phase-2 models report.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "eval/figure.hh"
#include "eval/stat_report.hh"
#include "util/checkpoint.hh"
#include "util/results_dir.hh"
#include "util/stats_json.hh"

namespace lva {
namespace {

/** @p snap as one point of a rendered export, read back: its "stats". */
JsonValue
exportedStats(const StatSnapshot &snap)
{
    const JsonValue doc =
        parseJson(renderStatsJson("unit_test", {{"p", "", snap}}));
    return doc.at("points").items.at(0).at("stats");
}

/** Sum of the exported counters "<prefix><N>.<leaf>" over N. */
u64
sumOverIndex(const JsonValue &stats, const std::string &prefix,
             const std::string &leaf)
{
    u64 total = 0;
    for (u32 n = 0;; ++n) {
        const JsonValue *e =
            stats.find(prefix + std::to_string(n) + "." + leaf);
        if (e == nullptr)
            return total;
        total += e->at("value").asU64();
    }
}

TEST(StatReport, ApproxMemoryMetricsAreTheSumOfItsExportedLanes)
{
    ApproxMemory::Config cfg;
    cfg.threads = 2;
    cfg.cache = CacheConfig{1024, 2, 64};
    cfg.approx.valueDelay = 0;
    ApproxMemory mem(cfg);
    mem.load(0, 0x400, 0x10000, Value::fromInt(1), true);
    mem.load(0, 0x400, 0x20000, Value::fromInt(1), true);
    mem.tickInstructions(1, 98);

    const JsonValue stats = exportedStats(mem.snapshot());
    const MemMetrics m = mem.metrics();
    const auto lanes = [&stats](const std::string &leaf) {
        return sumOverIndex(stats, "thread", "mem." + leaf);
    };
    EXPECT_EQ(lanes("instructions"), m.instructions);
    EXPECT_EQ(lanes("loads"), m.loads);
    EXPECT_EQ(lanes("stores"), m.stores);
    EXPECT_EQ(lanes("loadMisses"), m.loadMisses);
    EXPECT_EQ(lanes("effectiveMisses"), m.effectiveMisses);
    EXPECT_EQ(lanes("fetches"), m.fetches);
    EXPECT_EQ(lanes("approxLoads"), m.approxLoads);
    EXPECT_EQ(lanes("approximableLoads"), m.approximableLoads);
    EXPECT_EQ(m.instructions, 100u);
    // Per-thread component breakdown present.
    EXPECT_EQ(stats.at("thread0.l1.misses").at("value").asU64(), 2u);
    EXPECT_EQ(stats.at("thread1.l1.misses").at("value").asU64(), 0u);
    EXPECT_EQ(stats.at("thread0.lva.lookups").at("value").asU64(), 2u);
}

TEST(StatReport, FullSystemAggregatesMatchTheirExport)
{
    FullSystemSim sim(FullSystemConfig::lva(2));
    std::vector<ThreadTrace> traces(4);
    for (u32 i = 0; i < 12; ++i) {
        TraceEvent ev;
        ev.addr = 0x100000 + i * 0x10040;
        ev.value = Value::fromInt(9);
        ev.pc = 0x400;
        ev.instrBefore = 5;
        ev.isLoad = true;
        ev.approximable = true;
        traces[0].push_back(ev);
    }
    const FullSystemResult r = sim.run(traces);
    const JsonValue stats = exportedStats(r.stats);
    const auto cores = [&stats](const std::string &leaf) {
        return sumOverIndex(stats, "core", leaf);
    };
    EXPECT_EQ(stats.at("system.cycles").at("value").asDouble(),
              r.cycles);
    EXPECT_EQ(cores("loadMisses"), r.l1Misses);
    EXPECT_EQ(cores("demandMisses"), r.demandMisses);
    EXPECT_EQ(cores("approxMisses"), r.approxMisses);
    EXPECT_EQ(cores("fetchesSkipped"), r.fetchesSkipped);
    EXPECT_GT(r.l1Misses, 0u);
    EXPECT_EQ(stats.at("energy.total").at("value").asDouble(),
              r.energy.total());
    EXPECT_EQ(r.missEdp(), compareStat(Compare::None, r.stats, r.stats,
                                       kStatL1MissEdp));
}

namespace {

/** Two labelled snapshots with every stat type represented. */
std::vector<NamedSnapshot>
sampleSnapshots()
{
    StatRegistry reg(0);
    reg.counter("l1.misses", "L1 misses").inc(464);
    reg.gauge("eval.mpki", "effective MPKI", "misses/kinstr").set(3.5);
    reg.histogram("lva.error", 0.0, 1.0, 4, "relative error")
        .sample(0.25);
    std::vector<NamedSnapshot> snaps;
    snaps.push_back({"baseline", "canneal", reg.snapshot()});
    reg.counter("l1.misses").inc(36);
    snaps.push_back({"lva-d4", "canneal", reg.snapshot()});
    return snaps;
}

} // namespace

TEST(StatsJson, RenderCarriesSchemaDriverAndPoints)
{
    const std::string json = renderStatsJson("unit_test",
                                             sampleSnapshots());
    EXPECT_NE(json.find(std::string("\"schema\": \"") +
                        statsJsonSchema() + "\""),
              std::string::npos);
    EXPECT_NE(json.find("\"driver\": \"unit_test\""), std::string::npos);
    EXPECT_NE(json.find("\"label\": \"baseline\""), std::string::npos);
    EXPECT_NE(json.find("\"label\": \"lva-d4\""), std::string::npos);
    EXPECT_NE(json.find("\"workload\": \"canneal\""), std::string::npos);
    EXPECT_NE(json.find("\"l1.misses\""), std::string::npos);
    EXPECT_NE(json.find("\"value\": 500"), std::string::npos);
    // Histograms export their geometry and buckets.
    EXPECT_NE(json.find("\"buckets\""), std::string::npos);
    // Identical input renders identical bytes.
    EXPECT_EQ(json, renderStatsJson("unit_test", sampleSnapshots()));
}

TEST(StatsJson, SchemaCheckRejectsForeignFilePassesOwn)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "lva_schema_check_test";
    fs::create_directories(dir);
    const std::string missing = (dir / "never_written.json").string();
    EXPECT_NO_THROW(checkStatsFileSchema(missing));

    const std::string foreign = (dir / "foreign.json").string();
    std::ofstream(foreign)
        << "{\n  \"schema\": \"lva-stats-v999\",\n  \"points\": []\n}\n";
    EXPECT_THROW(checkStatsFileSchema(foreign), std::runtime_error);

    const std::string untagged = (dir / "untagged.json").string();
    std::ofstream(untagged) << "{\n  \"points\": []\n}\n";
    EXPECT_THROW(checkStatsFileSchema(untagged), std::runtime_error);

    const std::string own = (dir / "own.json").string();
    std::ofstream(own) << renderStatsJson("own", sampleSnapshots());
    EXPECT_NO_THROW(checkStatsFileSchema(own));
    fs::remove_all(dir);
}

TEST(StatsJson, WriteHonorsResultsDirOverride)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "lva_results_dir_test";
    fs::remove_all(dir);
    setenv("LVA_RESULTS_DIR", dir.c_str(), 1);

    const std::string written =
        writeStatsJson("unit_test", sampleSnapshots());
    EXPECT_EQ(written, (dir / "stats" / "unit_test.json").string());
    ASSERT_TRUE(fs::exists(written));

    std::ifstream in(written);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str(), renderStatsJson("unit_test", sampleSnapshots()));

    // A foreign-schema file at the target path must error, not be
    // truncated.
    std::ofstream(written) << "{\n  \"schema\": \"lva-stats-v0\"\n}\n";
    EXPECT_THROW(writeStatsJson("unit_test", sampleSnapshots()),
                 std::runtime_error);
    std::ifstream again(written);
    std::stringstream ss2;
    ss2 << again.rdbuf();
    EXPECT_NE(ss2.str().find("lva-stats-v0"), std::string::npos);

    unsetenv("LVA_RESULTS_DIR");
    fs::remove_all(dir);
}

} // namespace
} // namespace lva
