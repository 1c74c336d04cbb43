/**
 * @file
 * Tests for sweep sharding: the eval/coord plan/merge layer and
 * lva_fleet's sharded sweeps.
 *
 * The in-process half pins the tentpole property on the pure pieces:
 * for shard counts {1, 3, 7}, scattering a sweep through
 * EvalService::handle (shard-scoped detail requests) and merging the
 * shard records yields renderSweepStats bytes identical to a direct
 * single-process runChecked — including when points fail. Plus the
 * plan invariants, record round-trips, and merge validation.
 *
 * The cross-process half forks a real lva_fleet, drives it with
 * `lva_client sweep --shards 3 [--resume]`, and asserts the
 * acceptance criterion: a worker killed mid-shard and a frontend
 * killed mid-sweep (a fresh fleet then asked to resume) still
 * produce a byte-identical export.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include "eval/coord.hh"
#include "eval/service.hh"
#include "eval/sweep.hh"
#include "util/fault.hh"

namespace lva {
namespace {

namespace fs = std::filesystem;

constexpr u32 kSeeds = 1;
constexpr double kScale = 0.02;

std::string
slurp(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** A small multi-workload grid (workloads chosen for no particular
 *  hash property: the tests derive shard placement, never assume it). */
std::vector<SweepPoint>
testPoints(bool includeBadWorkload = false)
{
    std::vector<SweepPoint> points;
    for (const char *name :
         {"swaptions", "blackscholes", "fluidanimate", "bodytrack"}) {
        for (u32 ghb : {0u, 2u}) {
            ApproxMemory::Config cfg = Evaluator::baselineLva();
            cfg.approx.ghbEntries = ghb;
            points.push_back({"ghb-" + std::to_string(ghb), name, cfg});
        }
    }
    if (includeBadWorkload) {
        // An unknown workload fails in isolation on whatever process
        // evaluates it — the honest-failure path, no fault injection
        // needed.
        points.push_back(
            {"bad", "no-such-workload", Evaluator::baselineLva()});
    }
    return points;
}

/** The same JSON a client would put in the request "points" array. */
std::string
pointsJson(const std::vector<SweepPoint> &points,
           const std::vector<u64> &members)
{
    std::string out = "[";
    for (std::size_t i = 0; i < members.size(); ++i) {
        const SweepPoint &p = points[members[i]];
        if (i > 0)
            out += ',';
        out += "{\"label\":\"" + p.label + "\",\"workload\":\"" +
               p.workload + "\",\"config\":{\"ghb\":" +
               std::to_string(p.config.approx.ghbEntries) + "}}";
    }
    return out + "]";
}

/** Direct single-process reference export for @p points. */
std::string
directExport(const std::vector<SweepPoint> &points)
{
    Evaluator eval(kSeeds, kScale);
    SweepRunner runner(eval, 1);
    SweepOptions opts;
    opts.driver = "coord_test";
    const SweepOutcome outcome = runner.runChecked(points, opts);
    return renderSweepStats("coord_test", points, outcome);
}

ServeOptions
testOptions()
{
    ServeOptions opts;
    opts.workers = 2;
    opts.queueCap = 4;
    opts.deadlineMs = 5000;
    opts.maxAttempts = 1;
    opts.jobs = 1;
    return opts;
}

/** Scatter @p points through @p service per @p plan and merge. */
std::string
shardedExport(EvalService &service, const ShardPlan &plan,
              const std::vector<SweepPoint> &points)
{
    std::vector<ShardRecord> records;
    for (u32 s = 0; s < plan.shards; ++s) {
        if (plan.members[s].empty())
            continue;
        const std::string request =
            std::string("{\"schema\":\"lva-rpc-v1\",\"op\":\"sweep\"") +
            ",\"driver\":\"coord_test\",\"shard\":" +
            std::to_string(s) + ",\"detail\":true,\"points\":" +
            pointsJson(points, plan.members[s]) + "}";
        const JsonValue response = parseJson(service.handle(request));
        records.push_back(shardRecordFromResponse(
            response, s, plan.members[s].size()));
    }
    const SweepOutcome outcome =
        mergeShards(plan, points.size(), records);
    return renderSweepStats("coord_test", points, outcome);
}

// ---------------------------------------------------------------------
// Plan and rank invariants
// ---------------------------------------------------------------------

TEST(CoordPlan, EveryPointInExactlyOneShard)
{
    const std::vector<SweepPoint> points = testPoints();
    for (u32 shards : {1u, 2u, 3u, 7u, 16u}) {
        const ShardPlan plan = planShards(points, shards);
        ASSERT_EQ(plan.members.size(), shards);
        std::vector<int> seen(points.size(), 0);
        for (u32 s = 0; s < shards; ++s) {
            for (const u64 g : plan.members[s]) {
                ASSERT_LT(g, points.size());
                ++seen[g];
                // Placement is the fleet's rendezvous rule.
                EXPECT_EQ(s, fleetShard(points[g].workload, shards));
            }
        }
        for (const int n : seen)
            EXPECT_EQ(n, 1);
    }
}

TEST(CoordPlan, MembersKeepSubmissionOrder)
{
    const std::vector<SweepPoint> points = testPoints();
    const ShardPlan plan = planShards(points, 3);
    for (u32 s = 0; s < plan.shards; ++s)
        for (std::size_t i = 1; i < plan.members[s].size(); ++i)
            EXPECT_LT(plan.members[s][i - 1], plan.members[s][i]);
}

TEST(CoordPlan, KeyMatchesTheShardRequestsRouteKey)
{
    // The plan's per-shard key must equal what lva_fleet routes the
    // shard's actual request by — one placement rule, two spellings.
    const std::vector<SweepPoint> points = testPoints();
    const ShardPlan plan = planShards(points, 3);
    for (u32 s = 0; s < plan.shards; ++s) {
        if (plan.members[s].empty())
            continue;
        const std::string request =
            std::string("{\"schema\":\"lva-rpc-v1\",\"op\":\"sweep\"") +
            ",\"driver\":\"coord_test\",\"shard\":" +
            std::to_string(s) + ",\"detail\":true,\"points\":" +
            pointsJson(points, plan.members[s]) + "}";
        EXPECT_EQ(plan.keys[s], fleetRouteKey(request));
    }
}

TEST(CoordPlan, DigestTracksShardContents)
{
    const std::vector<SweepPoint> points = testPoints();
    const ShardPlan plan3 = planShards(points, 3);
    const ShardPlan plan7 = planShards(points, 7);
    EXPECT_EQ(shardDigest(plan3, points, 0),
              shardDigest(plan3, points, 0));
    // Different shard index -> different digest even when empty.
    EXPECT_NE(shardDigest(plan3, points, 0),
              shardDigest(plan3, points, 1));
    // The context key carries the shard count; together they keep a
    // manifest written under another plan from resuming.
    const Evaluator eval(kSeeds, kScale);
    EXPECT_NE(coordContextKey(eval, 3), coordContextKey(eval, 7));
    (void)plan7;
}

// ---------------------------------------------------------------------
// Record round-trip and merge validation
// ---------------------------------------------------------------------

ShardRecord
sampleRecord()
{
    ShardRecord record;
    record.shard = 2;
    record.results.push_back(failedPointPlaceholder());
    EvalResult ok;
    ok.outputError = 0.25;
    record.results.push_back(ok);
    PointFailure f;
    f.index = 0;
    f.label = "bad";
    f.workload = "no-such-workload";
    f.error = "unknown workload";
    f.attempts = 2;
    f.timedOut = false;
    record.failures.push_back(f);
    return record;
}

TEST(CoordRecord, EncodeDecodeRoundTrip)
{
    const ShardRecord record = sampleRecord();
    const ShardRecord back =
        decodeShardRecord(parseJson(encodeShardRecord(record)));
    EXPECT_EQ(back.shard, 2u);
    ASSERT_EQ(back.results.size(), 2u);
    EXPECT_TRUE(back.results[0].failed);
    EXPECT_FALSE(back.results[1].failed);
    EXPECT_EQ(back.results[1].outputError, 0.25);
    ASSERT_EQ(back.failures.size(), 1u);
    EXPECT_EQ(back.failures[0].label, "bad");
    EXPECT_EQ(back.failures[0].workload, "no-such-workload");
    EXPECT_EQ(back.failures[0].error, "unknown workload");
    EXPECT_EQ(back.failures[0].attempts, 2u);
    EXPECT_FALSE(back.failures[0].timedOut);
}

TEST(CoordRecord, DecodeRejectsMalformedPayloads)
{
    // Out-of-range failure index.
    EXPECT_THROW(
        decodeShardRecord(parseJson(
            R"({"shard":0,"results":[null],"failures":[{"index":5,)"
            R"("label":"","workload":"","error":"x","attempts":1,)"
            R"("timedOut":false}]})")),
        std::runtime_error);
    // Non-bool timedOut.
    EXPECT_THROW(
        decodeShardRecord(parseJson(
            R"({"shard":0,"results":[null],"failures":[{"index":0,)"
            R"("label":"","workload":"","error":"x","attempts":1,)"
            R"("timedOut":1}]})")),
        std::runtime_error);
    // Missing results member.
    EXPECT_THROW(decodeShardRecord(parseJson(R"({"shard":0})")),
                 std::runtime_error);
}

TEST(CoordMerge, RejectsDuplicateMissingAndMisshapenRecords)
{
    const std::vector<SweepPoint> points = testPoints();
    const ShardPlan plan = planShards(points, 3);
    std::vector<ShardRecord> records;
    for (u32 s = 0; s < plan.shards; ++s) {
        if (plan.members[s].empty())
            continue;
        ShardRecord r;
        r.shard = s;
        r.results.resize(plan.members[s].size());
        records.push_back(std::move(r));
    }
    // Well-formed merges cleanly.
    EXPECT_NO_THROW(mergeShards(plan, points.size(), records));

    // A record for every shard twice: double coverage.
    std::vector<ShardRecord> doubled = records;
    doubled.insert(doubled.end(), records.begin(), records.end());
    EXPECT_THROW(mergeShards(plan, points.size(), doubled),
                 std::runtime_error);

    // A missing shard: uncovered points.
    std::vector<ShardRecord> partial(records.begin(),
                                     records.end() - 1);
    EXPECT_THROW(mergeShards(plan, points.size(), partial),
                 std::runtime_error);

    // A record whose result count disagrees with the plan.
    std::vector<ShardRecord> misshapen = records;
    misshapen[0].results.pop_back();
    EXPECT_THROW(mergeShards(plan, points.size(), misshapen),
                 std::runtime_error);
}

// ---------------------------------------------------------------------
// The tentpole: sharded bytes == direct bytes
// ---------------------------------------------------------------------

TEST(CoordIdentity, ShardedExportMatchesDirectForAnyShardCount)
{
    const std::vector<SweepPoint> points = testPoints();
    const std::string direct = directExport(points);
    EvalService service(kSeeds, kScale, testOptions());
    for (u32 shards : {1u, 3u, 7u}) {
        const ShardPlan plan = planShards(points, shards);
        EXPECT_EQ(shardedExport(service, plan, points), direct)
            << "shards=" << shards;
    }
}

TEST(CoordIdentity, FailedPointsRenderIdenticallyThroughTheMerge)
{
    // A point that fails on the worker must come back through the
    // shard record as the same placeholder + failures-section bytes
    // the local engine would have produced.
    const std::vector<SweepPoint> points = testPoints(true);
    const std::string direct = directExport(points);
    ASSERT_NE(direct.find("\"failures\""), std::string::npos);
    EvalService service(kSeeds, kScale, testOptions());
    for (u32 shards : {1u, 3u}) {
        const ShardPlan plan = planShards(points, shards);
        EXPECT_EQ(shardedExport(service, plan, points), direct)
            << "shards=" << shards;
    }
}

TEST(CoordIdentity, RecordsRestoredFromManifestBytesMatchToo)
{
    // Resume path: shard records that took a detour through their
    // manifest encoding still merge to the same bytes.
    const std::vector<SweepPoint> points = testPoints(true);
    const std::string direct = directExport(points);
    EvalService service(kSeeds, kScale, testOptions());
    const ShardPlan plan = planShards(points, 3);
    std::vector<ShardRecord> records;
    for (u32 s = 0; s < plan.shards; ++s) {
        if (plan.members[s].empty())
            continue;
        const std::string request =
            std::string("{\"schema\":\"lva-rpc-v1\",\"op\":\"sweep\"") +
            ",\"driver\":\"coord_test\",\"shard\":" +
            std::to_string(s) + ",\"detail\":true,\"points\":" +
            pointsJson(points, plan.members[s]) + "}";
        const ShardRecord fresh = shardRecordFromResponse(
            parseJson(service.handle(request)), s,
            plan.members[s].size());
        records.push_back(
            decodeShardRecord(parseJson(encodeShardRecord(fresh))));
    }
    const SweepOutcome outcome =
        mergeShards(plan, points.size(), records);
    EXPECT_EQ(renderSweepStats("coord_test", points, outcome), direct);
}

// ---------------------------------------------------------------------
// Cross-process acceptance: a real fleet, real kills
// ---------------------------------------------------------------------

class CoordBinaryTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("lva_coord_" +
                std::to_string(static_cast<long>(getpid())) + "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        points_ = testPoints();
        std::ofstream(dir_ / "points.json")
            << pointsJson(points_, allIndices());
    }

    void
    TearDown() override
    {
        if (fleet_ > 0)
            reapFleet(SIGKILL);
        killStrayWorkers();
        fs::remove_all(dir_);
    }

    std::vector<u64>
    allIndices() const
    {
        std::vector<u64> all(points_.size());
        for (u64 i = 0; i < all.size(); ++i)
            all[i] = i;
        return all;
    }

    fs::path
    fleetLog(int n) const
    {
        return dir_ / ("fleet" + std::to_string(n) + ".log");
    }

    /** Every frontend's log plus the client's, for failure output. */
    std::string
    logs() const
    {
        std::string all = slurp(dir_ / "client.log");
        for (int n = 0; n < fleets_; ++n)
            all += slurp(fleetLog(n));
        return all;
    }

    /**
     * A killed frontend never tears its workers down (that is the
     * point of the kill test); SIGKILL every worker pid the
     * frontends announced.
     */
    void
    killStrayWorkers() const
    {
        const std::string needle = ") pid ";
        for (int n = 0; n < fleets_; ++n) {
            const std::string log = slurp(fleetLog(n));
            for (std::size_t at = log.find(needle);
                 at != std::string::npos;
                 at = log.find(needle, at + 1)) {
                const pid_t pid =
                    std::atoi(log.c_str() + at + needle.size());
                if (pid > 1)
                    kill(pid, SIGKILL);
            }
        }
    }

    /**
     * Fork+exec `lva_fleet --fleet 3` and wait for its port; @p fault
     * / @p fleetFault arm LVA_FAULT / LVA_FLEET_FAULT in the frontend.
     */
    void
    startFleet(const std::string &fault = "",
               const std::string &fleetFault = "")
    {
        const fs::path log = fleetLog(fleets_++);
        fleet_ = fork();
        ASSERT_GE(fleet_, 0);
        if (fleet_ == 0) {
            FILE *out = std::fopen(log.c_str(), "w");
            if (out) {
                dup2(fileno(out), STDOUT_FILENO);
                dup2(fileno(out), STDERR_FILENO);
            }
            setenv("LVA_SEEDS", "1", 1);
            setenv("LVA_SCALE", "0.02", 1);
            setenv("LVA_JOBS", "1", 1);
            setenv("LVA_RESULTS_DIR", (dir_ / "results").c_str(), 1);
            unsetenv("LVA_FAULT");
            unsetenv("LVA_FLEET_FAULT");
            if (!fault.empty())
                setenv("LVA_FAULT", fault.c_str(), 1);
            if (!fleetFault.empty())
                setenv("LVA_FLEET_FAULT", fleetFault.c_str(), 1);
            execl(LVA_FLEET_BINARY, "lva_fleet", "--port", "0",
                  "--fleet", "3", static_cast<char *>(nullptr));
            _exit(127);
        }
        const std::string needle = "lva_fleet: listening on 127.0.0.1:";
        for (int tries = 0; tries < 300 && port_ == 0; ++tries) {
            const std::string text = slurp(log);
            const std::size_t at = text.find(needle);
            if (at != std::string::npos &&
                text.find('\n', at) != std::string::npos)
                port_ = std::atoi(text.c_str() + at + needle.size());
            else
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
        }
        ASSERT_GT(port_, 0) << logs();
    }

    /** `lva_client sweep --shards 3 [--resume]`; its exit code. */
    int
    sweep(const std::string &out, bool resume) const
    {
        const std::string cmd =
            std::string("'") + LVA_CLIENT_BINARY + "' --port " +
            std::to_string(port_) +
            " sweep --driver coord_test --points '" +
            (dir_ / "points.json").string() + "' --out '" +
            (dir_ / out).string() + "' --shards 3" +
            (resume ? " --resume" : "") + " >> '" +
            (dir_ / "client.log").string() + "' 2>&1";
        const int status = std::system(cmd.c_str());
        if (status < 0 || !WIFEXITED(status))
            return -1;
        return WEXITSTATUS(status);
    }

    /**
     * Send @p sig (0 = none) to the frontend and reap it; returns its
     * exit code, or -signal when it was killed. A frontend still
     * running after 30 s is SIGKILLed, so a kill that never happened
     * fails the test instead of hanging it.
     */
    int
    reapFleet(int sig = 0)
    {
        if (sig != 0)
            kill(fleet_, sig);
        int status = 0;
        pid_t done = 0;
        for (int tries = 0; tries < 600 && done == 0; ++tries) {
            done = waitpid(fleet_, &status, WNOHANG);
            if (done == 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
        }
        if (done == 0) {
            kill(fleet_, SIGKILL);
            waitpid(fleet_, &status, 0);
        }
        fleet_ = -1;
        port_ = 0;
        if (WIFSIGNALED(status))
            return -WTERMSIG(status);
        return WEXITSTATUS(status);
    }

    fs::path dir_;
    std::vector<SweepPoint> points_;
    pid_t fleet_ = -1;
    int port_ = 0;
    int fleets_ = 0; ///< frontends started (one log each)
};

TEST_F(CoordBinaryTest, WorkerKillMidShardStillMatchesDirectBytes)
{
    // Every worker's first incarnation aborts on its first request:
    // each shard's first exchange dies mid-flight, and the fleet must
    // respawn its way to a complete, identical export.
    startFleet("", "*:serve.request.0=abort");
    EXPECT_EQ(sweep("out.json", false), 0) << logs();
    EXPECT_EQ(slurp(dir_ / "out.json"), directExport(points_));
    EXPECT_NE(slurp(fleetLog(0)).find("respawning"), std::string::npos)
        << logs();
    EXPECT_EQ(reapFleet(SIGTERM), 0) << logs();
}

TEST_F(CoordBinaryTest, CoordinatorKillThenResumeMatchesDirectBytes)
{
    // Kill the coordinating frontend at the gather of a shard that
    // provably has points (derived from the plan, not assumed): the
    // journal holds whatever completed first; a fresh fleet asked to
    // --resume finishes the rest and the bytes still match. The same
    // schedule also proves a *scatter* kill resumes, since
    // unscattered shards are simply absent.
    const ShardPlan plan = planShards(points_, 3);
    u32 victim = 0;
    for (u32 s = 0; s < plan.shards; ++s)
        if (!plan.members[s].empty())
            victim = s;
    startFleet("coord.gather." + std::to_string(victim) + "=abort");
    EXPECT_EQ(sweep("dead.json", false), 1) << logs();
    EXPECT_EQ(reapFleet(), faultExitCode()) << logs();
    EXPECT_FALSE(fs::exists(dir_ / "dead.json"));
    killStrayWorkers();

    startFleet();
    EXPECT_EQ(sweep("out.json", true), 0) << logs();
    EXPECT_EQ(slurp(dir_ / "out.json"), directExport(points_));
    EXPECT_EQ(reapFleet(SIGTERM), 0) << logs();
}

} // namespace
} // namespace lva
