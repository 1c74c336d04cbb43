/**
 * @file
 * In-process tests for the evaluation service (eval/service):
 * request decoding, dispatch, per-request isolation/retry with the
 * serve.request.<n> fault sites, the serve.* stats subtree, and the
 * ServeLoop's bounded queue, busy backpressure, disconnect tolerance
 * and drain behavior over real loopback sockets. The acceptance
 * criterion rides here too: a sweep answered by the service is
 * byte-identical to the direct driver export for jobs 1 and 4, with
 * concurrent clients.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "eval/service.hh"
#include "sim/machine_config.hh"
#include "util/fault.hh"
#include "util/net.hh"

namespace lva {
namespace {

/** Tiny-but-real evaluator settings so tests stay fast. */
constexpr u32 kSeeds = 1;
constexpr double kScale = 0.02;

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

JsonValue
parseResponse(const std::string &payload)
{
    JsonValue resp = parseJson(payload);
    EXPECT_TRUE(resp.isObject());
    EXPECT_EQ(resp.at("schema").asString(), rpcSchema());
    return resp;
}

bool
responseOk(const JsonValue &resp)
{
    const JsonValue &ok = resp.at("ok");
    return ok.type == JsonValue::Type::Bool && ok.boolean;
}

TEST(ServeConfig, DecodesEveryKnownKey)
{
    const JsonValue cfg = parseJson(
        "{\"mode\":\"lvp\",\"threads\":2,\"ghb\":2,\"lhb\":8,"
        "\"table\":1024,\"tableAssoc\":4,\"confidenceBits\":5,"
        "\"window\":0.2,\"confInts\":true,\"noConf\":false,"
        "\"proportional\":true,\"degree\":3,\"delay\":8,"
        "\"tagBits\":16,\"mantissaDrop\":6,\"estimator\":\"stride\","
        "\"prefetchDegree\":2}");
    const ApproxMemory::Config c = configFromJson(cfg);
    EXPECT_EQ(c.mode, MemMode::Lvp);
    EXPECT_EQ(c.threads, 2u);
    EXPECT_EQ(c.approx.ghbEntries, 2u);
    EXPECT_EQ(c.approx.lhbEntries, 8u);
    EXPECT_EQ(c.approx.tableEntries, 1024u);
    EXPECT_EQ(c.approx.tableAssoc, 4u);
    EXPECT_EQ(c.approx.confidenceBits, 5u);
    EXPECT_DOUBLE_EQ(c.approx.confidenceWindow, 0.2);
    EXPECT_TRUE(c.approx.confidenceForInts);
    EXPECT_FALSE(c.approx.confidenceDisabled);
    EXPECT_TRUE(c.approx.proportionalConfidence);
    EXPECT_EQ(c.approx.approxDegree, 3u);
    EXPECT_EQ(c.approx.valueDelay, 8u);
    EXPECT_EQ(c.approx.tagBits, 16u);
    EXPECT_EQ(c.approx.mantissaDropBits, 6u);
    EXPECT_EQ(c.approx.estimator, Estimator::Stride);
    EXPECT_EQ(c.prefetch.degree, 2u);
}

TEST(ServeConfig, InfiniteWindowAndPreciseBase)
{
    const ApproxMemory::Config inf_win =
        configFromJson(parseJson("{\"window\":\"inf\"}"));
    EXPECT_TRUE(std::isinf(inf_win.approx.confidenceWindow));

    const ApproxMemory::Config precise =
        configFromJson(parseJson("{\"base\":\"precise\"}"));
    EXPECT_EQ(precise.mode, MemMode::Precise);

    // "base" wins regardless of member order.
    const ApproxMemory::Config late_base = configFromJson(
        parseJson("{\"ghb\":2,\"base\":\"baseline\"}"));
    EXPECT_EQ(late_base.approx.ghbEntries, 2u);
}

TEST(ServeConfig, RejectsUnknownAndMistypedKeys)
{
    EXPECT_THROW(configFromJson(parseJson("{\"ghbb\":2}")),
                 std::runtime_error);
    EXPECT_THROW(configFromJson(parseJson("{\"mode\":\"turbo\"}")),
                 std::runtime_error);
    EXPECT_THROW(configFromJson(parseJson("{\"confInts\":1}")),
                 std::runtime_error);
    EXPECT_THROW(configFromJson(parseJson("{\"window\":\"huge\"}")),
                 std::runtime_error);
    EXPECT_THROW(configFromJson(parseJson("[1,2]")),
                 std::runtime_error);
}

TEST(ServeConfig, BoundsThreadsAndPrefetchDegree)
{
    // Both size allocations in the worker, so a hostile request must
    // not reach ApproxMemory or GhbPrefetcher with them.
    for (const char *bad :
         {"{\"threads\":0}", "{\"threads\":33}",
          "{\"threads\":4294967295}", "{\"prefetchDegree\":257}",
          "{\"prefetchDegree\":4294967295}"})
        EXPECT_THROW(configFromJson(parseJson(bad)), std::runtime_error)
            << bad;

    const ApproxMemory::Config widest = configFromJson(
        parseJson("{\"threads\":32,\"prefetchDegree\":256}"));
    EXPECT_EQ(widest.threads, 32u);
    EXPECT_EQ(widest.prefetch.degree, 256u);
    const ApproxMemory::Config none =
        configFromJson(parseJson("{\"prefetchDegree\":0}"));
    EXPECT_EQ(none.prefetch.degree, 0u);

    // On a heterogeneous machine the core count is fixed.
    ApproxMemory::Config hetero = Evaluator::baselineLva();
    hetero.threadApprox.assign(4, hetero.approx);
    EXPECT_THROW(configFromJson(parseJson("{\"threads\":2}"), hetero),
                 std::runtime_error);
    EXPECT_EQ(configFromJson(parseJson("{\"threads\":4}"), hetero).threads,
              4u);
}

TEST(ServeConfig, SweepPointsDecodeAndValidate)
{
    const std::vector<SweepPoint> points = sweepPointsFromJson(
        parseJson("[{\"label\":\"a\",\"workload\":\"canneal\"},"
                  "{\"label\":\"b\",\"workload\":\"ferret\","
                  "\"config\":{\"ghb\":4}}]"));
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].label, "a");
    EXPECT_EQ(points[0].config.approx.ghbEntries, 0u);
    EXPECT_EQ(points[1].workload, "ferret");
    EXPECT_EQ(points[1].config.approx.ghbEntries, 4u);

    EXPECT_THROW(sweepPointsFromJson(parseJson("{}")),
                 std::runtime_error);
    EXPECT_THROW(
        sweepPointsFromJson(parseJson("[{\"workload\":\"x\"}]")),
        std::runtime_error);
    EXPECT_THROW(sweepPointsFromJson(parseJson(
                     "[{\"label\":\"a\",\"workload\":\"x\","
                     "\"cfg\":{}}]")),
                 std::runtime_error);
}

TEST(ServeService, PingReportsConfiguration)
{
    EvalService service(kSeeds, kScale, testOptions());
    const JsonValue resp = parseResponse(service.handle(
        "{\"schema\":\"lva-rpc-v1\",\"op\":\"ping\"}"));
    EXPECT_TRUE(responseOk(resp));
    EXPECT_EQ(resp.at("op").asString(), "ping");
    EXPECT_EQ(resp.at("jobs").asU64(), 1u);
    EXPECT_EQ(resp.at("seeds").asU64(), kSeeds);
}

TEST(ServeService, MalformedRequestsAreErrorsNotThrows)
{
    EvalService service(kSeeds, kScale, testOptions());
    const char *bad[] = {
        "this is not json",
        "[1,2,3]",
        "{\"noop\":true}",
        "{\"op\":\"warp\"}",
        "{\"schema\":\"lva-rpc-v2\",\"op\":\"ping\"}",
        "{\"op\":\"sweep\",\"driver\":\"d\",\"points\":[]}",
        "{\"op\":\"eval\"}",
    };
    for (const char *req : bad) {
        const JsonValue resp = parseResponse(service.handle(req));
        EXPECT_FALSE(responseOk(resp)) << req;
        EXPECT_NE(resp.at("error").asString(), "") << req;
    }
    EXPECT_EQ(service.stats().snapshot().valueOf("serve.errors"),
              static_cast<double>(std::size(bad)));
    EXPECT_EQ(service.stats().snapshot().valueOf("serve.requests"),
              static_cast<double>(std::size(bad)));
}

TEST(ServeService, ShutdownLatchesTheFlag)
{
    EvalService service(kSeeds, kScale, testOptions());
    EXPECT_FALSE(service.shutdownRequested());
    const JsonValue resp =
        parseResponse(service.handle("{\"op\":\"shutdown\"}"));
    EXPECT_TRUE(responseOk(resp));
    EXPECT_TRUE(service.shutdownRequested());
}

TEST(ServeService, StatsOpExportsTheServeSubtree)
{
    EvalService service(kSeeds, kScale, testOptions());
    (void)service.handle("{\"op\":\"ping\"}");
    const JsonValue resp =
        parseResponse(service.handle("{\"op\":\"stats\"}"));
    ASSERT_TRUE(responseOk(resp));
    const JsonValue &serve = resp.at("serve");
    ASSERT_TRUE(serve.isObject());
    EXPECT_EQ(serve.at("serve.requests").at("value").asU64(), 2u);
    EXPECT_NE(serve.find("serve.queueDepth"), nullptr);
    EXPECT_NE(serve.find("serve.rejects"), nullptr);
}

TEST(ServeService, InjectedRequestFaultIsIsolated)
{
    setFaultSpecForTest("serve.request.0=throw");
    EvalService service(kSeeds, kScale, testOptions());
    const JsonValue failed =
        parseResponse(service.handle("{\"op\":\"ping\"}"));
    EXPECT_FALSE(responseOk(failed));

    // The daemon keeps serving: the next request (index 1) is fine.
    const JsonValue ok =
        parseResponse(service.handle("{\"op\":\"ping\"}"));
    EXPECT_TRUE(responseOk(ok));
    setFaultSpecForTest("");

    const StatSnapshot snap = service.stats().snapshot();
    EXPECT_EQ(snap.valueOf("serve.failures"), 1.0);
    EXPECT_EQ(snap.valueOf("serve.errors"), 1.0);
}

TEST(ServeService, TransientRequestFaultIsRetried)
{
    setFaultSpecForTest("serve.request.0=throw@first1");
    ServeOptions opts = testOptions();
    opts.maxAttempts = 2;
    EvalService service(kSeeds, kScale, opts);
    const JsonValue resp =
        parseResponse(service.handle("{\"op\":\"ping\"}"));
    EXPECT_TRUE(responseOk(resp));
    setFaultSpecForTest("");

    const StatSnapshot snap = service.stats().snapshot();
    EXPECT_EQ(snap.valueOf("serve.retries"), 1.0);
    EXPECT_EQ(snap.valueOf("serve.failures"), 0.0);
}

/** points for a small two-workload, two-config sweep. */
const char *kSweepPoints =
    "[{\"label\":\"ghb-0\",\"workload\":\"swaptions\","
    "\"config\":{\"ghb\":0}},"
    "{\"label\":\"ghb-2\",\"workload\":\"swaptions\","
    "\"config\":{\"ghb\":2}},"
    "{\"label\":\"ghb-0\",\"workload\":\"blackscholes\","
    "\"config\":{\"ghb\":0}},"
    "{\"label\":\"ghb-2\",\"workload\":\"blackscholes\","
    "\"config\":{\"ghb\":2}}]";

/** The same sweep run directly, as a bench driver would. */
std::string
directExport(u32 jobs)
{
    std::vector<SweepPoint> points;
    for (const char *name : {"swaptions", "blackscholes"}) {
        for (u32 ghb : {0u, 2u}) {
            ApproxMemory::Config cfg = Evaluator::baselineLva();
            cfg.editApprox(
                [&](ApproximatorConfig &a) { a.ghbEntries = ghb; });
            points.push_back(
                {"ghb-" + std::to_string(ghb), name, cfg});
        }
    }
    Evaluator eval(kSeeds, kScale);
    SweepRunner runner(eval, jobs);
    SweepOptions opts;
    opts.driver = "serve_test";
    const SweepOutcome outcome = runner.runChecked(points, opts);
    EXPECT_TRUE(outcome.ok());
    return renderSweepStats("serve_test", points, outcome);
}

class ServeIdentityTest : public ::testing::TestWithParam<u32>
{
};

TEST_P(ServeIdentityTest, ServedSweepMatchesDirectExportBytes)
{
    const u32 jobs = GetParam();
    ServeOptions opts = testOptions();
    opts.jobs = jobs;
    EvalService service(kSeeds, kScale, opts);
    ServeLoop loop(service, opts);
    std::thread server([&] { loop.run(); });

    const std::string request =
        std::string("{\"schema\":\"lva-rpc-v1\",\"op\":\"sweep\","
                    "\"driver\":\"serve_test\",\"points\":") +
        kSweepPoints + "}";

    // Two concurrent clients submit the same sweep; both must get
    // the exact bytes the direct driver would export.
    std::vector<std::string> exports(2);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < exports.size(); ++c) {
        clients.emplace_back([&, c] {
            TcpStream conn = TcpStream::connectTo(
                "127.0.0.1", loop.port(), 5000);
            writeFrame(conn, request, 5000);
            std::string payload;
            ASSERT_TRUE(readFrame(conn, payload, 120000));
            const JsonValue resp = parseResponse(payload);
            ASSERT_TRUE(responseOk(resp));
            EXPECT_EQ(resp.at("failures").asU64(), 0u);
            exports[c] = resp.at("export").asString();
        });
    }
    for (auto &t : clients)
        t.join();
    loop.requestStop();
    server.join();

    const std::string direct = directExport(jobs);
    EXPECT_EQ(exports[0], direct);
    EXPECT_EQ(exports[1], direct);
}

INSTANTIATE_TEST_SUITE_P(Jobs, ServeIdentityTest,
                         ::testing::Values(1u, 4u));

TEST(ServeMachine, ExplicitDefaultMachineMatchesMachinelessExport)
{
    // PR 10: a request embedding the built-in machine as an explicit
    // "machine" object — exactly what lva_client --machine sends —
    // must export the same bytes as the machine-less request.
    EvalService service(kSeeds, kScale, testOptions());
    const std::string base =
        std::string("\"op\":\"sweep\",\"driver\":\"serve_test\","
                    "\"points\":") +
        kSweepPoints;
    const JsonValue without = parseResponse(
        service.handle("{\"schema\":\"lva-rpc-v1\"," + base + "}"));
    const JsonValue with = parseResponse(
        service.handle("{\"schema\":\"lva-rpc-v1\"," + base +
                       ",\"machine\":" +
                       renderMachineJson(defaultMachine()) + "}"));
    ASSERT_TRUE(responseOk(without));
    ASSERT_TRUE(responseOk(with));
    EXPECT_EQ(with.at("export").asString(),
              without.at("export").asString());
}

TEST(ServeService, PlainDaemonAnswersAShardedSweepUnsharded)
{
    // "shards" / "resume" are lva_fleet's members; sent to a single
    // daemon they are ignored and the export is the unsharded one.
    EvalService service(kSeeds, kScale, testOptions());
    const std::string base =
        std::string("{\"schema\":\"lva-rpc-v1\",\"op\":\"sweep\","
                    "\"driver\":\"serve_test\",\"points\":") +
        kSweepPoints;
    const JsonValue plain = parseResponse(service.handle(base + "}"));
    const JsonValue sharded = parseResponse(
        service.handle(base + ",\"shards\":3,\"resume\":true}"));
    ASSERT_TRUE(responseOk(plain));
    ASSERT_TRUE(responseOk(sharded));
    EXPECT_EQ(sharded.at("export").asString(),
              plain.at("export").asString());
    EXPECT_EQ(sharded.at("resumed").asU64(), 0u);
}

TEST(ServeMachine, BadMachineObjectIsAnErrorResponseNotAThrow)
{
    EvalService service(kSeeds, kScale, testOptions());
    const JsonValue resp = parseResponse(service.handle(
        "{\"schema\":\"lva-rpc-v1\",\"op\":\"eval\","
        "\"workload\":\"swaptions\","
        "\"machine\":{\"schema\":\"lva-machine-v1\",\"cores\":0}}"));
    EXPECT_FALSE(responseOk(resp));
    EXPECT_NE(resp.at("error").asString().find("cores"),
              std::string::npos);
}

TEST(ServeLoopTest, BusyBackpressureAtQueueCapacity)
{
    ServeOptions opts = testOptions();
    opts.workers = 1;
    opts.queueCap = 1;
    EvalService service(kSeeds, kScale, opts);
    ServeLoop loop(service, opts);
    std::thread server([&] { loop.run(); });

    // First connection occupies the single handler (which blocks in
    // readFrame waiting for a request), the second fills the queue,
    // so the third must be answered `busy` and closed.
    TcpStream held =
        TcpStream::connectTo("127.0.0.1", loop.port(), 5000);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    TcpStream queued =
        TcpStream::connectTo("127.0.0.1", loop.port(), 5000);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    TcpStream refused =
        TcpStream::connectTo("127.0.0.1", loop.port(), 5000);

    std::string payload;
    ASSERT_TRUE(readFrame(refused, payload, 5000));
    const JsonValue busy = parseResponse(payload);
    EXPECT_FALSE(responseOk(busy));
    EXPECT_TRUE(busy.at("busy").boolean);
    // The shed response tells the client exactly how long to back
    // off; lva_client honors it (tests/serve_daemon_test.cc).
    EXPECT_EQ(busy.at("retryAfterMs").asU64(), busyRetryAfterMs());

    // Releasing the held connection lets the queued one be served.
    held.close();
    writeFrame(queued, "{\"op\":\"ping\"}", 5000);
    ASSERT_TRUE(readFrame(queued, payload, 5000));
    EXPECT_TRUE(responseOk(parseResponse(payload)));

    loop.requestStop();
    server.join();
    EXPECT_GE(service.stats().snapshot().valueOf("serve.rejects"),
              1.0);
}

TEST(ServeLoopTest, MidRequestDisconnectLeavesServerServing)
{
    ServeOptions opts = testOptions();
    EvalService service(kSeeds, kScale, opts);
    ServeLoop loop(service, opts);
    std::thread server([&] { loop.run(); });

    // A client that promises a 64-byte payload, sends half of it,
    // and vanishes: the handler sees a torn frame and must close
    // that connection only.
    {
        TcpStream torn =
            TcpStream::connectTo("127.0.0.1", loop.port(), 5000);
        const unsigned char hdr[8] = {'L', 'V', 'A', '1', 0, 0, 0, 64};
        torn.sendAll(hdr, sizeof(hdr), 1000);
        torn.sendAll("half a payload", 14, 1000);
    } // closed here, mid-frame

    TcpStream conn =
        TcpStream::connectTo("127.0.0.1", loop.port(), 5000);
    writeFrame(conn, "{\"op\":\"ping\"}", 5000);
    std::string payload;
    ASSERT_TRUE(readFrame(conn, payload, 5000));
    EXPECT_TRUE(responseOk(parseResponse(payload)));

    loop.requestStop();
    server.join();
}

TEST(ServeLoopTest, ShutdownRequestDrainsTheLoop)
{
    ServeOptions opts = testOptions();
    EvalService service(kSeeds, kScale, opts);
    ServeLoop loop(service, opts);
    std::thread server([&] { loop.run(); });

    TcpStream conn =
        TcpStream::connectTo("127.0.0.1", loop.port(), 5000);
    writeFrame(conn, "{\"op\":\"shutdown\"}", 5000);
    std::string payload;
    ASSERT_TRUE(readFrame(conn, payload, 5000));
    EXPECT_TRUE(responseOk(parseResponse(payload)));

    server.join(); // run() must return on its own
    EXPECT_TRUE(service.shutdownRequested());
}

/** A served sweep of kSweepPoints under driver "serve_test". */
JsonValue
servedSweep(EvalService &service)
{
    return parseResponse(service.handle(
        std::string("{\"schema\":\"lva-rpc-v1\",\"op\":\"sweep\","
                    "\"driver\":\"serve_test\",\"points\":") +
        kSweepPoints + "}"));
}

TEST(ServeService, ServedSweepsIgnoreTheCheckpointKnobs)
{
    // LVA_CHECKPOINT / LVA_RESUME belong to batch drivers: the service
    // neither clears them from the process nor writes a manifest.
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() /
        ("lva_serve_ckpt_" + std::to_string(static_cast<long>(getpid())));
    fs::remove_all(dir);
    setenv("LVA_RESULTS_DIR", dir.c_str(), 1);
    setenv("LVA_CHECKPOINT", "1", 1);
    setenv("LVA_RESUME", "1", 1);
    EvalService service(kSeeds, kScale, testOptions());
    EXPECT_STREQ(std::getenv("LVA_CHECKPOINT"), "1");
    EXPECT_STREQ(std::getenv("LVA_RESUME"), "1");
    const JsonValue resp = servedSweep(service);
    EXPECT_TRUE(responseOk(resp));
    EXPECT_EQ(resp.at("resumed").asU64(), 0u);
    EXPECT_FALSE(fs::exists(dir / "checkpoints"));
    unsetenv("LVA_CHECKPOINT");
    unsetenv("LVA_RESUME");
    unsetenv("LVA_RESULTS_DIR");
    fs::remove_all(dir);
}

TEST(ServeService, PointAttemptsRecoverATransientPointFault)
{
    // lva_served hands in 1 + LVA_RETRIES attempts per sweep point.
    setFaultSpecForTest("sweep.point.0=throw@first1");
    EvalService once(kSeeds, kScale, testOptions());
    EXPECT_EQ(servedSweep(once).at("failures").asU64(), 1u);

    setFaultSpecForTest("sweep.point.0=throw@first1");
    EvalService retried(kSeeds, kScale, testOptions(), 2);
    EXPECT_EQ(servedSweep(retried).at("failures").asU64(), 0u);
    setFaultSpecForTest("");
}

TEST(ServeStatsTest, StatsOpExportsTheCacheSubtree)
{
    ServeOptions opts = testOptions();
    opts.cacheCap = 8;
    EvalService service(kSeeds, kScale, opts);
    (void)service.handle("{\"op\":\"eval\",\"workload\":\"swaptions\","
                         "\"config\":{\"ghb\":2}}");
    const JsonValue resp =
        parseResponse(service.handle("{\"op\":\"stats\"}"));
    ASSERT_TRUE(responseOk(resp));
    const JsonValue &serve = resp.at("serve");
    EXPECT_GE(serve.at("serve.cache.builds").at("value").asU64(), 1u);
    EXPECT_GE(serve.at("serve.cache.misses").at("value").asU64(), 1u);
    EXPECT_EQ(serve.at("serve.cache.capacity").at("value").asU64(),
              8u);
    EXPECT_NE(serve.find("serve.cache.hits"), nullptr);
    EXPECT_NE(serve.find("serve.cache.coalesced"), nullptr);
    EXPECT_NE(serve.find("serve.cache.evictions"), nullptr);
    EXPECT_NE(serve.find("serve.cache.size"), nullptr);
}

TEST(FleetRouting, RouteKeysFollowTheWorkloadSet)
{
    EXPECT_EQ(fleetRouteKey("{\"op\":\"eval\","
                            "\"workload\":\"canneal\"}"),
              "canneal");
    // Sweep keys are the sorted, deduplicated workload set: point
    // order and config differences never change the shard.
    const std::string key = fleetRouteKey(
        "{\"op\":\"sweep\",\"driver\":\"d\",\"points\":"
        "[{\"label\":\"a\",\"workload\":\"ferret\"},"
        "{\"label\":\"b\",\"workload\":\"canneal\"},"
        "{\"label\":\"c\",\"workload\":\"ferret\"}]}");
    EXPECT_EQ(key, "canneal,ferret");
    EXPECT_EQ(fleetRouteKey("{\"op\":\"ping\"}"), "op:ping");
    EXPECT_EQ(fleetRouteKey("not json at all"), "op:invalid");
}

TEST(FleetRouting, RendezvousHashIsStableAndConsistent)
{
    // Deterministic: the same key always lands on the same shard, and
    // the shard is always in range.
    for (int i = 0; i < 100; ++i) {
        const std::string key = "workload-" + std::to_string(i);
        const u32 s = fleetShard(key, 3);
        EXPECT_LT(s, 3u);
        EXPECT_EQ(s, fleetShard(key, 3));
    }

    // The consistent-hash property: removing the highest shard only
    // remaps keys that lived there; everything else stays put. That
    // is what keeps sibling worker caches hot when the fleet shrinks
    // or a worker is respawned.
    int moved = 0;
    for (int i = 0; i < 100; ++i) {
        const std::string key = "workload-" + std::to_string(i);
        const u32 with3 = fleetShard(key, 3);
        const u32 with2 = fleetShard(key, 2);
        if (with3 < 2)
            EXPECT_EQ(with2, with3) << key;
        else
            ++moved;
    }
    EXPECT_GT(moved, 0); // shard 2 did own some keys
}

} // namespace
} // namespace lva
