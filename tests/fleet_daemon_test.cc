/**
 * @file
 * Cross-process acceptance tests for the lva_fleet frontend: real
 * forked processes, real sockets, real kills. Pins ISSUE 7's
 * scale-out criteria — a fleet of any size answers sweep requests
 * with bytes identical to the direct driver export, a worker killed
 * by an injected fault is respawned and the rerouted request still
 * matches, and SIGTERM / `shutdown` drain the whole tree cleanly.
 * Sharded sweeps ("shards": N) get their outside-input checks here
 * too, and the rule that two of them never run at once.
 *
 * Binary paths arrive via the LVA_FLEET_BINARY / LVA_CLIENT_BINARY
 * compile definitions; the worker binary is discovered by the
 * frontend itself (sibling lva_served).
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

#include "eval/evaluator.hh"
#include "eval/sweep.hh"
#include "util/checkpoint.hh"
#include "util/net.hh"

namespace lva {
namespace {

namespace fs = std::filesystem;

constexpr u32 kSeeds = 1;
constexpr double kScale = 0.02;

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

std::string
slurp(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

int
runCommand(const std::string &cmd)
{
    const int status = std::system(cmd.c_str());
    if (status < 0 || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

/** The same sweep run directly, as a bench driver would export it. */
std::string
directExport()
{
    std::vector<SweepPoint> points;
    for (const char *name : {"swaptions", "blackscholes"}) {
        for (u32 ghb : {0u, 2u}) {
            ApproxMemory::Config cfg = Evaluator::baselineLva();
            cfg.approx.ghbEntries = ghb;
            points.push_back(
                {"ghb-" + std::to_string(ghb), name, cfg});
        }
    }
    Evaluator eval(kSeeds, kScale);
    SweepRunner runner(eval, 1);
    SweepOptions opts;
    opts.driver = "fleet_daemon_test";
    const SweepOutcome outcome = runner.runChecked(points, opts);
    EXPECT_TRUE(outcome.ok());
    return renderSweepStats("fleet_daemon_test", points, outcome);
}

class FleetDaemonTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("lva_fleet_" +
                std::to_string(static_cast<long>(getpid())) + "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        log_ = dir_ / "fleet.log";
        std::ofstream(dir_ / "points.json") << kSweepPoints;
    }

    void
    TearDown() override
    {
        if (pid_ > 0) { // a test failed before reaping: clean up
            kill(pid_, SIGKILL);
            int status = 0;
            waitpid(pid_, &status, 0);
        }
        fs::remove_all(dir_);
    }

    /** Fork+exec the frontend; stdout/stderr land in log_. */
    void
    startFleet(int fleet, const std::string &fleetFault = "",
               const std::string &cache = "",
               const std::string &fault = "")
    {
        pid_ = fork();
        ASSERT_GE(pid_, 0);
        if (pid_ == 0) {
            FILE *log = std::fopen(log_.string().c_str(), "w");
            if (log) {
                dup2(fileno(log), STDOUT_FILENO);
                dup2(fileno(log), STDERR_FILENO);
            }
            setenv("LVA_SEEDS", "1", 1);
            setenv("LVA_SCALE", "0.02", 1);
            setenv("LVA_JOBS", "1", 1);
            setenv("LVA_RESULTS_DIR", (dir_ / "results").c_str(), 1);
            if (!fault.empty())
                setenv("LVA_FAULT", fault.c_str(), 1);
            if (!fleetFault.empty())
                setenv("LVA_FLEET_FAULT", fleetFault.c_str(), 1);
            const std::string n = std::to_string(fleet);
            if (cache.empty())
                execl(LVA_FLEET_BINARY, "lva_fleet", "--port", "0",
                      "--fleet", n.c_str(),
                      static_cast<char *>(nullptr));
            else
                execl(LVA_FLEET_BINARY, "lva_fleet", "--port", "0",
                      "--fleet", n.c_str(), "--cache", cache.c_str(),
                      static_cast<char *>(nullptr));
            _exit(127); // exec failed
        }
        port_ = waitForPort();
        ASSERT_GT(port_, 0) << slurp(log_);
    }

    /**
     * Parse the *frontend's* announced port out of the log (the
     * worker lines carry ports too, but those go to the workers'
     * pipes, not this log). Retries ~15s: the frontend only
     * announces after every worker booted.
     */
    int
    waitForPort() const
    {
        for (int tries = 0; tries < 300; ++tries) {
            const std::string log = slurp(log_);
            const std::size_t at = log.find("lva_fleet: listening on ");
            if (at != std::string::npos) {
                const std::size_t colon = log.find(':', at + 24);
                if (colon != std::string::npos)
                    return std::atoi(log.c_str() + colon + 1);
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        }
        return 0;
    }

    /**
     * Parse worker @p index's pid from its spawn announcement
     * ("lva_fleet: worker N (incarnation 0) pid P on ..."), waiting
     * for the line to appear. Returns -1 when it never does.
     */
    pid_t
    workerPid(int index) const
    {
        const std::string needle = "worker " + std::to_string(index) +
                                   " (incarnation 0) pid ";
        for (int tries = 0; tries < 100; ++tries) {
            const std::string log = slurp(log_);
            const std::size_t at = log.find(needle);
            if (at != std::string::npos)
                return std::atoi(log.c_str() + at + needle.size());
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        }
        return -1;
    }

    int
    client(const std::string &args) const
    {
        return runCommand(std::string("'") + LVA_CLIENT_BINARY +
                          "' --port " + std::to_string(port_) + " " +
                          args + " >> '" +
                          (dir_ / "client.log").string() + "' 2>&1");
    }

    int
    sweepToFile(const std::string &out) const
    {
        return client("sweep --driver fleet_daemon_test --points '" +
                      (dir_ / "points.json").string() + "' --out '" +
                      (dir_ / out).string() + "'");
    }

    /** One raw lva-rpc-v1 exchange with the frontend. */
    JsonValue
    rpc(const std::string &request) const
    {
        TcpStream conn = TcpStream::connectTo(
            "127.0.0.1", static_cast<u16>(port_), 60000);
        writeFrame(conn, request, 60000);
        std::string response;
        EXPECT_TRUE(readFrame(conn, response, 60000));
        return parseJson(response);
    }

    /** Reap the frontend; returns its exit code (-1 = abnormal). */
    int
    reap()
    {
        int status = 0;
        waitpid(pid_, &status, 0);
        pid_ = -1;
        if (!WIFEXITED(status))
            return -1;
        return WEXITSTATUS(status);
    }

    fs::path dir_;
    fs::path log_;
    pid_t pid_ = -1;
    int port_ = 0;
};

TEST_F(FleetDaemonTest, ServesPingAndDrainsOnSigterm)
{
    startFleet(2);
    EXPECT_EQ(client("ping"), 0) << slurp(dir_ / "client.log");
    kill(pid_, SIGTERM);
    EXPECT_EQ(reap(), 0) << slurp(log_);
    EXPECT_NE(slurp(log_).find("drained, exiting"),
              std::string::npos);
}

/** @p pid's virtual address-space size in kB (VmSize), or 0. */
long
vmSizeKb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmSize:", 0) == 0)
            return std::atol(line.c_str() + 7);
    return 0;
}

TEST_F(FleetDaemonTest, FinishedConnectionsReleaseTheirRelayThreads)
{
    // Each connection gets a relay thread with its own stack mapping
    // (8 MB by default). Finished relays must be joined while the
    // fleet keeps serving, not only at shutdown, or its address space
    // grows with every client it has ever had.
    startFleet(1);
    const std::string ping =
        "{\"schema\":\"lva-rpc-v1\",\"op\":\"ping\"}";
    EXPECT_TRUE(rpc(ping).at("ok").boolean);
    const long before = vmSizeKb(pid_);
    ASSERT_GT(before, 0);
    for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(rpc(ping).at("ok").boolean) << "ping " << i;
    const long grownMb = (vmSizeKb(pid_) - before) / 1024;
    // 100 unjoined relays hold ~800 MB of stacks.
    EXPECT_LT(grownMb, 200) << "VmSize grew by " << grownMb << " MB";
    kill(pid_, SIGTERM);
    EXPECT_EQ(reap(), 0) << slurp(log_);
}

TEST_F(FleetDaemonTest, SweepMatchesDirectExportBytes)
{
    // A squeezed per-worker cache (1 entry, 2 workloads in the sweep)
    // forces evictions mid-request; the bytes must not care.
    startFleet(3, "", "1");
    ASSERT_EQ(sweepToFile("out.json"), 0)
        << slurp(dir_ / "client.log") << slurp(log_);
    EXPECT_EQ(slurp(dir_ / "out.json"), directExport());
    kill(pid_, SIGTERM);
    EXPECT_EQ(reap(), 0) << slurp(log_);
}

TEST_F(FleetDaemonTest, KilledWorkerIsRespawnedWithIdenticalBytes)
{
    // Every worker's first incarnation aborts on its first request:
    // whichever worker the sweep routes to dies mid-request, the
    // frontend respawns it, retries, and the client still gets the
    // exact direct-driver bytes.
    startFleet(2, "*:serve.request.0=abort");
    ASSERT_EQ(sweepToFile("out.json"), 0)
        << slurp(dir_ / "client.log") << slurp(log_);
    EXPECT_EQ(slurp(dir_ / "out.json"), directExport());
    EXPECT_NE(slurp(log_).find("respawning"), std::string::npos);

    // The respawned worker serves follow-up traffic normally.
    EXPECT_EQ(sweepToFile("out2.json"), 0);
    EXPECT_EQ(slurp(dir_ / "out2.json"), directExport());

    kill(pid_, SIGTERM);
    EXPECT_EQ(reap(), 0) << slurp(log_);
}

TEST_F(FleetDaemonTest, ConcurrentClientsGetIdenticalBytes)
{
    startFleet(3);
    std::vector<int> rc(2, -2);
    std::vector<std::thread> clients;
    for (int c = 0; c < 2; ++c)
        clients.emplace_back([&, c] {
            rc[static_cast<std::size_t>(c)] =
                sweepToFile("out" + std::to_string(c) + ".json");
        });
    for (auto &t : clients)
        t.join();
    ASSERT_EQ(rc[0], 0) << slurp(dir_ / "client.log");
    ASSERT_EQ(rc[1], 0) << slurp(dir_ / "client.log");
    const std::string direct = directExport();
    EXPECT_EQ(slurp(dir_ / "out0.json"), direct);
    EXPECT_EQ(slurp(dir_ / "out1.json"), direct);
    kill(pid_, SIGTERM);
    EXPECT_EQ(reap(), 0) << slurp(log_);
}

/** A sweep request for @p driver with extra @p members. */
std::string
sweepRequest(const std::string &driver, const std::string &members,
             const std::string &points = kSweepPoints)
{
    return "{\"schema\":\"lva-rpc-v1\",\"op\":\"sweep\",\"driver\":\"" +
           driver + "\"" + members + ",\"points\":" + points + "}";
}

TEST_F(FleetDaemonTest, ShardedSweepRejectsBadMembersAndKeepsServing)
{
    // Outside input: each malformed sharded sweep is answered
    // ok:false and the frontend keeps serving.
    startFleet(2);
    const struct
    {
        const char *driver;
        const char *members;
        const char *points;
        const char *error; ///< substring of the error message
    } bad[] = {
        {"fleet_daemon_test", ",\"shards\":0", kSweepPoints, "shards"},
        {"fleet_daemon_test", ",\"shards\":4097", kSweepPoints, "shards"},
        {"fleet_daemon_test", ",\"shards\":-1", kSweepPoints, "shards"},
        {"fleet_daemon_test", ",\"shards\":1.5", kSweepPoints, "shards"},
        {"fleet_daemon_test", ",\"shards\":\"3\"", kSweepPoints, "shards"},
        {"fleet_daemon_test", ",\"shards\":null", kSweepPoints, "shards"},
        {"fleet_daemon_test", ",\"shards\":2,\"resume\":\"yes\"",
         kSweepPoints, "resume"},
        {"fleet_daemon_test", ",\"shards\":2,\"resume\":1", kSweepPoints,
         "resume"},
        {"fleet_daemon_test", ",\"shards\":2",
         "[{\"label\":\"x\",\"workload\":\"swaptions\","
         "\"config\":{\"turbo\":1}}]",
         "turbo"},
        {"fleet_daemon_test", ",\"shards\":2",
         "[{\"label\":\"x\",\"colour\":1}]", "colour"},
        {"fleet_daemon_test", ",\"shards\":2", "{\"label\":\"x\"}",
         "array"},
        {"fleet_daemon_test", ",\"shards\":2", "[]", "no points"},
        {"../escape", ",\"shards\":2", kSweepPoints, "driver"},
    };
    for (const auto &b : bad) {
        const JsonValue resp =
            rpc(sweepRequest(b.driver, b.members, b.points));
        SCOPED_TRACE(std::string(b.members) + " " + b.points);
        EXPECT_EQ(resp.at("ok").boolean, false);
        EXPECT_NE(resp.at("error").asString().find(b.error),
                  std::string::npos)
            << resp.at("error").asString();
    }
    EXPECT_FALSE(fs::exists(dir_ / "results" / "escape.coord.jsonl"));

    // Still serving: a well-formed sharded sweep answers the export.
    const JsonValue ok =
        rpc(sweepRequest("fleet_daemon_test", ",\"shards\":2"));
    ASSERT_TRUE(ok.at("ok").boolean) << slurp(log_);
    EXPECT_EQ(ok.at("export").asString(), directExport());
    EXPECT_EQ(ok.at("resumed").asU64(), 0u);
    kill(pid_, SIGTERM);
    EXPECT_EQ(reap(), 0) << slurp(log_);
}

TEST_F(FleetDaemonTest, ConcurrentShardedClientsGetIdenticalBytes)
{
    // Sharded sweeps of one driver share one journal file, so the
    // frontend runs them one at a time; both clients still get the
    // direct-driver bytes. Every shard gather is held for 800 ms, so
    // two sweeps that never overlap take at least 1.6 s.
    startFleet(3, "", "", "coord.gather.*=delay:800");
    const auto start = std::chrono::steady_clock::now();
    std::vector<int> rc(2, -2);
    std::vector<std::thread> clients;
    for (int c = 0; c < 2; ++c)
        clients.emplace_back([&, c] {
            rc[static_cast<std::size_t>(c)] = client(
                "sweep --driver fleet_daemon_test --shards 3 --points '" +
                (dir_ / "points.json").string() + "' --out '" +
                (dir_ / ("out" + std::to_string(c) + ".json")).string() +
                "'");
        });
    for (auto &t : clients)
        t.join();
    EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count(),
              1600);
    ASSERT_EQ(rc[0], 0) << slurp(dir_ / "client.log") << slurp(log_);
    ASSERT_EQ(rc[1], 0) << slurp(dir_ / "client.log") << slurp(log_);
    const std::string direct = directExport();
    EXPECT_EQ(slurp(dir_ / "out0.json"), direct);
    EXPECT_EQ(slurp(dir_ / "out1.json"), direct);

    // A resumed sweep restores every journaled point.
    const JsonValue resumed = rpc(sweepRequest(
        "fleet_daemon_test", ",\"shards\":3,\"resume\":true"));
    ASSERT_TRUE(resumed.at("ok").boolean) << slurp(log_);
    EXPECT_EQ(resumed.at("export").asString(), direct);
    EXPECT_EQ(resumed.at("resumed").asU64(), 4u);
    kill(pid_, SIGTERM);
    EXPECT_EQ(reap(), 0) << slurp(log_);
}

TEST_F(FleetDaemonTest, ShutdownRequestEndsTheWholeTree)
{
    startFleet(2);
    EXPECT_EQ(client("shutdown"), 0) << slurp(dir_ / "client.log");
    EXPECT_EQ(reap(), 0) << slurp(log_);
    EXPECT_NE(slurp(log_).find("drained, exiting"),
              std::string::npos);
}

TEST_F(FleetDaemonTest, HungWorkerIsKilledWithinTheDrainDeadline)
{
    // A worker that stops responding (SIGSTOP stands in for a wedged
    // process) must not hang the frontend's exit forever: the drain's
    // bounded reap escalates to SIGKILL after its deadline and the
    // frontend still exits 0. The old drain called waitpid(pid, .., 0)
    // unconditionally, which blocked until the heat death of the
    // stopped worker.
    startFleet(1);
    const pid_t worker = workerPid(0);
    ASSERT_GT(worker, 0) << slurp(log_);
    ASSERT_EQ(kill(worker, SIGSTOP), 0);

    kill(pid_, SIGTERM);
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(reap(), 0) << slurp(log_);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::seconds>(
            std::chrono::steady_clock::now() - start);
    // Shutdown frame timeouts + the 2s reap deadline, with headroom:
    // well under a minute, where the old code never returned.
    EXPECT_LT(elapsed.count(), 30);
    const std::string log = slurp(log_);
    EXPECT_NE(log.find("SIGKILL"), std::string::npos) << log;
    EXPECT_NE(log.find("drained, exiting"), std::string::npos);

    // The stopped worker really is gone (SIGKILL acts on stopped
    // processes; the frontend reaped it).
    EXPECT_NE(kill(worker, 0), 0);
}

} // namespace
} // namespace lva
