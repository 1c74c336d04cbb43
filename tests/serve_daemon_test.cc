/**
 * @file
 * Cross-process acceptance tests for the lva_served daemon and the
 * lva_client CLI: real processes, real signals. Pins the ISSUE's
 * serving criteria — SIGTERM drains in-flight requests and exits 0,
 * an injected serve.accept fault never takes the daemon down, and a
 * `shutdown` request ends the process cleanly.
 *
 * Binary paths arrive via the LVA_SERVED_BINARY / LVA_CLIENT_BINARY
 * compile definitions; knobs and fault specs travel through the
 * child environment.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include "util/net.hh"
#include "util/checkpoint.hh"

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

/** Exit status of `env prefix + command`; -1 on abnormal exit. */
int
runCommand(const std::string &cmd)
{
    const int status = std::system(cmd.c_str());
    if (status < 0 || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

class ServeDaemonTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("lva_served_" +
                std::to_string(static_cast<long>(getpid())) + "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        log_ = dir_ / "served.log";
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

    /**
     * Fork+exec the daemon with @p extraArgs after "--port 0
     * --workers 2" and each "NAME=value" of @p env set; stdout/stderr
     * land in log_.
     */
    void
    startDaemon(const std::string &fault = "",
                const std::vector<std::string> &extraArgs = {},
                const std::vector<std::string> &env = {})
    {
        std::vector<const char *> argv = {"lva_served", "--port", "0",
                                          "--workers", "2"};
        for (const std::string &a : extraArgs)
            argv.push_back(a.c_str());
        argv.push_back(nullptr);
        fs::remove(log_); // waitForPort must not read a previous run's
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
            if (!fault.empty())
                setenv("LVA_FAULT", fault.c_str(), 1);
            for (const std::string &kv : env)
                putenv(const_cast<char *>(kv.c_str()));
            execv(LVA_SERVED_BINARY, const_cast<char *const *>(argv.data()));
            _exit(127); // exec failed
        }
        port_ = waitForPort();
        ASSERT_GT(port_, 0) << slurp(log_);
    }

    /** Parse the announced port out of the log (retries ~10s). */
    int
    waitForPort() const
    {
        for (int tries = 0; tries < 200; ++tries) {
            const std::string log = slurp(log_);
            const std::size_t at = log.find("127.0.0.1:");
            if (at != std::string::npos) {
                const std::size_t nl = log.find(' ', at);
                return std::atoi(
                    log.substr(at + 10, nl - at - 10).c_str());
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        }
        return 0;
    }

    int
    client(const std::string &args) const
    {
        return runCommand(std::string("'") + LVA_CLIENT_BINARY +
                          "' --port " + std::to_string(port_) + " " +
                          args + " >> '" +
                          (dir_ / "client.log").string() + "' 2>&1");
    }

    /** Reap the daemon; returns its exit code (-1 = abnormal). */
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

TEST_F(ServeDaemonTest, SigtermDrainsAndExitsZero)
{
    startDaemon();
    EXPECT_EQ(client("ping"), 0) << slurp(dir_ / "client.log");
    kill(pid_, SIGTERM);
    EXPECT_EQ(reap(), 0) << slurp(log_);
    EXPECT_NE(slurp(log_).find("drained, exiting"),
              std::string::npos);
}

TEST_F(ServeDaemonTest, SigtermFinishesAnInFlightRequest)
{
    // Delay request 0 by 800 ms, SIGTERM the daemon mid-request: the
    // client must still receive its complete response (exit 0) and
    // the daemon must exit 0 after the drain.
    startDaemon("serve.request.0=delay:800");
    int client_exit = -2;
    std::thread inflight(
        [&] { client_exit = client("ping"); });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    kill(pid_, SIGTERM);
    inflight.join();
    EXPECT_EQ(client_exit, 0) << slurp(dir_ / "client.log");
    EXPECT_EQ(reap(), 0) << slurp(log_);
}

TEST_F(ServeDaemonTest, InjectedAcceptFaultDoesNotKillTheDaemon)
{
    startDaemon("serve.accept=throw@first1");
    EXPECT_EQ(client("ping"), 0) << slurp(dir_ / "client.log");
    EXPECT_NE(slurp(log_).find("serve: accept"), std::string::npos);
    kill(pid_, SIGTERM);
    EXPECT_EQ(reap(), 0) << slurp(log_);
}

TEST_F(ServeDaemonTest, InjectedRequestFaultDoesNotKillTheDaemon)
{
    startDaemon("serve.request.0=throw");
    EXPECT_EQ(client("ping"), 1); // request 0 fails...
    EXPECT_EQ(client("ping"), 0); // ...the daemon keeps serving
    kill(pid_, SIGTERM);
    EXPECT_EQ(reap(), 0) << slurp(log_);
}

TEST_F(ServeDaemonTest, ShutdownRequestEndsTheProcessCleanly)
{
    startDaemon();
    EXPECT_EQ(client("shutdown"), 0) << slurp(dir_ / "client.log");
    EXPECT_EQ(reap(), 0) << slurp(log_);
}

TEST_F(ServeDaemonTest, ClientUsageErrorsExitTwo)
{
    startDaemon();
    EXPECT_EQ(client("frobnicate"), 2);
    EXPECT_EQ(client("eval"), 2); // --workload is required
    kill(pid_, SIGTERM);
    EXPECT_EQ(reap(), 0);
}

TEST_F(ServeDaemonTest, ExplicitZeroFlagsBeatStaleServeEnvironment)
{
    // The daemon takes its options from flags only: an environment
    // that once meant "port 47123, cache 5" must not override an
    // explicit --port 0 (ephemeral) or --cache 0 (unbounded).
    TcpListener held(0);
    startDaemon("", {"--cache", "0"},
                {"LVA_SERVE_PORT=" + std::to_string(held.port()),
                 "LVA_SERVE_CACHE=5"});
    EXPECT_NE(port_, held.port());
    const fs::path out = dir_ / "stats.json";
    ASSERT_EQ(runCommand(std::string("'") + LVA_CLIENT_BINARY +
                         "' --port " + std::to_string(port_) +
                         " stats > '" + out.string() + "'"),
              0);
    const JsonValue stats = parseJson(slurp(out));
    EXPECT_EQ(stats.at("serve").at("serve.cache.capacity").at("value")
                  .asDouble(),
              0.0);
    kill(pid_, SIGTERM);
    EXPECT_EQ(reap(), 0) << slurp(log_);
}

TEST_F(ServeDaemonTest, LvaRetriesRetriesEachServedPoint)
{
    // lva_served reads LVA_RETRIES once at start and gives every
    // sweep point 1 + LVA_RETRIES attempts: a first-attempt fault in
    // point 0 is recovered (exit 0) with it and fails (exit 3)
    // without it.
    const fs::path points = dir_ / "points.json";
    std::ofstream(points) << "[{\"label\":\"lva\","
                             "\"workload\":\"canneal\"}]";
    const std::string sweep =
        "sweep --driver retry_test --points '" + points.string() +
        "' --out '" + (dir_ / "export.json").string() + "'";
    for (const auto &[retries, expected] :
         {std::pair<const char *, int>{"0", 3}, {"1", 0}}) {
        startDaemon("sweep.point.0=throw@first1", {},
                    {std::string("LVA_RETRIES=") + retries});
        EXPECT_EQ(client(sweep), expected)
            << "LVA_RETRIES=" << retries << "\n"
            << slurp(dir_ / "client.log");
        kill(pid_, SIGTERM);
        EXPECT_EQ(reap(), 0) << slurp(log_);
    }
}

/**
 * A stub daemon for the client's busy handling: answers `busy` (with
 * retryAfterMs) for the first @p busyCount connections, then a clean
 * ping response. Counts connections so the test can assert exactly
 * how many attempts the client made.
 */
class BusyStubServer
{
  public:
    explicit BusyStubServer(int busyCount)
        : busyCount_(busyCount), listener_(0), thread_([this] {
              serve();
          })
    {
    }

    ~BusyStubServer()
    {
        done_.store(true);
        thread_.join();
    }

    u16 port() const { return listener_.port(); }
    int connections() const { return connections_.load(); }

  private:
    void
    serve()
    {
        while (!done_.load()) {
            TcpStream conn = listener_.acceptOne(200);
            if (!conn.valid())
                continue;
            const int n = ++connections_;
            try {
                std::string req;
                if (!readFrame(conn, req, 5000))
                    continue;
                if (n <= busyCount_)
                    writeFrame(conn,
                               "{\"schema\":\"lva-rpc-v1\","
                               "\"ok\":false,\"busy\":true,"
                               "\"retryAfterMs\":50,"
                               "\"error\":\"server at capacity\"}",
                               5000);
                else
                    writeFrame(conn,
                               "{\"schema\":\"lva-rpc-v1\","
                               "\"ok\":true,\"op\":\"ping\"}",
                               5000);
            } catch (const std::exception &) {
                // A dropped stub connection only ends that attempt.
            }
        }
    }

    int busyCount_;
    TcpListener listener_;
    std::atomic<int> connections_{0};
    std::atomic<bool> done_{false};
    std::thread thread_;
};

TEST(ClientBusyBackoff, HonorsRetryAfterUntilTheServerYields)
{
    BusyStubServer server(2);
    const int rc = runCommand(
        std::string("'") + LVA_CLIENT_BINARY + "' --port " +
        std::to_string(server.port()) + " ping > /dev/null 2>&1");
    EXPECT_EQ(rc, 0);
    // busy, busy, ok: the retry-after backoff made exactly 3 attempts.
    EXPECT_EQ(server.connections(), 3);
}

TEST(ClientBusyBackoff, BackoffIsBoundedByTheRetryBudget)
{
    BusyStubServer server(100); // never yields
    const int rc = runCommand(
        std::string("LVA_CLIENT_BUSY_RETRIES=1 '") +
        LVA_CLIENT_BINARY + "' --port " +
        std::to_string(server.port()) + " ping > /dev/null 2>&1");
    EXPECT_EQ(rc, 1);
    // One initial attempt plus the single budgeted retry, then the
    // busy refusal is surfaced as a failure.
    EXPECT_EQ(server.connections(), 2);
}

} // namespace
} // namespace lva
