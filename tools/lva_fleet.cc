/**
 * @file
 * lva_fleet — accept-and-dispatch frontend for a fleet of lva_served
 * workers (docs/serving.md, "The fleet" and "Sharded sweeps").
 *
 * The frontend binds one localhost port, spawns N lva_served workers
 * on ephemeral ports, and forwards each lva-rpc-v1 frame to the
 * worker chosen by a rendezvous hash of the request's routing key
 * (the workload set for eval/sweep, the op name for control ops) —
 * so every request needing a given workload's golden runs lands on
 * the shard whose cache already holds them. Responses are relayed
 * byte-for-byte: a fleet of any size answers exactly what one
 * lva_served would, which is what serve_smoke.sh pins.
 *
 *   lva_fleet --fleet 3                      # 3 workers, printed port
 *   lva_fleet --fleet 3 --cache 2 --jobs 2   # worker pass-through
 *
 * Options (flags only):
 *   --fleet N        worker processes, 1..64                   [2]
 *   --port N         frontend port, 0..65535; 0 = ephemeral    [0]
 *   --served PATH    worker binary [lva_served next to this binary]
 *   --workers, --queue, --deadline-ms, --retries, --jobs,
 *   --cache, --seeds, --scale: forwarded to every worker.
 * A malformed or out-of-range value for any of them exits 2, before
 * any worker is spawned.
 *
 * Sharded sweeps: a `sweep` request carrying "shards": N (and
 * optionally "resume": true) is not relayed whole. The frontend
 * splits it with eval/coord's planShards, sends each non-empty shard
 * to its routed worker as a "detail" sweep, journals every finished
 * shard in "<resultsDir>/checkpoints/<driver>.coord.jsonl", and
 * answers with the merged export — the same bytes an unsharded sweep
 * returns. Fault sites "coord.scatter.<shard>" (before a shard is
 * sent) and "coord.gather.<shard>" (after its reply is validated,
 * before the journal append) let tests kill the frontend mid-sweep.
 *
 * Supervision: a worker that dies (e.g. an LVA_FAULT abort) is
 * detected on the next request routed to it, respawned on a fresh
 * port, and the request is retried there — the caller just sees a
 * slightly slower, byte-identical response. LVA_FLEET_FAULT arms
 * LVA_FAULT in a worker's *first* incarnation only ("<idx|*>:<spec>"),
 * so an injected kill cannot re-fire in the respawned process.
 *
 * SIGTERM / SIGINT / a `shutdown` request drain: stop accepting,
 * finish in-flight relays, shut every worker down, reap them with a
 * bounded wait (a wedged worker is SIGKILLed after a deadline rather
 * than hanging the drain), exit 0.
 */

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "eval/coord.hh"
#include "eval/service.hh"
#include "sim/machine_config.hh"
#include "util/checkpoint.hh"
#include "util/env_knob.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/net.hh"
#include "util/results_dir.hh"
#include "util/stats_json.hh"

using namespace lva;

namespace {

/** Signal flag: the accept loop polls it (one relaxed load per tick). */
std::atomic<bool> g_stop{false}; // lva-lint: allow(no-mutable-global)

extern "C" void
onStopSignal(int)
{
    g_stop.store(true);
}

/** Largest "shards" a sharded sweep may ask for. */
constexpr u64 kMaxShards = 4096;

struct Options
{
    u32 fleet = 2;       ///< worker count
    u16 port = 0;        ///< frontend port (0 = ephemeral)
    std::string served;  ///< worker binary path
    /** The workers' --seeds / --scale (0 = LVA_SEEDS / LVA_SCALE),
     *  parsed as lva_served parses them: they key the shard journal. */
    u32 seeds = 0;
    double scale = 0.0;
    /** Flags forwarded verbatim to every worker. */
    std::vector<std::string> passThrough;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--fleet N] [--port N] [--served PATH]\n"
                 "  [--workers N] [--queue N] [--deadline-ms N]\n"
                 "  [--retries N] [--jobs N] [--cache N] [--seeds N]\n"
                 "  [--scale F]\n",
                 argv0);
    std::exit(2);
}

/** Default worker binary path: a sibling lva_served. */
std::string
defaultServedPath()
{
    // Sibling of this binary: build/tools/lva_fleet -> .../lva_served.
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        std::string self(buf);
        const std::size_t slash = self.rfind('/');
        if (slash != std::string::npos)
            return self.substr(0, slash + 1) + "lva_served";
    }
    return "lva_served";
}

Options
parse(int argc, char **argv)
{
    Options opt;
    ServeFlags workerFlags; // checks the flags forwarded to workers
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--fleet") {
            opt.fleet = static_cast<u32>(flagU64("--fleet", need(i), 1, 64));
        } else if (arg == "--port") {
            opt.port =
                static_cast<u16>(flagU64("--port", need(i), 0, 65535));
        } else if (arg == "--served") {
            opt.served = need(i);
        } else if (i + 1 < argc &&
                   applyServeFlag(arg, argv[i + 1], workerFlags)) {
            opt.passThrough.push_back(arg);
            opt.passThrough.push_back(need(i));
        } else {
            usage(argv[0]);
        }
    }
    opt.seeds = workerFlags.seeds;
    opt.scale = workerFlags.scale;
    if (opt.served.empty())
        opt.served = defaultServedPath();
    return opt;
}

/** One supervised lva_served process. */
struct Worker
{
    pid_t pid = -1;
    u16 port = 0;
    int pipeFd = -1;     ///< read end of the worker's stdout
    u32 incarnation = 0; ///< 0 = first spawn, >0 = respawn
};

/**
 * The fault armed for one worker's first incarnation, from
 * LVA_FLEET_FAULT="<idx|*>:<spec>" ("" = none). Respawns never
 * inherit it — that is the whole point of routing the injection
 * through the supervisor instead of plain LVA_FAULT.
 */
std::string
firstIncarnationFault(u32 index)
{
    // String-valued fault routing spec, validated right below.
    // lva-audit: allow(knob-unvalidated)
    const char *env = std::getenv("LVA_FLEET_FAULT");
    if (!env || !*env)
        return "";
    const std::string spec(env);
    const std::size_t colon = spec.find(':');
    if (colon == std::string::npos) {
        lva_warn("ignoring malformed LVA_FLEET_FAULT=\"%s\"", env);
        return "";
    }
    const std::string target = spec.substr(0, colon);
    if (target != "*" && target != std::to_string(index))
        return "";
    return spec.substr(colon + 1);
}

/**
 * Wait for the worker's "listening on 127.0.0.1:<port>" line on
 * @p fd (its stdout pipe) and return the port; 0 on timeout/EOF.
 */
u16
readWorkerPort(int fd, u64 timeoutMs)
{
    std::string buf;
    for (;;) {
        struct pollfd pfd = {fd, POLLIN, 0};
        const int r = ::poll(&pfd, 1, static_cast<int>(timeoutMs));
        if (r <= 0)
            return 0;
        char chunk[256];
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n <= 0)
            return 0;
        buf.append(chunk, static_cast<std::size_t>(n));
        const std::size_t at = buf.find("127.0.0.1:");
        if (at != std::string::npos) {
            const std::size_t digits = at + std::strlen("127.0.0.1:");
            if (buf.find('\n', digits) == std::string::npos)
                continue; // port digits may still be in flight
            return static_cast<u16>(std::atoi(buf.c_str() + digits));
        }
    }
}

/**
 * Reap @p pid with a bounded wait: WNOHANG-poll until it exits or
 * @p deadlineMs elapses, then SIGKILL it and wait for real — so a
 * wedged (e.g. SIGSTOP'd) worker cannot hang a SIGTERM drain.
 */
void
reapBounded(pid_t pid, u64 deadlineMs, const std::string &what)
{
    const auto start = std::chrono::steady_clock::now();
    for (;;) {
        int st = 0;
        const pid_t r = ::waitpid(pid, &st, WNOHANG);
        if (r == pid || (r < 0 && errno == ECHILD))
            return;
        const u64 elapsed = static_cast<u64>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start)
                .count());
        if (elapsed >= deadlineMs)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    lva_warn("%s did not exit within %llu ms; sending SIGKILL",
             what.c_str(),
             static_cast<unsigned long long>(deadlineMs));
    ::kill(pid, SIGKILL);
    int st = 0;
    ::waitpid(pid, &st, 0); // SIGKILL cannot be blocked; returns fast
}

/**
 * Re-render a parsed JSON value as compact one-line JSON. The worker
 * re-parses the request, so normalized string escapes cannot affect
 * the merged bytes; numbers keep their source text exactly.
 */
std::string
renderJson(const JsonValue &v)
{
    switch (v.type) {
      case JsonValue::Type::Null:
        return "null";
      case JsonValue::Type::Bool:
        return v.boolean ? "true" : "false";
      case JsonValue::Type::Number:
        return v.text;
      case JsonValue::Type::String:
        return jsonQuote(v.text);
      case JsonValue::Type::Array: {
        std::string out = "[";
        for (std::size_t i = 0; i < v.items.size(); ++i) {
            if (i > 0)
                out += ',';
            out += renderJson(v.items[i]);
        }
        return out + "]";
      }
      case JsonValue::Type::Object: {
        std::string out = "{";
        for (std::size_t i = 0; i < v.members.size(); ++i) {
            if (i > 0)
                out += ',';
            out += jsonQuote(v.members[i].first) + ":" +
                   renderJson(v.members[i].second);
        }
        return out + "}";
      }
    }
    return "null"; // unreachable
}

/**
 * A driver name safe to use as a journal file name: letters, digits,
 * '_', '-' and '.', not starting with '.'.
 */
bool
isFileSafeName(const std::string &name)
{
    if (name.empty() || name[0] == '.')
        return false;
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                        c == '.';
        if (!ok)
            return false;
    }
    return true;
}

/** The request parsed, when it is a sweep carrying "shards". */
std::optional<JsonValue>
shardedSweepRequest(const std::string &request)
{
    try {
        JsonValue req = parseJson(request);
        const JsonValue *op = req.find("op");
        if (op != nullptr && op->type == JsonValue::Type::String &&
            op->text == "sweep" && req.find("shards") != nullptr)
            return req;
    } catch (const std::exception &) {
        // Malformed: relayed as-is, and the worker answers ok:false.
    }
    return std::nullopt;
}

/** The supervised fleet: spawn, route, respawn, drain. */
class Fleet
{
  public:
    explicit Fleet(const Options &opt) : opt_(opt), workers_(opt.fleet) {}

    ~Fleet()
    {
        for (Worker &w : workers_) {
            if (w.pipeFd >= 0)
                ::close(w.pipeFd);
        }
    }

    void
    spawnAll()
    {
        for (u32 i = 0; i < workers_.size(); ++i)
            spawn(i);
    }

    /**
     * Forward @p request to the worker owning @p shard and return the
     * response verbatim. Detects a dead worker (connect refused +
     * waitpid says exited), respawns it, and retries there — bounded,
     * so a permanently broken worker binary still fails loudly.
     */
    std::string
    forward(u32 shard, const std::string &request, u64 timeoutMs)
    {
        std::string lastError;
        for (u32 attempt = 0; attempt < 10; ++attempt) {
            u16 port;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                reapAndRespawnLocked(shard);
                port = workers_[shard].port;
            }
            try {
                TcpStream conn =
                    TcpStream::connectTo("127.0.0.1", port, timeoutMs);
                writeFrame(conn, request, timeoutMs);
                std::string response;
                if (readFrame(conn, response, timeoutMs))
                    return response;
                lastError = "worker closed without a response";
            } catch (const NetError &e) {
                lastError = e.what();
            }
            // Either the worker died mid-request (respawned on the
            // next iteration) or it is still booting; a short fixed
            // pause keeps the retry loop polite and deterministic.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
        }
        throw NetError("worker " + std::to_string(shard) +
                       " unreachable: " + lastError);
    }

    /** Forward @p request to the worker its routing key picks. */
    std::string
    route(const std::string &request, u64 timeoutMs)
    {
        return forward(fleetShard(fleetRouteKey(request), size()),
                       request, timeoutMs);
    }

    /** Send @p request to every worker; returns the last response. */
    std::string
    broadcast(const std::string &request, u64 timeoutMs)
    {
        std::string response;
        for (u32 i = 0; i < workers_.size(); ++i) {
            try {
                response = forward(i, request, timeoutMs);
            } catch (const std::exception &e) {
                lva_warn("fleet: broadcast to worker %u: %s", i,
                         e.what());
            }
        }
        return response;
    }

    /**
     * Answer a sweep request carrying "shards" (docs/serving.md,
     * "Sharded sweeps"): plan the shards, restore the ones the
     * journal already holds, route the rest concurrently, merge.
     * Bad input and unfinished shards become an ok:false reply.
     */
    std::string
    shardedSweep(const JsonValue &req, u64 timeoutMs)
    {
        // A journal that cannot be opened is an lva_fatal inside
        // CheckpointManifest; make it this request's error instead.
        ScopedFailureIsolation isolate;
        try {
            return runShardedSweep(req, timeoutMs);
        } catch (const std::exception &e) {
            return errorResponse(e.what());
        }
    }

    /**
     * Drain every worker: one best-effort shutdown frame each (when
     * @p sendShutdown; a wedged worker just times the frame out),
     * then a bounded reap that escalates to SIGKILL after
     * @p reapDeadlineMs — so SIGTERM drain always terminates even
     * with a hung worker.
     */
    void
    drainAll(bool sendShutdown, u64 frameTimeoutMs, u64 reapDeadlineMs)
    {
        if (sendShutdown) {
            const std::string req = "{\"schema\":\"lva-rpc-v1\","
                                    "\"op\":\"shutdown\"}";
            for (u32 i = 0; i < workers_.size(); ++i) {
                Worker &w = workers_[i];
                if (w.pid <= 0)
                    continue;
                try {
                    TcpStream conn = TcpStream::connectTo(
                        "127.0.0.1", w.port, frameTimeoutMs);
                    writeFrame(conn, req, frameTimeoutMs);
                    std::string response;
                    readFrame(conn, response, frameTimeoutMs);
                } catch (const std::exception &e) {
                    // Dead or wedged either way; the bounded reap
                    // below settles it.
                    lva_warn("fleet: shutdown frame to worker %u: %s",
                             i, e.what());
                }
            }
        }
        for (u32 i = 0; i < workers_.size(); ++i) {
            Worker &w = workers_[i];
            if (w.pid <= 0)
                continue;
            reapBounded(w.pid, reapDeadlineMs,
                        "fleet: worker " + std::to_string(i) +
                            " (pid " + std::to_string(w.pid) + ")");
            w.pid = -1;
        }
    }

    u32 size() const { return static_cast<u32>(workers_.size()); }

  private:
    std::string
    runShardedSweep(const JsonValue &req, u64 timeoutMs)
    {
        const std::string driver = req.at("driver").asString();
        if (!isFileSafeName(driver))
            throw std::runtime_error(
                "sweep: a sharded sweep's driver must be letters, "
                "digits, '_', '-' or '.', not starting with '.'");
        u64 shards = 0;
        try {
            shards = req.at("shards").asU64();
        } catch (const std::exception &) {
            // Not an unsigned integer: reported below.
        }
        if (shards < 1 || shards > kMaxShards)
            throw std::runtime_error(
                "sweep: \"shards\" must be an integer in [1, " +
                std::to_string(kMaxShards) + "]");
        bool resume = false;
        if (const JsonValue *r = req.find("resume")) {
            if (r->type != JsonValue::Type::Bool)
                throw std::runtime_error(
                    "sweep: \"resume\" must be true or false");
            resume = r->boolean;
        }

        // Decode the points against the request's machine, exactly
        // as every worker will, so the plan, the shard digests and
        // the merge see the workers' view of each point.
        std::string machineJson;
        ApproxMemory::Config base = Evaluator::baselineLva();
        if (const JsonValue *m = req.find("machine")) {
            const MachineConfig machine = machineFromJson(*m);
            machineJson = renderMachineJson(machine);
            base = machine.phase1Lva();
        }
        const JsonValue &pointsJson = req.at("points");
        const std::vector<SweepPoint> points =
            sweepPointsFromJson(pointsJson, base);
        if (points.empty())
            throw std::runtime_error("sweep: no points");

        const ShardPlan plan = planShards(points, static_cast<u32>(shards));
        // Bound to everything that invalidates a journaled shard:
        // seeds, scale, export schema, shard count and machine.
        std::string context = coordContextKey(
            Evaluator(opt_.seeds, opt_.scale), plan.shards);
        if (!machineJson.empty())
            context += ";machine=" + hexU64(fnv1a64(machineJson));

        // A fresh journal truncates its file, so two sharded sweeps
        // must never interleave on one: run them one at a time.
        std::lock_guard<std::mutex> sweepLock(sweepMutex_);
        CheckpointManifest manifest(
            resultsPath("checkpoints/" + driver + ".coord.jsonl"), driver,
            context, resume);

        // One slot per shard: each scatter thread writes only its own.
        std::vector<std::optional<ShardRecord>> records(plan.shards);
        std::vector<std::string> errors(plan.shards);
        u64 resumedPoints = 0;
        // jthreads: an exception leaving this loop still joins them.
        std::vector<std::jthread> scatter;
        for (u32 s = 0; s < plan.shards; ++s) {
            const std::vector<u64> &members = plan.members[s];
            if (members.empty())
                continue;
            const std::string digest = shardDigest(plan, points, s);
            if (const std::string *payload = manifest.find(digest)) {
                try {
                    ShardRecord record =
                        decodeShardRecord(parseJson(*payload));
                    if (record.shard != s ||
                        record.results.size() != members.size())
                        throw std::runtime_error(
                            "record does not match the shard plan");
                    records[s] = std::move(record);
                    resumedPoints += members.size();
                    continue;
                } catch (const std::exception &e) {
                    lva_warn("fleet: journaled shard %u unusable (%s); "
                             "re-running it",
                             s, e.what());
                }
            }

            std::string request =
                std::string("{\"schema\":\"lva-rpc-v1\",\"op\":\"sweep\"") +
                ",\"driver\":" + jsonQuote(driver) +
                ",\"shard\":" + std::to_string(s) + ",\"detail\":true";
            if (!machineJson.empty())
                request += ",\"machine\":" + machineJson;
            request += ",\"points\":[";
            for (std::size_t i = 0; i < members.size(); ++i) {
                if (i > 0)
                    request += ',';
                request += renderJson(pointsJson.items[members[i]]);
            }
            request += "]}";

            // Completion order cannot affect the merged bytes: the
            // merge is keyed by global point index.
            scatter.emplace_back([&, s, digest,
                                  request = std::move(request)] {
                try {
                    faultPoint("coord.scatter." + std::to_string(s));
                    ShardRecord record = shardRecordFromResponse(
                        parseJson(route(request, timeoutMs)), s,
                        plan.members[s].size());
                    faultPoint("coord.gather." + std::to_string(s));
                    manifest.append(digest, encodeShardRecord(record));
                    records[s] = std::move(record);
                } catch (const std::exception &e) {
                    errors[s] = "shard " + std::to_string(s) + ": " +
                                e.what() + "; ";
                }
            });
        }
        for (std::jthread &t : scatter)
            t.join();

        std::string why;
        std::vector<ShardRecord> done;
        for (u32 s = 0; s < plan.shards; ++s) {
            why += errors[s];
            if (records[s])
                done.push_back(std::move(*records[s]));
        }
        if (!why.empty())
            throw std::runtime_error(
                why + "resend with \"resume\":true to finish");
        SweepOutcome outcome = mergeShards(plan, points.size(), done);
        outcome.resumed = resumedPoints;
        lva_inform("fleet: sweep %s: %zu points across %u shards "
                   "(%llu resumed)",
                   driver.c_str(), points.size(), plan.shards,
                   static_cast<unsigned long long>(resumedPoints));
        return sweepResponse(driver, points, outcome);
    }

    /**
     * Fork+exec the worker binary for worker @p index on an ephemeral
     * port; its stdout becomes a pipe the port is parsed from (kept
     * open for the worker's lifetime — the worker writes its drain
     * line there at exit and must not take SIGPIPE). Fatal if the
     * worker never announces.
     */
    void
    spawn(u32 index)
    {
        Worker &w = workers_[index];
        if (w.pipeFd >= 0) {
            ::close(w.pipeFd);
            w.pipeFd = -1;
        }

        int fds[2];
        if (::pipe(fds) != 0)
            lva_fatal("lva_fleet: pipe: %s", std::strerror(errno));

        const std::string fault =
            w.incarnation == 0 ? firstIncarnationFault(index) : "";

        const pid_t pid = ::fork();
        if (pid < 0)
            lva_fatal("lva_fleet: fork: %s", std::strerror(errno));
        if (pid == 0) {
            ::close(fds[0]);
            ::dup2(fds[1], STDOUT_FILENO);
            ::close(fds[1]);
            if (!fault.empty())
                ::setenv("LVA_FAULT", fault.c_str(), 1);
            else
                ::unsetenv("LVA_FAULT");
            // The supervisor owns fleet policy; a worker must never
            // recurse into fleet spawning via inherited knobs.
            ::unsetenv("LVA_FLEET_FAULT");

            std::vector<const char *> args;
            args.push_back(opt_.served.c_str());
            args.push_back("--port");
            args.push_back("0");
            for (const std::string &a : opt_.passThrough)
                args.push_back(a.c_str());
            args.push_back(nullptr);
            ::execv(opt_.served.c_str(),
                    const_cast<char *const *>(args.data()));
            std::fprintf(stderr, "lva_fleet: exec %s: %s\n",
                         opt_.served.c_str(), std::strerror(errno));
            ::_Exit(127);
        }

        ::close(fds[1]);
        w.pid = pid;
        w.pipeFd = fds[0];
        w.port = readWorkerPort(fds[0], 30000);
        if (w.port == 0)
            lva_fatal("lva_fleet: worker %u did not announce a port",
                      index);
        std::fprintf(stderr,
                     "lva_fleet: worker %u (incarnation %u) pid %d "
                     "on 127.0.0.1:%u\n",
                     index, w.incarnation, static_cast<int>(pid),
                     static_cast<unsigned>(w.port));
        ++w.incarnation;
    }

    /** If worker @p index exited, log and respawn it. Lock held. */
    void
    reapAndRespawnLocked(u32 index)
    {
        Worker &w = workers_[index];
        if (w.pid <= 0)
            return;
        int st = 0;
        if (::waitpid(w.pid, &st, WNOHANG) == w.pid) {
            lva_warn("fleet: worker %u (pid %d) exited with status "
                     "%d; respawning",
                     index, static_cast<int>(w.pid),
                     WIFEXITED(st) ? WEXITSTATUS(st) : -WTERMSIG(st));
            w.pid = -1;
            spawn(index);
        }
    }

    Options opt_;
    std::mutex mutex_; ///< guards the worker table across relays
    std::mutex sweepMutex_; ///< held for a whole sharded sweep
    std::vector<Worker> workers_;
};

/** Relay every frame on @p conn to its routed worker. */
void
serveConnection(Fleet &fleet, TcpStream conn, u64 timeoutMs,
                std::atomic<bool> &shutdownSeen)
{
    try {
        std::string request;
        while (readFrame(conn, request, timeoutMs)) {
            std::string response;
            if (fleetRouteKey(request) == "op:shutdown") {
                response = fleet.broadcast(request, timeoutMs);
                if (response.empty())
                    response = busyResponse();
                shutdownSeen.store(true);
                g_stop.store(true);
            } else if (const std::optional<JsonValue> sweep =
                           shardedSweepRequest(request)) {
                response = fleet.shardedSweep(*sweep, timeoutMs);
            } else {
                response = fleet.route(request, timeoutMs);
            }
            writeFrame(conn, response, timeoutMs);
            if (g_stop.load())
                break;
        }
    } catch (const std::exception &e) {
        lva_warn("fleet: connection: %s", e.what());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);

    struct sigaction sa = {};
    sa.sa_handler = onStopSignal;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN);

    Fleet fleet(opt);
    fleet.spawnAll();

    TcpListener listener(opt.port);

    // Scripts parse this line for the (possibly ephemeral) port, so
    // it must land before the accept loop starts; same contract as
    // lva_served.
    std::printf("lva_fleet: listening on 127.0.0.1:%u (fleet=%u)\n",
                static_cast<unsigned>(listener.port()), fleet.size());
    std::fflush(stdout);

    const u64 kRelayTimeoutMs = 600000;
    std::atomic<bool> shutdownSeen{false};
    // One relay thread per connection. A finished relay is joined on
    // the next pass of the loop, so a long-lived fleet holds a stack
    // only for connections still open; the drain below joins the rest.
    struct Relay
    {
        std::atomic<bool> done{false};
        std::thread thread;
    };
    std::list<Relay> relays;
    while (!g_stop.load()) {
        for (auto it = relays.begin(); it != relays.end();) {
            if (it->done.load()) {
                it->thread.join();
                it = relays.erase(it);
            } else {
                ++it;
            }
        }
        TcpStream conn;
        try {
            // Short poll so stop signals are observed promptly.
            conn = listener.acceptOne(200);
        } catch (const std::exception &e) {
            lva_warn("fleet: accept: %s", e.what());
            continue;
        }
        if (!conn.valid())
            continue;
        Relay &relay = relays.emplace_back();
        relay.thread = std::thread([&fleet, &shutdownSeen, &relay,
                                    c = std::move(conn)]() mutable {
            serveConnection(fleet, std::move(c), kRelayTimeoutMs,
                            shutdownSeen);
            relay.done.store(true);
        });
    }

    for (Relay &relay : relays)
        relay.thread.join();

    // Drain the workers: a relayed `shutdown` already reached them
    // all; a signal-initiated stop still owes them the frame. Either
    // way the reap is bounded, so a wedged worker is SIGKILLed
    // instead of hanging the drain.
    fleet.drainAll(!shutdownSeen.load(), 2000, 2000);

    std::printf("lva_fleet: drained, exiting\n");
    return 0;
}
