/**
 * @file
 * lva_client — command-line client for the lva_served daemon
 * (docs/serving.md).
 *
 *   lva_client --port 7777 ping
 *   lva_client --port 7777 eval --workload canneal \
 *       --config '{"ghb":2}'
 *   lva_client --port 7777 sweep --driver fig5_ghb_error \
 *       --points points.json --out stats.json
 *   lva_client --port 7777 sweep --driver fig5_ghb_error \
 *       --points points.json --shards 3 --resume   # lva_fleet
 *   lva_client --port 7777 stats
 *   lva_client --port 7777 shutdown
 *
 * Options:
 *   --port N        daemon port (required, or LVA_SERVE_PORT)
 *   --timeout-ms N  wire deadline per frame [600000]
 *   --workload NAME (eval) benchmark to evaluate
 *   --config JSON   (eval) inline config object
 *   --driver NAME   (sweep) export driver tag
 *   --points FILE   (sweep) JSON array of sweep points; "-" = stdin
 *   --out FILE      (sweep) write the lva-stats-v1 export here
 *                   instead of stdout
 *   --machine FILE  (eval/sweep) lva-machine-v1 topology file
 *                   (docs/topology.md), embedded in the request
 *   --shards N      (sweep) ask lva_fleet to shard the sweep N ways
 *                   (request member "shards"; a plain lva_served
 *                   ignores it and answers the same export)
 *   --resume        (sweep) with --shards: reuse the shards lva_fleet
 *                   already journaled (request member "resume")
 *
 * Busy handling: a `busy` response carries `retryAfterMs`; the client
 * honors it with deterministic (jitter-free) doubling backoff, capped
 * per wait and bounded to LVA_CLIENT_BUSY_RETRIES extra attempts
 * (default 5) before the refusal becomes exit code 1.
 *
 * Exit codes follow the driver convention (README): 0 success, 1
 * request refused or failed by the server, 2 usage error, 3 sweep
 * completed with isolated point failures (the export still carries
 * every completed point plus a failures section).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "eval/service.hh"
#include "sim/machine_config.hh"
#include "util/env_knob.hh"
#include "util/logging.hh"
#include "util/net.hh"
#include "util/stats_json.hh"

using namespace lva;

namespace {

struct Options
{
    u16 port = 0;
    u64 timeoutMs = 600000;
    std::string op;
    std::string workload;
    std::string configJson;
    std::string driver;
    std::string pointsFile;
    std::string outFile;
    std::string machineFile;
    std::string shards; ///< digits, spliced as the "shards" member
    bool resume = false;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--port N] [--timeout-ms N] OP [op options]\n"
        "  OP: ping | stats | shutdown\n"
        "      eval --workload NAME [--config JSON] [--machine FILE]\n"
        "      sweep --driver NAME --points FILE|- [--out FILE]\n"
        "            [--machine FILE] [--shards N [--resume]]\n",
        argv0);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    opt.port =
        static_cast<u16>(envKnobU64("LVA_SERVE_PORT", 0, 0, 65535));
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--port") {
            opt.port = static_cast<u16>(std::atoi(need(i)));
        } else if (arg == "--timeout-ms") {
            opt.timeoutMs = static_cast<u64>(std::atoll(need(i)));
        } else if (arg == "--workload") {
            opt.workload = need(i);
        } else if (arg == "--config") {
            opt.configJson = need(i);
        } else if (arg == "--driver") {
            opt.driver = need(i);
        } else if (arg == "--points") {
            opt.pointsFile = need(i);
        } else if (arg == "--out") {
            opt.outFile = need(i);
        } else if (arg == "--machine") {
            opt.machineFile = need(i);
        } else if (arg == "--shards") {
            // The server range-checks it; here it must be a number.
            opt.shards = need(i);
            if (opt.shards.empty() ||
                opt.shards.find_first_not_of("0123456789") !=
                    std::string::npos)
                usage(argv[0]);
        } else if (arg == "--resume") {
            opt.resume = true;
        } else if (arg == "ping" || arg == "stats" ||
                   arg == "shutdown" || arg == "eval" ||
                   arg == "sweep") {
            if (!opt.op.empty())
                usage(argv[0]);
            opt.op = arg;
        } else {
            usage(argv[0]);
        }
    }
    if (opt.op.empty() || opt.port == 0)
        usage(argv[0]);
    if (opt.op == "eval" && opt.workload.empty())
        usage(argv[0]);
    if (opt.op == "sweep" &&
        (opt.driver.empty() || opt.pointsFile.empty()))
        usage(argv[0]);
    if (opt.resume && opt.shards.empty())
        usage(argv[0]);
    return opt;
}

std::string
readAll(const std::string &file)
{
    if (file == "-") {
        std::ostringstream out;
        out << std::cin.rdbuf();
        return out.str();
    }
    std::ifstream in(file, std::ios::binary);
    if (!in)
        lva_fatal("cannot read points file '%s'", file.c_str());
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/**
 * The "machine" request member for --machine: parsed and validated
 * locally (fail fast, before any connection), then re-rendered in
 * canonical form so every client sends byte-identical machine JSON
 * for the same topology.
 */
std::string
machineMember(const Options &opt)
{
    if (opt.machineFile.empty())
        return "";
    try {
        return ",\"machine\":" +
               renderMachineJson(machineFromFile(opt.machineFile));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "lva_client: %s\n", e.what());
        std::exit(2);
    }
}

/** Build the request payload for the parsed command line. */
std::string
buildRequest(const Options &opt)
{
    std::string req = std::string("{\"schema\":") +
                      jsonQuote(rpcSchema()) +
                      ",\"op\":" + jsonQuote(opt.op);
    if (opt.op == "eval") {
        req += ",\"workload\":" + jsonQuote(opt.workload);
        if (!opt.configJson.empty())
            req += ",\"config\":" + opt.configJson;
        req += machineMember(opt);
    } else if (opt.op == "sweep") {
        // The points file is spliced in verbatim; the server parses
        // and validates it, so a malformed file is reported with the
        // server's diagnostics rather than duplicated client checks.
        req += ",\"driver\":" + jsonQuote(opt.driver) +
               machineMember(opt);
        if (!opt.shards.empty())
            req += ",\"shards\":" + opt.shards;
        if (opt.resume)
            req += ",\"resume\":true";
        req += ",\"points\":" + readAll(opt.pointsFile);
    }
    return req + "}";
}

int
handleSweepResponse(const Options &opt, const JsonValue &resp)
{
    const std::string &exported = resp.at("export").asString();
    if (opt.outFile.empty()) {
        std::fwrite(exported.data(), 1, exported.size(), stdout);
    } else {
        std::ofstream out(opt.outFile, std::ios::binary);
        if (!out)
            lva_fatal("cannot write '%s'", opt.outFile.c_str());
        out.write(exported.data(),
                  static_cast<std::streamsize>(exported.size()));
        if (!out.flush())
            lva_fatal("short write to '%s'", opt.outFile.c_str());
    }
    const u64 failures = resp.at("failures").asU64();
    std::fprintf(stderr,
                 "lva_client: sweep %s: %llu points, %llu failures, "
                 "%llu resumed%s%s\n",
                 opt.driver.c_str(),
                 static_cast<unsigned long long>(
                     resp.at("points").asU64()),
                 static_cast<unsigned long long>(failures),
                 static_cast<unsigned long long>(
                     resp.at("resumed").asU64()),
                 opt.outFile.empty() ? "" : ", export -> ",
                 opt.outFile.c_str());
    return failures == 0 ? 0 : 3;
}

/** Extra attempts after a busy refusal (LVA_CLIENT_BUSY_RETRIES). */
u32
busyRetryBudget()
{
    // Strict parse: garbage or out-of-range budgets warn and keep
    // the default 5 instead of silently becoming 0 (= no retries).
    return static_cast<u32>(
        envKnobU64("LVA_CLIENT_BUSY_RETRIES", 5, 0, 1000));
}

/** True when @p resp is a shed request ("busy":true). */
bool
isBusy(const JsonValue &resp)
{
    const JsonValue *busy = resp.find("busy");
    return busy && busy->type == JsonValue::Type::Bool &&
           busy->boolean;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    const std::string request = buildRequest(opt);

    // Each attempt is a fresh connection: the server closes a shed
    // connection after the busy frame, so there is nothing to reuse.
    const u32 busyBudget = busyRetryBudget();
    std::string payload;
    JsonValue resp;
    for (u32 attempt = 0;; ++attempt) {
        try {
            TcpStream conn = TcpStream::connectTo("127.0.0.1", opt.port,
                                                  opt.timeoutMs);
            writeFrame(conn, request, opt.timeoutMs);
            if (!readFrame(conn, payload, opt.timeoutMs))
                lva_fatal("server closed the connection without a "
                          "response");
        } catch (const NetError &e) {
            std::fprintf(stderr, "lva_client: %s\n", e.what());
            return 1;
        }

        try {
            resp = parseJson(payload);
            if (!resp.isObject())
                throw std::runtime_error("response is not an object");
        } catch (const std::exception &e) {
            std::fprintf(stderr, "lva_client: bad response: %s\n",
                         e.what());
            return 1;
        }

        if (!isBusy(resp) || attempt >= busyBudget)
            break;

        // Deterministic backoff: honor the server's retryAfterMs,
        // doubled per attempt, capped at 2 s per wait. No jitter —
        // reproducibility beats thundering-herd lore at this scale.
        u64 delayMs = 100;
        if (const JsonValue *ra = resp.find("retryAfterMs"))
            delayMs = ra->asU64();
        delayMs = std::min<u64>(delayMs << std::min<u32>(attempt, 10),
                                2000);
        std::fprintf(stderr,
                     "lva_client: busy, retrying in %llu ms "
                     "(attempt %u/%u)\n",
                     static_cast<unsigned long long>(delayMs),
                     attempt + 1, busyBudget);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(delayMs));
    }

    const JsonValue *ok = resp.find("ok");
    if (!ok || ok->type != JsonValue::Type::Bool || !ok->boolean) {
        const JsonValue *err = resp.find("error");
        std::fprintf(stderr, "lva_client: server: %s\n",
                     err ? err->asString().c_str() : "request failed");
        return 1;
    }

    if (opt.op == "sweep")
        return handleSweepResponse(opt, resp);

    // ping / stats / shutdown / eval: the response payload is the
    // useful output; print it as-is.
    std::printf("%s\n", payload.c_str());
    return 0;
}
