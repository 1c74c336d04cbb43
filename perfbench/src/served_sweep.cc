/**
 * @file
 * served_sweep: an in-process ServeLoop + EvalService answering a
 * closed loop of two lva-rpc-v1 clients that frame their requests with
 * the repository's own writeFrame/readFrame, exactly as lva_client
 * does (no TCP_NODELAY, no single-buffer send).
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "bench_workloads.hh"
#include "eval/service.hh"
#include "util/checkpoint.hh"
#include "util/net.hh"
#include "util/random.hh"
#include "util/stats_json.hh"

namespace perfbench {

namespace {

const char *const kDriver = "perfbench_served";
constexpr u32 kSeeds = 1;
constexpr double kScale = 0.1;
constexpr u32 kClients = 2;
constexpr u32 kHandlers = 2;
constexpr u64 kWireTimeoutMs = 600000;
constexpr u32 kEvalRepeats = 3; ///< evals per (workload, config) per pass

using lva::ApproxMemory;
using lva::ApproximatorConfig;
using lva::Evaluator;
using lva::EvalResult;
using lva::JsonValue;
using lva::SweepPoint;
using lva::TcpStream;

/** The request configurations: the RPC "config" member and the same
 *  edit applied directly, so the check also covers the decoding. */
struct CatalogConfig
{
    const char *label;
    const char *json; ///< "" = no config member (baseline)
    u32 ghb;          ///< ~0u = keep the baseline's
    u32 degree;       ///< ~0u = keep the baseline's
};

const CatalogConfig kCatalog[] = {
    {"baseline", "", ~0u, ~0u},
    {"ghb0", "{\"ghb\":0}", 0, ~0u},
    {"degree4", "{\"degree\":4}", ~0u, 4},
    {"degree16", "{\"degree\":16}", ~0u, 16},
};

/** The three-point sweep shapes (catalog indices). */
const std::vector<std::vector<u32>> kSweepShapes = {
    {0, 1, 2}, {0, 2, 3}, {1, 2, 3},
};

ApproxMemory::Config
directConfig(u32 c)
{
    ApproxMemory::Config cfg = Evaluator::baselineLva();
    cfg.editApprox([&](ApproximatorConfig &a) {
        if (kCatalog[c].ghb != ~0u)
            a.ghbEntries = kCatalog[c].ghb;
        if (kCatalog[c].degree != ~0u)
            a.approxDegree = kCatalog[c].degree;
    });
    return cfg;
}

std::string
pointJson(const std::string &workload, u32 c)
{
    std::string p = std::string("{\"label\":\"") + kCatalog[c].label +
                    "\",\"workload\":" + lva::jsonQuote(workload);
    if (*kCatalog[c].json)
        p += std::string(",\"config\":") + kCatalog[c].json;
    return p + "}";
}

std::string
requestPrefix(const char *op)
{
    return std::string("{\"schema\":") + lva::jsonQuote(lva::rpcSchema()) +
           ",\"op\":\"" + op + "\"";
}

/** The server, its handler threads and the connected clients. */
class ServedStack
{
  public:
    /** The set-up: service, golden warm-up, loop, connect + ping. */
    ServedStack()
    {
        lva::ServeOptions opts;
        opts.workers = kHandlers;
        opts.jobs = 1;
        opts.deadlineMs = kWireTimeoutMs;
        service_ = std::make_unique<lva::EvalService>(kSeeds, kScale, opts);
        const double g0 = nowSec();
        for (const std::string &name : lva::allWorkloadNames())
            service_->evaluator().evaluatePrecise(name);
        goldenS = nowSec() - g0;
        loop_ = std::make_unique<lva::ServeLoop>(*service_, opts);
        server_ = std::thread([this] { loop_->run(); });
        try {
            for (u32 c = 0; c < kClients; ++c) {
                clients.push_back(TcpStream::connectTo(
                    "127.0.0.1", loop_->port(), kWireTimeoutMs));
                roundTrip(c, requestPrefix("ping") + "}");
            }
        } catch (...) {
            stop();
            throw;
        }
    }

    ~ServedStack() { stop(); }

    ServedStack(const ServedStack &) = delete;
    ServedStack &operator=(const ServedStack &) = delete;

    lva::EvalService &service() { return *service_; }

    /** One request on client @p c's connection; throws NetError. */
    std::string
    roundTrip(u32 c, const std::string &request)
    {
        std::string response;
        lva::writeFrame(clients[c], request, kWireTimeoutMs);
        if (!lva::readFrame(clients[c], response, kWireTimeoutMs))
            throw lva::NetError("server closed the connection");
        return response;
    }

    std::vector<TcpStream> clients;
    double goldenS = 0.0;

  private:
    void
    stop()
    {
        clients.clear(); // EOF ends each handler's connection
        loop_->requestStop();
        if (server_.joinable())
            server_.join();
    }

    std::unique_ptr<lva::EvalService> service_;
    std::unique_ptr<lva::ServeLoop> loop_;
    std::thread server_;
};

/** Client-side results of one pass over the schedule. */
struct PassResult
{
    double wallS = 0.0;
    std::vector<double> latencyS;
    std::vector<std::string> responses;
    std::vector<bool> netFailed;
    u64 requestBytes = 0, responseBytes = 0;
};

/**
 * One closed-loop pass: each client sends the next unsent request of
 * the schedule as soon as its previous one was answered.
 */
PassResult
runPass(ServedStack &stack, const std::vector<ServedRequest> &schedule,
        Tracer &tracer, long root)
{
    PassResult p;
    const std::size_t n = schedule.size();
    p.latencyS.assign(n, 0.0);
    p.responses.assign(n, "");
    p.netFailed.assign(n, false);
    std::atomic<std::size_t> next{0};
    std::atomic<u64> reqBytes{0}, respBytes{0};
    auto client = [&](u32 c) {
        for (std::size_t i = next++; i < n; i = next++) {
            ScopedSpan span(tracer, "net.roundtrip", root, i);
            const double t0 = nowSec();
            try {
                p.responses[i] = stack.roundTrip(c, schedule[i].payload);
            } catch (const std::exception &) {
                p.netFailed[i] = true; // this connection is done
                return;
            }
            p.latencyS[i] = nowSec() - t0;
            reqBytes += 8 + schedule[i].payload.size();
            respBytes += 8 + p.responses[i].size();
        }
    };
    const double t0 = nowSec();
    std::vector<std::thread> threads;
    for (u32 c = 0; c < kClients; ++c)
        threads.emplace_back(client, c);
    for (std::thread &t : threads)
        t.join();
    p.wallS = nowSec() - t0;
    for (std::size_t i = next.load(); i < n; ++i)
        p.netFailed[i] = true; // never sent: both connections broke
    p.requestBytes = reqBytes;
    p.responseBytes = respBytes;
    return p;
}

/** What a request must answer, computed directly (no service). */
struct Expected
{
    std::vector<EvalResult> results; ///< one per point (eval: one)
    std::string exportText;          ///< sweep only
    double instructions = 0.0;
    double evaluateS = 0.0;
    double renderS = 0.0;
};

class DirectOracle
{
  public:
    DirectOracle() : eval_(kSeeds, kScale), runner_(eval_, 1) {}

    const Expected &
    expected(const ServedRequest &r)
    {
        auto it = cache_.find(r.payload);
        if (it != cache_.end())
            return it->second;
        Expected e;
        const double t0 = nowSec();
        if (r.sweep) {
            std::vector<SweepPoint> points;
            for (u32 c : r.configs)
                points.push_back(
                    {kCatalog[c].label, r.workload, directConfig(c)});
            lva::SweepOptions opts;
            opts.driver = kDriver;
            const lva::SweepOutcome out = runner_.runChecked(points, opts);
            const double t1 = nowSec();
            e.exportText = lva::renderSweepStats(kDriver, points, out);
            e.renderS = nowSec() - t1;
            e.evaluateS = t1 - t0;
            e.results = out.results;
        } else {
            e.results.push_back(
                eval_.evaluate(r.workload, directConfig(r.configs[0])));
            e.evaluateS = nowSec() - t0;
        }
        for (const EvalResult &res : e.results)
            e.instructions += res.instructions;
        return cache_.emplace(r.payload, std::move(e)).first->second;
    }

  private:
    Evaluator eval_;
    lva::SweepRunner runner_;
    std::map<std::string, Expected> cache_;
};

/** Whether @p response is the right answer to @p r. */
bool
responseMatches(const ServedRequest &r, const std::string &response,
                const Expected &e)
{
    try {
        const JsonValue resp = lva::parseJson(response);
        const JsonValue *ok = resp.find("ok");
        if (!ok || ok->type != JsonValue::Type::Bool || !ok->boolean)
            return false; // includes busy refusals
        if (r.sweep)
            return resp.at("failures").asU64() == 0 &&
                   resp.at("export").asString() == e.exportText;
        const JsonValue &res = resp.at("result");
        const EvalResult &x = e.results[0];
        return res.at("preciseMpki").asDouble() == x.preciseMpki &&
               res.at("mpki").asDouble() == x.mpki &&
               res.at("normMpki").asDouble() == x.normMpki &&
               res.at("normFetches").asDouble() == x.normFetches &&
               res.at("coverage").asDouble() == x.coverage &&
               res.at("outputError").asDouble() == x.outputError &&
               res.at("instrVariation").asDouble() == x.instrVariation;
    } catch (const std::exception &) {
        return false;
    }
}

/** serve.* counters from a `stats` response. */
struct ServeCounters
{
    u64 hits = 0, misses = 0, rejects = 0;
};

ServeCounters
serveCounters(ServedStack &stack)
{
    const JsonValue resp = lva::parseJson(
        stack.roundTrip(0, requestPrefix("stats") + "}"));
    const JsonValue &serve = resp.at("serve");
    ServeCounters c;
    c.hits = serve.at("serve.cache.hits").at("value").asU64();
    c.misses = serve.at("serve.cache.misses").at("value").asU64();
    c.rejects = serve.at("serve.rejects").at("value").asU64();
    return c;
}

} // namespace

std::vector<ServedRequest>
servedSchedule(u64 seed)
{
    // A fixed multiset (every eval kEvalRepeats times, every sweep shape
    // once per workload: 84 evals + 21 sweeps = 80% / 20%) in a seeded
    // order, so every seed asks for the same work.
    std::vector<ServedRequest> reqs;
    for (const std::string &w : lva::allWorkloadNames()) {
        for (u32 c = 0; c < std::size(kCatalog); ++c) {
            ServedRequest r;
            r.workload = w;
            r.configs = {c};
            r.payload = requestPrefix("eval") +
                        ",\"workload\":" + lva::jsonQuote(w);
            if (*kCatalog[c].json)
                r.payload += std::string(",\"config\":") + kCatalog[c].json;
            r.payload += "}";
            for (u32 k = 0; k < kEvalRepeats; ++k)
                reqs.push_back(r);
        }
        for (const std::vector<u32> &shape : kSweepShapes) {
            ServedRequest r;
            r.sweep = true;
            r.workload = w;
            r.configs = shape;
            r.payload = requestPrefix("sweep") + ",\"driver\":\"" +
                        kDriver + "\",\"points\":[";
            for (std::size_t k = 0; k < shape.size(); ++k) {
                if (k > 0)
                    r.payload += ',';
                r.payload += pointJson(w, shape[k]);
            }
            r.payload += "]}";
            reqs.push_back(r);
        }
    }
    lva::Rng rng(seed);
    for (std::size_t i = reqs.size(); i > 1; --i)
        std::swap(reqs[i - 1], reqs[rng.below(i)]);
    return reqs;
}

Report
runServedSweep(const RunOptions &opts)
{
    Report report;
    const std::vector<ServedRequest> schedule = servedSchedule(opts.seed);
    const std::size_t n = schedule.size();

    // Set-up several times; the last stack serves the timed passes.
    Repetitions reps;
    std::unique_ptr<ServedStack> stack;
    for (int i = 0; i < 5; ++i) {
        stack.reset();
        const double t0 = nowSec();
        stack = std::make_unique<ServedStack>();
        reps.setups.push_back(nowSec() - t0);
    }

    Tracer off(false);
    const ServeCounters before = serveCounters(*stack);
    std::vector<PassResult> passes;
    const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;
    repeatWithin(budget, [&] {
        resetPeakRss();
        passes.push_back(runPass(*stack, schedule, off, -1));
        reps.peaks.push_back(peakRssMb());
    });
    const ServeCounters after = serveCounters(*stack);

    // Check every response against a direct evaluation.
    DirectOracle oracle;
    std::vector<double> latencies;
    u64 failed = 0, completed = 0;
    double passInstructions = 0.0;
    for (const ServedRequest &r : schedule)
        passInstructions += oracle.expected(r).instructions;
    double totalWall = 0.0;
    for (const PassResult &p : passes) {
        for (std::size_t i = 0; i < n; ++i) {
            if (p.netFailed[i] ||
                !responseMatches(schedule[i], p.responses[i],
                                 oracle.expected(schedule[i]))) {
                ++failed;
                continue;
            }
            ++completed;
            latencies.push_back(p.latencyS[i]);
        }
        reps.walls.push_back(p.wallS);
        reps.minstrRates.push_back(passInstructions / 1e6 / p.wallS);
        totalWall += p.wallS;
    }
    report.attempted += n * passes.size();
    report.failed += failed;
    if (failed > 0) {
        report.correct = false;
        report.note("output check FAILED for " + std::to_string(failed) +
                    " served requests");
    }

    const double wall = reportEndToEnd(report, reps);
    const std::optional<double> p50 = percentile(latencies, 0.5);
    const std::optional<double> p90 = percentile(latencies, 0.9);
    if (p50)
        report.add("req_p50_ms", 1e3 * *p50, "ms");
    if (p90)
        report.add("req_p90_ms", 1e3 * *p90, "ms");
    report.add("req_p90_samples_beyond",
               static_cast<double>(samplesBeyond(latencies.size(), 0.9)),
               "count");
    report.add("req_per_s", static_cast<double>(completed) / totalWall, "1/s");
    char line[240];
    std::snprintf(line, sizeof(line),
                  "served_sweep: closed loop, %u clients on persistent "
                  "connections, %u handler threads, sweep jobs 1; %zu "
                  "passes of %zu requests: %llu attempted, %llu completed, "
                  "%llu failed; percentiles over %zu samples%s",
                  kClients, kHandlers, passes.size(), n,
                  static_cast<unsigned long long>(n * passes.size()),
                  static_cast<unsigned long long>(completed),
                  static_cast<unsigned long long>(failed), latencies.size(),
                  p90 ? "" : " (p90 refused: < 10 samples beyond it)");
    report.note(line);
    if (!opts.trace)
        return report;

    // Traced pass over TCP, then the same list through handle() alone.
    Tracer tracer(true);
    const long tcpRoot = tracer.begin("served.pass", -1);
    const PassResult traced = runPass(*stack, schedule, tracer, tcpRoot);
    tracer.end(tcpRoot);
    std::vector<double> handleS(n, 0.0);
    const long handleRoot = tracer.begin("served.in_process", -1);
    {
        std::atomic<std::size_t> next{0};
        std::atomic<u64> bad{0};
        auto worker = [&] {
            for (std::size_t i = next++; i < n; i = next++) {
                ScopedSpan span(tracer, "service.handle", handleRoot, i);
                const double t0 = nowSec();
                const std::string resp =
                    stack->service().handle(schedule[i].payload);
                handleS[i] = nowSec() - t0;
                // Every schedule entry is already in the oracle's
                // cache, so these concurrent lookups only read it.
                if (!responseMatches(schedule[i], resp,
                                     oracle.expected(schedule[i])))
                    ++bad;
            }
        };
        std::vector<std::thread> threads;
        for (u32 c = 0; c < kHandlers; ++c)
            threads.emplace_back(worker);
        for (std::thread &t : threads)
            t.join();
        u64 tracedBad = bad.load();
        for (std::size_t i = 0; i < n; ++i)
            if (traced.netFailed[i] ||
                !responseMatches(schedule[i], traced.responses[i],
                                 oracle.expected(schedule[i])))
                ++tracedBad;
        report.attempted += 2 * n;
        report.failed += tracedBad;
        if (tracedBad > 0)
            report.correct = false;
    }
    tracer.end(handleRoot);

    // Phase-1 probes of every (workload, config) a pass evaluates.
    std::map<std::pair<std::string, u32>, u32> occurrences;
    for (const ServedRequest &r : schedule)
        for (u32 c : r.configs)
            ++occurrences[{r.workload, c}];
    std::vector<std::pair<std::string, u32>> ops;
    for (const auto &kv : occurrences)
        ops.push_back(kv.first);
    lva::SweepRunner probeRunner(kHandlers); // as many threads as handle()
    const long probeRoot = tracer.begin("probe", -1);
    const auto probes = probeRunner.map(ops.size(), [&](u64 i) {
        return probePhase1(tracer, probeRoot, i, ops[i].first,
                           directConfig(ops[i].second), kScale);
    });
    const auto &names = lva::allWorkloadNames();
    const auto precise = probeRunner.map(names.size(), [&](u64 i) {
        return probePhase1(tracer, probeRoot, ops.size() + i, names[i],
                           Evaluator::preciseConfig(), kScale);
    });
    tracer.end(probeRoot);
    std::vector<Phase1Probe> weighted;
    for (std::size_t i = 0; i < ops.size(); ++i)
        weighted.insert(weighted.end(), occurrences[ops[i]], probes[i]);
    const Phase1Totals p1 = sumProbes(
        weighted, std::vector<bool>(weighted.size(), true), precise);
    reportPhase1(report, p1);

    std::vector<double> roundTrips, handles;
    double roundTripSum = 0.0, handleSum = 0.0;
    double renderS = 0.0, evaluateS = 0.0, exportBytes = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        if (!traced.netFailed[i]) {
            roundTrips.push_back(traced.latencyS[i]);
            roundTripSum += traced.latencyS[i];
        }
        handles.push_back(handleS[i]);
        handleSum += handleS[i];
        const Expected &e = oracle.expected(schedule[i]);
        renderS += e.renderS;
        evaluateS += e.evaluateS;
        exportBytes += static_cast<double>(e.exportText.size());
    }
    const double rtP50 = median(roundTrips);
    const double handleP50 = median(handles);
    report.add("net.roundtrip_ms_p50", 1e3 * rtP50, "ms");
    report.add("service.handle_ms_p50", 1e3 * handleP50, "ms");
    report.add("net.overhead_ms_p50", 1e3 * (rtP50 - handleP50), "ms");
    report.add("net.overhead_vs_p50",
               p50 ? (rtP50 - handleP50) / *p50 : 0.0, "ratio");
    report.add("net.request_bytes", static_cast<double>(traced.requestBytes),
               "bytes");
    report.add("net.response_bytes",
               static_cast<double>(traced.responseBytes), "bytes");
    report.add("serve.busy_rejects",
               static_cast<double>(after.rejects - before.rejects), "count");
    const u64 hits = after.hits - before.hits;
    const u64 misses = after.misses - before.misses;
    const double hitRatio =
        hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0.0;
    report.add("serve.cache_hit_ratio", hitRatio, "fraction");
    report.add("eval.golden_s", stack->goldenS, "s");
    report.add("eval.golden_builds",
               static_cast<double>(
                   stack->service().evaluator().goldenCacheCounters().builds),
               "count");
    report.add("eval.golden_hit_ratio", hitRatio, "fraction");
    report.add("eval.evaluate_s", evaluateS, "s");
    report.add("eval.render_s", renderS, "s");
    report.add("eval.export_bytes", exportBytes, "bytes");
    report.add("sweep.parallel_eff", handleSum / (kHandlers * traced.wallS),
               "fraction");

    // Client thread-seconds: handle() time (split by the probes and the
    // direct render timing), the rest of each round trip is RPC.
    const double inside = p1.generateS + p1.kernelS + p1.phase1S + renderS;
    const double scale = inside > handleSum ? handleSum / inside : 1.0;
    const LedgerSection pass{
        traced.wallS,
        {{"workloads", scale * (p1.generateS + p1.kernelS)},
         {"core", scale * p1.phase1S},
         {"eval.render", scale * renderS},
         {"service", std::max(0.0, handleSum - inside)},
         {"net", std::max(0.0, roundTripSum - handleSum) +
                     std::max(0.0, kClients * traced.wallS - roundTripSum)}}};
    reportLedger(report, {pass}, wall);
    if (!opts.spansPath.empty() && !tracer.write(opts.spansPath))
        report.note("warning: could not write spans to " + opts.spansPath);
    return report;
}

} // namespace perfbench
