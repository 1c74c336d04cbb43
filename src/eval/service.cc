#include "eval/service.hh"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "eval/coord.hh"
#include "sim/machine_config.hh"
#include "util/checkpoint.hh"
#include "util/env_knob.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/stats_json.hh"

namespace lva {
namespace {

/** "{\"schema\":\"lva-rpc-v1\",\"ok\":true,\"op\":<op>" — callers
 *  append further members and the closing brace. */
std::string
okPrefix(const std::string &op)
{
    return std::string("{\"schema\":") + jsonQuote(rpcSchema()) +
           ",\"ok\":true,\"op\":" + jsonQuote(op);
}

/**
 * Config bounds for the keys that size allocations: ApproxMemory
 * builds one lane per thread (the same 1..32 as lva-machine-v1
 * "cores"), and the GHB prefetcher one candidate slot per degree (the
 * paper sweeps up to 16).
 */
constexpr u32 kMaxThreads = 32;
constexpr u32 kMaxPrefetchDegree = 256;

u32
u32Field(const std::string &key, const JsonValue &value, u32 lo = 0,
         u32 hi = std::numeric_limits<u32>::max())
{
    const u64 v = value.asU64();
    if (v < lo || v > hi)
        throw std::runtime_error("config: \"" + key +
                                 "\" out of range");
    return static_cast<u32>(v);
}

MemMode
modeFromName(const std::string &name)
{
    if (name == "lva")
        return MemMode::Lva;
    if (name == "lvp")
        return MemMode::Lvp;
    if (name == "prefetch")
        return MemMode::Prefetch;
    if (name == "precise")
        return MemMode::Precise;
    throw std::runtime_error("config: unknown mode \"" + name + "\"");
}

/**
 * Apply one approximator key to the config's global approx AND every
 * per-thread variant, so a request override like "ghb" stays coherent
 * on a heterogeneous machine; false when @p key is not an approx key.
 */
bool
applyApproxKeyAll(ApproxMemory::Config &out, const std::string &key,
                  const JsonValue &value)
{
    if (!applyApproxKey(out.approx, key, value))
        return false;
    for (ApproximatorConfig &variant : out.threadApprox)
        applyApproxKey(variant, key, value);
    return true;
}

} // namespace

const char *
rpcSchema()
{
    return "lva-rpc-v1";
}

u64
busyRetryAfterMs()
{
    return 100;
}

std::string
busyResponse()
{
    return std::string("{\"schema\":") + jsonQuote(rpcSchema()) +
           ",\"ok\":false,\"busy\":true,\"retryAfterMs\":" +
           std::to_string(busyRetryAfterMs()) +
           ",\"error\":\"server at capacity\"}";
}

std::string
errorResponse(const std::string &message)
{
    return std::string("{\"schema\":") + jsonQuote(rpcSchema()) +
           ",\"ok\":false,\"error\":" + jsonQuote(message) + "}";
}

std::string
fleetRouteKey(const std::string &requestJson)
{
    try {
        const JsonValue req = parseJson(requestJson);
        const std::string op = req.at("op").asString();
        if (op == "eval")
            return req.at("workload").asString();
        if (op == "sweep") {
            std::vector<std::string> names;
            for (const JsonValue &p : req.at("points").items)
                names.push_back(p.at("workload").asString());
            std::sort(names.begin(), names.end());
            names.erase(std::unique(names.begin(), names.end()),
                        names.end());
            std::string key;
            for (const std::string &n : names) {
                if (!key.empty())
                    key += ',';
                key += n;
            }
            // Shard-scoped sweeps (lva_fleet's sharded scatter) carry a
            // "shard" member so distinct shards of one sweep spread
            // across workers even when their workload sets overlap.
            if (const JsonValue *shard = req.find("shard"))
                key += "#shard:" + std::to_string(shard->asU64());
            return key;
        }
        return "op:" + op;
    } catch (const std::exception &) {
        return "op:invalid";
    }
}

u32
fleetShard(const std::string &key, u32 shards)
{
    lva_assert(shards > 0, "fleetShard: no shards");
    u32 best = 0;
    u64 bestScore = 0;
    for (u32 i = 0; i < shards; ++i) {
        const u64 score = fnv1a64(key + "#" + std::to_string(i));
        if (i == 0 || score > bestScore) {
            best = i;
            bestScore = score;
        }
    }
    return best;
}

bool
applyServeFlag(const std::string &flag, const char *text, ServeFlags &out)
{
    const char *f = flag.c_str();
    ServeOptions &s = out.serve;
    if (flag == "--port")
        s.port = static_cast<u16>(flagU64(f, text, 0, 65535));
    else if (flag == "--workers")
        s.workers = static_cast<u32>(flagU64(f, text, 1, 256));
    else if (flag == "--queue")
        s.queueCap = static_cast<u32>(flagU64(f, text, 1, 1000000));
    else if (flag == "--deadline-ms")
        s.deadlineMs = flagU64(f, text, 1, 86400000);
    else if (flag == "--retries")
        s.maxAttempts = static_cast<u32>(flagU64(f, text, 0, 99)) + 1;
    else if (flag == "--jobs")
        s.jobs = static_cast<u32>(flagU64(f, text, 1, 256));
    else if (flag == "--cache")
        s.cacheCap = flagU64(f, text, 0, 1000000);
    else if (flag == "--seeds")
        out.seeds = static_cast<u32>(flagU64(f, text, 1, 64));
    else if (flag == "--scale")
        out.scale = flagF64(f, text, 1e-6, 4.0);
    else
        return false;
    return true;
}

ServeStats::ServeStats()
    : connections_(registry_.counter(
          "serve.connections", "client connections accepted",
          "connections")),
      rejects_(registry_.counter(
          "serve.rejects",
          "connections refused with a busy response at queue capacity",
          "connections")),
      requests_(registry_.counter("serve.requests",
                                  "request frames received",
                                  "requests")),
      errors_(registry_.counter("serve.errors",
                                "requests answered ok:false",
                                "requests")),
      failures_(registry_.counter(
          "serve.failures",
          "requests still failing after every isolated attempt",
          "requests")),
      retries_(registry_.counter(
          "serve.retries", "extra request attempts consumed by retry",
          "attempts")),
      queueDepth_(registry_.gauge(
          "serve.queueDepth",
          "accepted connections waiting for a handler", "connections")),
      cacheHits_(registry_.counter(
          "serve.cache.hits", "golden acquisitions served from cache",
          "goldens")),
      cacheMisses_(registry_.counter(
          "serve.cache.misses",
          "golden acquisitions that initiated a precise run",
          "goldens")),
      cacheBuilds_(registry_.counter("serve.cache.builds",
                                     "precise golden runs completed",
                                     "goldens")),
      cacheCoalesced_(registry_.counter(
          "serve.cache.coalesced",
          "golden acquisitions coalesced onto an in-flight build",
          "goldens")),
      cacheEvictions_(registry_.counter(
          "serve.cache.evictions",
          "goldens evicted by capacity pressure", "goldens")),
      cacheSize_(registry_.gauge("serve.cache.size",
                                 "resident goldens", "goldens")),
      cacheCapacity_(registry_.gauge(
          "serve.cache.capacity",
          "golden-cache bound (0 = unbounded)", "goldens"))
{
}

void
ServeStats::onConnection()
{
    std::lock_guard<std::mutex> lock(mutex_);
    connections_.inc();
}

void
ServeStats::onReject()
{
    std::lock_guard<std::mutex> lock(mutex_);
    rejects_.inc();
}

void
ServeStats::onRequest()
{
    std::lock_guard<std::mutex> lock(mutex_);
    requests_.inc();
}

void
ServeStats::onError()
{
    std::lock_guard<std::mutex> lock(mutex_);
    errors_.inc();
}

void
ServeStats::onFailure()
{
    std::lock_guard<std::mutex> lock(mutex_);
    failures_.inc();
}

void
ServeStats::onRetries(u32 extra)
{
    std::lock_guard<std::mutex> lock(mutex_);
    retries_.inc(extra);
}

void
ServeStats::setQueueDepth(std::size_t depth)
{
    std::lock_guard<std::mutex> lock(mutex_);
    queueDepth_.set(static_cast<double>(depth));
}

void
ServeStats::syncGoldenCache(const GoldenCacheCounters &c)
{
    std::lock_guard<std::mutex> lock(mutex_);
    cacheHits_.inc(c.hits - lastCache_.hits);
    cacheMisses_.inc(c.misses - lastCache_.misses);
    cacheBuilds_.inc(c.builds - lastCache_.builds);
    cacheCoalesced_.inc(c.coalesced - lastCache_.coalesced);
    cacheEvictions_.inc(c.evictions - lastCache_.evictions);
    cacheSize_.set(static_cast<double>(c.size));
    cacheCapacity_.set(static_cast<double>(c.capacity));
    lastCache_ = c;
}

StatSnapshot
ServeStats::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return registry_.snapshot();
}

ApproxMemory::Config
configFromJson(const JsonValue &cfg)
{
    return configFromJson(cfg, Evaluator::baselineLva());
}

ApproxMemory::Config
configFromJson(const JsonValue &cfg, const ApproxMemory::Config &base)
{
    if (!cfg.isObject())
        throw std::runtime_error("config must be a JSON object");

    // "base" picks the starting configuration regardless of where it
    // appears in the object, so {"ghb":2,"base":"precise"} does not
    // silently drop the ghb override.
    ApproxMemory::Config out = base;
    if (const JsonValue *b = cfg.find("base")) {
        const std::string &name = b->asString();
        if (name == "precise")
            out = Evaluator::preciseBaseFor(base);
        else if (name != "baseline")
            throw std::runtime_error("config: unknown base \"" + name +
                                     "\"");
    }

    // Approximator keys are decoded by the same applyApproxKey the
    // lva-machine-v1 parser uses, so the RPC "config" object and the
    // machine file's "approx" object speak identical key names.
    for (const auto &[key, value] : cfg.members) {
        if (key == "base") {
            // handled above
        } else if (key == "mode") {
            out.mode = modeFromName(value.asString());
        } else if (key == "threads") {
            out.threads = u32Field(key, value, 1, kMaxThreads);
            // A heterogeneous machine fixes one approximator per core.
            if (!out.threadApprox.empty() &&
                out.threadApprox.size() != out.threads)
                throw std::runtime_error("config: \"threads\" must equal "
                                         "the machine's core count");
        } else if (key == "prefetchDegree") {
            out.prefetch.degree = u32Field(key, value, 0, kMaxPrefetchDegree);
        } else if (applyApproxKeyAll(out, key, value)) {
            // one approximator knob, applied to every variant
        } else {
            throw std::runtime_error("config: unknown key \"" + key +
                                     "\"");
        }
    }
    return out;
}

std::vector<SweepPoint>
sweepPointsFromJson(const JsonValue &points)
{
    return sweepPointsFromJson(points, Evaluator::baselineLva());
}

std::vector<SweepPoint>
sweepPointsFromJson(const JsonValue &points,
                    const ApproxMemory::Config &base)
{
    if (!points.isArray())
        throw std::runtime_error("points must be a JSON array");
    std::vector<SweepPoint> out;
    out.reserve(points.items.size());
    for (std::size_t i = 0; i < points.items.size(); ++i) {
        const JsonValue &p = points.items[i];
        const std::string at = "points[" + std::to_string(i) + "]";
        if (!p.isObject())
            throw std::runtime_error(at + " must be a JSON object");
        for (const auto &[key, value] : p.members) {
            (void)value;
            if (key != "label" && key != "workload" && key != "config")
                throw std::runtime_error(at + ": unknown key \"" +
                                         key + "\"");
        }
        SweepPoint sp;
        sp.label = p.at("label").asString();
        sp.workload = p.at("workload").asString();
        sp.config = base;
        if (const JsonValue *cfg = p.find("config"))
            sp.config = configFromJson(*cfg, base);
        out.push_back(std::move(sp));
    }
    return out;
}

EvalService::EvalService(u32 seeds, double scale,
                         const ServeOptions &opts, u32 pointAttempts)
    : eval_(seeds, scale), runner_(eval_, opts.jobs),
      maxAttempts_(opts.maxAttempts), pointAttempts_(pointAttempts)
{
    lva_assert(maxAttempts_ >= 1 && pointAttempts_ >= 1,
               "EvalService: attempts must be at least 1");
    eval_.setGoldenCacheCapacity(opts.cacheCap);
}

std::string
EvalService::handle(const std::string &requestJson)
{
    stats_.onRequest();
    const u64 index = nextRequest_.fetch_add(1);

    JsonValue req;
    std::string op;
    try {
        req = parseJson(requestJson);
        if (!req.isObject())
            throw std::runtime_error(
                "request must be a JSON object");
        if (const JsonValue *schema = req.find("schema")) {
            if (schema->asString() != rpcSchema())
                throw std::runtime_error("unsupported schema \"" +
                                         schema->asString() + "\"");
        }
        op = req.at("op").asString();
    } catch (const std::exception &e) {
        stats_.onError();
        return errorResponse(std::string("bad request: ") + e.what());
    }

    // Same retry discipline as a sweep point (DESIGN.md section 13):
    // each attempt runs under failure isolation and hits the request's
    // fault site, so LVA_FAULT can inject transient or permanent
    // failures per request, deterministically for any worker count.
    const std::string site = "serve.request." + std::to_string(index);
    std::string last_error;
    for (u32 attempt = 1; attempt <= maxAttempts_; ++attempt) {
        if (attempt > 1)
            stats_.onRetries(1);
        try {
            ScopedFailureIsolation isolate;
            faultPoint(site);
            return dispatch(req, op);
        } catch (const std::exception &e) {
            last_error = e.what();
        } catch (...) {
            last_error = "unknown error";
        }
    }
    stats_.onFailure();
    stats_.onError();
    return errorResponse(op + ": " + last_error);
}

std::string
EvalService::dispatch(const JsonValue &req, const std::string &op)
{
    if (op == "ping")
        return handlePing();
    if (op == "stats")
        return handleStats();
    if (op == "shutdown")
        return handleShutdown();
    if (op == "eval")
        return handleEval(req);
    if (op == "sweep")
        return handleSweep(req);
    throw std::runtime_error("unknown op \"" + op + "\"");
}

std::string
EvalService::handlePing() const
{
    return okPrefix("ping") +
           ",\"jobs\":" + std::to_string(runner_.jobs()) +
           ",\"seeds\":" + std::to_string(eval_.seeds()) +
           ",\"scale\":" + jsonDouble(eval_.scale()) + "}";
}

std::string
EvalService::handleStats()
{
    stats_.syncGoldenCache(eval_.goldenCacheCounters());
    return okPrefix("stats") +
           ",\"serve\":" + snapshotToJson(stats_.snapshot()) + "}";
}

std::string
EvalService::handleShutdown()
{
    shutdown_.store(true);
    return okPrefix("shutdown") + ",\"draining\":true}";
}

namespace {

/**
 * Decode a request's optional "machine" member (an inline
 * lva-machine-v1 object, docs/topology.md) into the phase-1 base
 * config every point starts from; absent = the built-in Table II
 * machine, whose base is exactly Evaluator::baselineLva().
 */
ApproxMemory::Config
machineBaseFromRequest(const JsonValue &req)
{
    if (const JsonValue *m = req.find("machine"))
        return machineFromJson(*m).phase1Lva();
    return Evaluator::baselineLva();
}

/** A sweep reply up to (not including) its shard/detail/export tail. */
std::string
sweepSummary(const std::string &driver, std::size_t points,
             const SweepOutcome &outcome)
{
    return okPrefix("sweep") + ",\"driver\":" + jsonQuote(driver) +
           ",\"points\":" + std::to_string(points) +
           ",\"failures\":" + std::to_string(outcome.failures.size()) +
           ",\"resumed\":" + std::to_string(outcome.resumed);
}

/**
 * The closing "export" member: the export travels inside the response
 * as a quoted string; the client unescapes it back to the exact bytes
 * the driver's exportSweepStats would have written to results/stats/.
 */
std::string
exportMember(const std::string &driver,
             const std::vector<SweepPoint> &points,
             const SweepOutcome &outcome)
{
    return ",\"export\":" +
           jsonQuote(renderSweepStats(driver, points, outcome)) + "}";
}

} // namespace

std::string
EvalService::handleEval(const JsonValue &req)
{
    const std::string workload = req.at("workload").asString();
    const ApproxMemory::Config base = machineBaseFromRequest(req);
    ApproxMemory::Config cfg = base;
    if (const JsonValue *c = req.find("config"))
        cfg = configFromJson(*c, base);

    const EvalResult r = eval_.evaluate(workload, cfg);
    return okPrefix("eval") +
           ",\"workload\":" + jsonQuote(workload) +
           ",\"result\":{\"preciseMpki\":" + jsonDouble(r.preciseMpki) +
           ",\"mpki\":" + jsonDouble(r.mpki) +
           ",\"normMpki\":" + jsonDouble(r.normMpki) +
           ",\"normFetches\":" + jsonDouble(r.normFetches) +
           ",\"coverage\":" + jsonDouble(r.coverage) +
           ",\"outputError\":" + jsonDouble(r.outputError) +
           ",\"instrVariation\":" + jsonDouble(r.instrVariation) +
           "}}";
}

std::string
EvalService::handleSweep(const JsonValue &req)
{
    const std::string driver = req.at("driver").asString();
    if (driver.empty())
        throw std::runtime_error("sweep: driver must be non-empty");
    const std::vector<SweepPoint> points = sweepPointsFromJson(
        req.at("points"), machineBaseFromRequest(req));
    if (points.empty())
        throw std::runtime_error("sweep: no points");

    // No checkpoint or resume: resuming someone else's manifest
    // mid-service would return stale results.
    SweepOptions opts;
    opts.driver = driver;
    opts.maxAttempts = pointAttempts_;
    SweepOutcome outcome = runner_.runChecked(points, opts);

    std::string out = sweepSummary(driver, points.size(), outcome);
    // A shard-scoped request ("shard": n) is echoed back so the
    // sharding frontend can verify the response matches its scatter.
    const JsonValue *shard = req.find("shard");
    if (shard != nullptr)
        out += ",\"shard\":" + std::to_string(shard->asU64());

    const JsonValue *detail = req.find("detail");
    if (detail != nullptr && detail->type == JsonValue::Type::Bool &&
        detail->boolean) {
        // Detailed response (a sharded sweep's gather): the shard's
        // journal record instead of the rendered shard-local export —
        // lva_fleet merges the shards and renders the export itself.
        ShardRecord record;
        record.shard =
            shard != nullptr ? static_cast<u32>(shard->asU64()) : 0;
        record.results = std::move(outcome.results);
        record.failures = std::move(outcome.failures);
        return out + ",\"record\":" + encodeShardRecord(record) + "}";
    }

    return out + exportMember(driver, points, outcome);
}

std::string
sweepResponse(const std::string &driver,
              const std::vector<SweepPoint> &points,
              const SweepOutcome &outcome)
{
    return sweepSummary(driver, points.size(), outcome) +
           exportMember(driver, points, outcome);
}

ServeLoop::ServeLoop(EvalService &service, const ServeOptions &opts)
    : service_(service), opts_(opts), listener_(opts_.port)
{
    lva_assert(opts_.workers >= 1 && opts_.queueCap >= 1 &&
                   opts_.deadlineMs >= 1,
               "ServeLoop: workers, queueCap and deadlineMs must be "
               "at least 1");
}

ServeLoop::~ServeLoop()
{
    requestStop();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
    }
    cv_.notify_all();
    for (auto &t : handlers_)
        if (t.joinable())
            t.join();
}

bool
ServeLoop::stopping() const
{
    return stop_.load() || service_.shutdownRequested();
}

void
ServeLoop::run()
{
    handlers_.reserve(opts_.workers);
    for (u32 i = 0; i < opts_.workers; ++i)
        handlers_.emplace_back([this] { handlerMain(); });

    while (!stopping()) {
        TcpStream conn;
        try {
            faultPoint("serve.accept");
            // Short poll so the stop flag is observed promptly even
            // with no traffic (SIGTERM must drain, not hang).
            conn = listener_.acceptOne(200);
        } catch (const std::exception &e) {
            lva_warn("serve: accept: %s", e.what());
            continue;
        }
        if (!conn.valid())
            continue; // poll tick: re-check the stop flag

        service_.stats().onConnection();
        {
            std::unique_lock<std::mutex> lock(mutex_);
            if (queue_.size() >= opts_.queueCap) {
                lock.unlock();
                service_.stats().onReject();
                try {
                    // Best-effort: a client gone before the busy
                    // frame lands is not the server's problem.
                    writeFrame(conn, busyResponse(), 1000);
                } catch (const std::exception &) {
                }
                continue;
            }
            queue_.push_back(std::move(conn));
            service_.stats().setQueueDepth(queue_.size());
        }
        cv_.notify_one();
    }

    // Drain: stop accepting, let the handlers finish every queued
    // connection's current request, then return.
    {
        std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
    }
    cv_.notify_all();
    for (auto &t : handlers_)
        t.join();
    handlers_.clear();
}

void
ServeLoop::handlerMain()
{
    for (;;) {
        TcpStream conn;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock,
                     [this] { return closed_ || !queue_.empty(); });
            if (queue_.empty())
                return; // closed and drained
            conn = std::move(queue_.front());
            queue_.pop_front();
            service_.stats().setQueueDepth(queue_.size());
        }
        handleConnection(std::move(conn));
    }
}

void
ServeLoop::handleConnection(TcpStream conn)
{
    try {
        std::string request;
        while (readFrame(conn, request, opts_.deadlineMs)) {
            writeFrame(conn, service_.handle(request),
                       opts_.deadlineMs);
            if (stopping())
                break; // drain: finish this request, take no more
        }
    } catch (const std::exception &e) {
        // A mid-request disconnect, a torn frame, or a wire deadline
        // ends this connection only; the daemon keeps serving.
        lva_warn("serve: connection: %s", e.what());
    }
}

} // namespace lva
