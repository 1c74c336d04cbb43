/**
 * @file
 * The evaluation service: sweep-as-a-service on top of the batch
 * harness (protocol spec: docs/serving.md).
 *
 * PRs 1-4 built a parallel, fault-tolerant sweep engine that every
 * bench driver spawns anew — so every design-space question pays the
 * process start *and* rebuilds every golden (precise) baseline run.
 * The service keeps one Evaluator and one SweepRunner alive in a
 * long-lived daemon (`tools/lva_served`): requests arrive as
 * length-prefixed JSON frames (`lva-rpc-v1`, util/net), sweep points
 * fan out across the shared worker pool, golden runs are computed
 * once per (workload, seed) for the life of the process, and the
 * response carries the same `lva-stats-v1` export a direct bench run
 * would have written — byte-identical, for any LVA_JOBS value.
 *
 * The PR 4 robustness layer is reused end to end: every request runs
 * under ScopedFailureIsolation with bounded retry (fault site
 * "serve.request.<n>"), every sweep point inside it under the
 * engine's own per-point isolation; the accept path has its own site
 * ("serve.accept"); the connection queue is bounded with an explicit
 * `busy` response, never unbounded growth; and SIGTERM drains
 * in-flight requests before the daemon exits 0.
 *
 * Split for testability: EvalService is pure request -> response
 * (exercised in-process by tests/serve_test.cc), ServeLoop owns the
 * sockets, queue and handler threads, and tools/lva_served adds
 * signals and flags on top.
 */

#ifndef LVA_EVAL_SERVICE_HH
#define LVA_EVAL_SERVICE_HH

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "eval/sweep.hh"
#include "util/net.hh"
#include "util/stat_registry.hh"

namespace lva {

/** The RPC schema tag carried by every request and response. */
const char *rpcSchema();

/**
 * Delay clients should wait before retrying a shed request, carried
 * as the busy response's "retryAfterMs" member. A fixed constant, not
 * a knob: deterministic backoff is what keeps fleet runs reproducible
 * (docs/serving.md, "Admission control").
 */
u64 busyRetryAfterMs();

/** The canned at-capacity response (sent by the accept loop). */
std::string busyResponse();

/** An `ok:false` response carrying @p message as its "error". */
std::string errorResponse(const std::string &message);

/**
 * The response to a finished `sweep`: driver, point, failure and
 * `resumed` counts, and the rendered lva-stats-v1 export. Both a
 * worker and lva_fleet's sharded path answer with it.
 */
std::string sweepResponse(const std::string &driver,
                          const std::vector<SweepPoint> &points,
                          const SweepOutcome &outcome);

/**
 * Routing key for a request payload: sweeps and evals key on their
 * (sorted, deduplicated) workload set so every request touching a
 * workload's goldens lands on the shard whose cache holds them;
 * control ops (ping/stats) key on the op name. Malformed payloads
 * get a stable fallback key — the worker will reject them anyway.
 */
std::string fleetRouteKey(const std::string &requestJson);

/**
 * Rendezvous (highest-random-weight) hash: the shard in [0, shards)
 * whose fnv1a64(key "#" shard) score is highest. Every frontend
 * computes the same mapping with no shared state, and removing a
 * shard only remaps the keys that were on it — the property that
 * keeps sibling caches hot across worker respawns.
 */
u32 fleetShard(const std::string &key, u32 shards);

/**
 * Serving policy. Field defaults of 0 defer to the LVA_SERVE_* knobs
 * noted below, then to the built-in defaults; an explicit nonzero
 * field always wins (same convention as SweepOptions).
 */
struct ServeOptions
{
    /** TCP port on 127.0.0.1 (LVA_SERVE_PORT; 0 = ephemeral). */
    u16 port = 0;

    /** Connection-handler threads (LVA_SERVE_WORKERS; default 2). */
    u32 workers = 0;

    /** Accepted connections allowed to wait for a handler before new
     *  ones are refused with `busy` (LVA_SERVE_QUEUE; default 16). */
    u32 queueCap = 0;

    /** Per-connection deadline in ms for receiving one complete
     *  request frame (LVA_SERVE_DEADLINE_MS; default 10000). Applies
     *  to the wire, not to evaluation time. */
    u64 deadlineMs = 0;

    /** Attempts per request, >= 1 (LVA_SERVE_RETRIES=<n> means 1+n
     *  attempts; default 1). Distinct from LVA_RETRIES, which the
     *  sweep engine applies per *point* inside the request. */
    u32 maxAttempts = 0;

    /** Sweep-pool worker threads (0 = LVA_JOBS, then hardware).
     *  Exports are byte-identical for any value. */
    u32 jobs = 0;

    /** Golden-cache capacity in entries (LVA_SERVE_CACHE; 0 = the
     *  knob, and an unset knob means unbounded). Exports are
     *  byte-identical for any capacity — see docs/serving.md. */
    u64 cacheCap = 0;
};

/** Resolve @p opts against the LVA_SERVE_* knobs and defaults. */
ServeOptions resolveServeOptions(ServeOptions opts);

/** lva_served's command-line settings: the serving options plus the
 *  evaluator's seeds and scale (0 = LVA_SEEDS / LVA_SCALE). */
struct ServeFlags
{
    ServeOptions serve;
    u32 seeds = 0;
    double scale = 0.0;
};

/**
 * Apply lva_served's numeric flag @p flag with operand @p text to
 * @p out; false when @p flag is not one of them. Each operand must lie
 * in the range its LVA_* knob enforces (--port 0..65535, --workers
 * 1..256, ...); anything else exits 2 (flagU64 in util/env_knob.hh).
 * lva_fleet checks the flags it forwards to its workers here too.
 */
bool applyServeFlag(const std::string &flag, const char *text,
                    ServeFlags &out);

/**
 * The process-wide "serve.*" stats subtree (cataloged in
 * docs/metrics.md, exported by the `stats` op). Registries are
 * thread-confined by design, so this wrapper serializes the
 * multi-threaded serving counters behind one mutex — request rates
 * are no hot path.
 */
class ServeStats
{
  public:
    ServeStats();

    void onConnection();
    void onReject();
    void onRequest();
    void onError();
    void onFailure();

    /** Record @p extra attempts consumed beyond the first. */
    void onRetries(u32 extra);

    void setQueueDepth(std::size_t depth);

    /**
     * Mirror the evaluator's golden-cache lifecycle totals into the
     * "serve.cache.*" subtree (counters advance by delta — registry
     * counters are monotonic; size/capacity are gauges).
     */
    void syncGoldenCache(const GoldenCacheCounters &c);

    /** Path-sorted snapshot of the serve.* subtree. */
    StatSnapshot snapshot() const;

  private:
    mutable std::mutex mutex_;
    StatRegistry registry_;
    Counter &connections_;
    Counter &rejects_;
    Counter &requests_;
    Counter &errors_;
    Counter &failures_;
    Counter &retries_;
    Gauge &queueDepth_;
    Counter &cacheHits_;
    Counter &cacheMisses_;
    Counter &cacheBuilds_;
    Counter &cacheCoalesced_;
    Counter &cacheEvictions_;
    Gauge &cacheSize_;
    Gauge &cacheCapacity_;
    GoldenCacheCounters lastCache_{}; ///< last synced totals (deltas)
};

/**
 * Decode a request "config" object into an ApproxMemory::Config.
 * Keys mirror the lva_explore flags (docs/serving.md lists them);
 * unknown keys throw std::runtime_error — a silently-ignored typo
 * would return results for the wrong configuration.
 */
ApproxMemory::Config configFromJson(const JsonValue &cfg);

/**
 * As above against an explicit base configuration (a machine's
 * phase-1 projection): "base":"baseline" (default) starts from
 * @p base, "base":"precise" from its precise counterpart, and an
 * approximator override applies to every per-thread variant too.
 */
ApproxMemory::Config configFromJson(const JsonValue &cfg,
                                    const ApproxMemory::Config &base);

/** Decode a request "points" array into sweep points. */
std::vector<SweepPoint> sweepPointsFromJson(const JsonValue &points);

/** As above with every point starting from @p base. */
std::vector<SweepPoint>
sweepPointsFromJson(const JsonValue &points,
                    const ApproxMemory::Config &base);

/**
 * Request -> response, no sockets involved.
 *
 * handle() may be called concurrently from any number of handler
 * threads: the Evaluator's golden cache and the SweepRunner's pool
 * are shared across requests (that sharing is the point of the
 * daemon), and both are concurrency-safe by construction (DESIGN.md
 * sections 10 and 14).
 */
class EvalService
{
  public:
    /**
     * @param seeds / @p scale evaluator parameters (0 = LVA_SEEDS /
     *        LVA_SCALE, as everywhere else)
     * @param opts serving policy (resolved against the environment)
     */
    EvalService(u32 seeds, double scale, const ServeOptions &opts);

    Evaluator &evaluator() { return eval_; }
    u32 jobs() const { return runner_.jobs(); }
    ServeStats &stats() { return stats_; }

    /** Set once a `shutdown` request was answered. */
    bool shutdownRequested() const { return shutdown_.load(); }

    /**
     * Handle one request payload (JSON text) and return the response
     * payload. Never throws: malformed requests and isolated
     * failures become `ok:false` responses.
     */
    std::string handle(const std::string &requestJson);

  private:
    std::string dispatch(const JsonValue &req, const std::string &op);
    std::string handlePing() const;
    std::string handleStats();
    std::string handleShutdown();
    std::string handleEval(const JsonValue &req);
    std::string handleSweep(const JsonValue &req);

    Evaluator eval_;
    SweepRunner runner_;
    ServeStats stats_;
    u32 maxAttempts_;
    std::atomic<u64> nextRequest_{0};
    std::atomic<bool> shutdown_{false};
};

/**
 * The blocking accept/serve loop: a localhost listener, a bounded
 * queue of accepted connections, and a fixed set of handler threads
 * draining it through EvalService::handle().
 *
 * Backpressure is explicit: a connection arriving while the queue
 * holds opts.queueCap entries is answered with busyResponse() and
 * closed — the queue never grows without bound.
 *
 * Shutdown: requestStop() (async-signal-safe: one atomic store) or a
 * `shutdown` request makes run() stop accepting, serve every
 * already-accepted connection to the end of its current request, and
 * return. In-flight evaluations always complete.
 */
class ServeLoop
{
  public:
    /** Binds the listener (throws NetError on failure). */
    ServeLoop(EvalService &service, const ServeOptions &opts);

    ~ServeLoop();

    ServeLoop(const ServeLoop &) = delete;
    ServeLoop &operator=(const ServeLoop &) = delete;

    /** The bound port (resolved after an ephemeral bind). */
    u16 port() const { return listener_.port(); }

    /** Serve until stopped; returns once fully drained. */
    void run();

    /** Ask run() to stop and drain (callable from a signal handler
     *  context via a relaxed atomic store). */
    void requestStop() { stop_.store(true); }

    bool stopping() const;

  private:
    void handlerMain();
    void handleConnection(TcpStream conn);

    EvalService &service_;
    ServeOptions opts_;
    TcpListener listener_;
    std::atomic<bool> stop_{false};
    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<TcpStream> queue_;
    bool closed_ = false; ///< accept loop done; no more pushes
    std::vector<std::thread> handlers_;
};

} // namespace lva

#endif // LVA_EVAL_SERVICE_HH
