/**
 * @file
 * Parallel, fault-tolerant sweep engine for the bench drivers.
 *
 * Every figure/table walks a (workload x config x seed) grid of
 * independent, seeded, deterministic simulations — embarrassingly
 * parallel work that the drivers used to run strictly serially. A
 * SweepRunner fans a batch of named sweep points out across a fixed
 * ThreadPool and returns results in submission order, so tables and
 * CSVs are byte-identical to the serial output regardless of the
 * worker count. LVA_JOBS=1 bypasses the pool entirely and reproduces
 * the historical serial path exactly.
 *
 * Robustness layer (DESIGN.md section 13): runChecked()/mapChecked()
 * isolate each point — an exception, a tripped lva_assert, or an
 * injected fault becomes a structured PointFailure instead of
 * aborting the batch — with bounded retry under capped exponential
 * backoff and an append-only fsync'd checkpoint manifest
 * (util/checkpoint) that lets a killed sweep restart and skip every
 * point it already completed.
 */

#ifndef LVA_EVAL_SWEEP_HH
#define LVA_EVAL_SWEEP_HH

#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "eval/evaluator.hh"
#include "util/checkpoint.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace lva {

struct MachineConfig;

/** One named (workload, configuration) evaluation request. */
struct SweepPoint
{
    std::string label;    ///< driver-chosen tag (column/row name)
    std::string workload; ///< PARSEC benchmark name
    ApproxMemory::Config config;
};

/** One isolated point that could not be completed. */
struct PointFailure
{
    u64 index = 0;         ///< submission index of the failed point
    std::string label;     ///< point label ("" for map tasks)
    std::string workload;  ///< workload name ("" for map tasks)
    std::string error;     ///< what() of the final failed attempt
    u32 attempts = 1;      ///< attempts consumed (== maxAttempts)
};

/**
 * Execution policy for a checked sweep: a plain value, used as
 * given. A binary fills it once where it starts (sweepOptionsFromEnv
 * or sweepOptionsFromCli); the sweep engine reads no environment.
 */
struct SweepOptions
{
    /** Driver name: names the checkpoint manifest file. */
    std::string driver;

    /** Record completed points into the manifest (LVA_CHECKPOINT=1). */
    bool checkpoint = false;

    /** Skip points already in the manifest (LVA_RESUME=1; implies
     *  checkpoint). */
    bool resume = false;

    /** Attempts per point, >= 1 (LVA_RETRIES=<n> means 1+n attempts;
     *  deterministic simulations only transiently fail under fault
     *  injection or resource exhaustion). */
    u32 maxAttempts = 1;

    /**
     * Machine topology the sweep runs on (--machine <file>, else the
     * LVA_MACHINE path knob); null = the built-in Table II machine,
     * which is byte-identity-pinned against the historical hardcoded
     * defaults. Shared, immutable: copying SweepOptions never copies
     * the parsed config.
     */
    std::shared_ptr<const MachineConfig> machine;
};

/** Everything a checked sweep produced. */
struct SweepOutcome
{
    /**
     * One entry per submitted point, in submission order. Failed
     * points hold a placeholder whose scalar fields and "eval.*"
     * gauges are NaN and whose failed flag is set, so tables render
     * an honest "nan" rather than a plausible number.
     */
    std::vector<EvalResult> results;

    /** Structured failures, ordered by point index. */
    std::vector<PointFailure> failures;

    /** Points restored from the checkpoint manifest, not re-run. */
    u64 resumed = 0;

    bool ok() const { return failures.empty(); }
};

/** Results of a checked map (see SweepRunner::mapChecked). */
template <typename R>
struct MapOutcome
{
    std::vector<std::optional<R>> results; ///< nullopt = failed task
    std::vector<PointFailure> failures;    ///< ordered by index

    bool ok() const { return failures.empty(); }
};

/**
 * The defaults overlaid with the run-wide sweep knobs (LVA_CHECKPOINT,
 * LVA_RESUME, LVA_RETRIES, LVA_MACHINE) for driver @p driver. Read
 * once where a binary starts; a machine file that does not parse
 * exits(2).
 */
SweepOptions sweepOptionsFromEnv(const std::string &driver);

/**
 * The standard robustness CLI shared by every sweep-driving bench
 * binary: the defaults, then the environment knobs, then the flags
 * --checkpoint, --resume, --retries N (0..99), --machine FILE.
 * Unknown arguments and malformed or out-of-range operands exit(2).
 */
SweepOptions sweepOptionsFromCli(const std::string &driver, int argc,
                                 char **argv);

/** The machine a sweep runs on: *opts.machine or defaultMachine(). */
const MachineConfig &sweepMachine(const SweepOptions &opts);

/**
 * The baseline-LVA phase-1 config of the sweep's machine. With no
 * --machine/LVA_MACHINE this is exactly Evaluator::baselineLva(), so
 * drivers converted to it stay byte-identical by construction.
 */
ApproxMemory::Config machineBaseLva(const SweepOptions &opts);

/**
 * Print one warning line per failure and return the driver exit
 * code: 0 for a clean sweep, 3 (documented in DESIGN.md section 13)
 * when results are partial.
 */
int reportSweepFailures(const SweepOutcome &outcome);

/** As above for mapChecked outcomes (@p total submitted tasks). */
int reportSweepFailures(const std::vector<PointFailure> &failures,
                        std::size_t total);

/**
 * The honest placeholder a failed point leaves in a result row:
 * NaN scalars, NaN "eval.*" gauges, failed flag set. Exposed so the
 * shard merge (eval/coord) can reconstruct a worker-side failure
 * exactly as the local engine would have recorded it.
 */
EvalResult failedPointPlaceholder();

/** Stable canonical rendering of a config (digest input). */
std::string configKey(const ApproxMemory::Config &cfg);

/** Stable digest of one sweep point (16 hex chars). */
std::string sweepPointDigest(const SweepPoint &point);

/**
 * The manifest context key for an evaluator-driven sweep: binds
 * cached results to the export schema, seed count and scale, so a
 * manifest written under different settings is never resumed.
 */
std::string sweepContextKey(const Evaluator &eval);

/**
 * As above, additionally binding the manifest to the sweep's machine
 * topology (digest of its canonical JSON) when one is set, so a
 * manifest written under one machine is never resumed under another.
 * With no machine set the key is byte-identical to the historical
 * sweepContextKey(eval), keeping pre-machine manifests resumable.
 */
std::string sweepContextKey(const Evaluator &eval,
                            const SweepOptions &opts);

/** Catalog of the sweep-runtime gauges folded into every completed
 *  point's snapshot ("eval.retries.*", "eval.failures.*"). */
const std::vector<EvalMetricDef> &sweepRuntimeDefs();

/**
 * Fans batches of sweep points out across a worker pool.
 *
 * Concurrent points share the Evaluator's golden-run cache: the first
 * caller to need a (workload, seed) baseline builds it once and every
 * other point blocks on that latch instead of duplicating the run. On
 * the pool path runChecked() queues those builds ahead of the points
 * (see there), so they run side by side from the start.
 *
 * Worker-count precedence (pinned by sweep_test): an explicit
 * nonzero @p jobs always wins — jobs=1 is the exact serial path (no
 * pool, no LVA_JOBS consultation) even when LVA_JOBS demands more;
 * only jobs=0 defers to LVA_JOBS, then hardware concurrency.
 */
class SweepRunner
{
  public:
    /**
     * @param eval shared evaluator (golden cache lives here)
     * @param jobs worker threads; 0 = ThreadPool::defaultJobs()
     *             (LVA_JOBS env, else hardware concurrency)
     */
    explicit SweepRunner(Evaluator &eval, u32 jobs = 0);

    /** Generic fan-out without a phase-1 evaluator (full-system). */
    explicit SweepRunner(u32 jobs = 0);

    /** Worker threads in use (1 = serial, no pool). */
    u32 jobs() const { return jobs_; }

    /** True when no pool exists (the historical serial loop). */
    bool serial() const { return pool_ == nullptr; }

    Evaluator &evaluator() { return *eval_; }

    /**
     * Evaluate every point with per-point isolation, bounded retry
     * and (per @p opts, as given) checkpoint/resume via the manifest
     * at "<resultsDir>/checkpoints/<driver>.jsonl". Deterministic for
     * any LVA_JOBS.
     *
     * On the pool path with an unbounded golden cache, one golden
     * task per distinct (workload, Evaluator::preciseBaseFor(config))
     * of the pending points is queued before any point, in
     * first-appearance order. The pool is FIFO, so every precise
     * build starts ahead of the points that would otherwise park on
     * it. A golden task's failure is dropped: the point's own
     * evaluate() rebuilds that golden and reports a lasting failure
     * through the retry path. All golden tasks have finished before
     * this returns. A bounded cache gets no golden tasks, so they
     * never evict a golden a later point needs.
     */
    SweepOutcome runChecked(const std::vector<SweepPoint> &points,
                            const SweepOptions &opts = {});

    /**
     * Ordered fan-out of @p count independent tasks: apply @p fn to
     * each index 0..count-1 on the pool and return the results in
     * index order. @p fn must be safe to invoke concurrently; every
     * call has finished before map() returns or rethrows.
     */
    template <typename Fn>
    auto
    map(u64 count, Fn fn) -> std::vector<std::invoke_result_t<Fn, u64>>
    {
        using R = std::invoke_result_t<Fn, u64>;
        static_assert(!std::is_void_v<R>,
                      "map tasks must return a value");
        std::vector<R> out;
        out.reserve(count);
        collect(allIndices(count), fn,
                [&out](u64, R &&r) { out.push_back(std::move(r)); });
        return out;
    }

    /**
     * map() with the robustness layer: each task runs under failure
     * isolation with retry/backoff per @p opts; failures surface as
     * PointFailure records (labelled via @p labeler when given)
     * instead of aborting the batch. Checkpoint/resume does not apply
     * here — map results are arbitrary types the manifest cannot
     * serialize — so checkpointing is silently skipped and an explicit
     * resume request draws a warning that everything will re-run.
     */
    template <typename Fn>
    auto
    mapChecked(u64 count, Fn fn, const SweepOptions &opts = {},
               std::function<std::string(u64)> labeler = nullptr)
        -> MapOutcome<std::invoke_result_t<Fn, u64>>
    {
        using R = std::invoke_result_t<Fn, u64>;
        if (opts.resume)
            lva_warn("%s: resume applies to point sweeps only; "
                     "re-running every task",
                     opts.driver.empty() ? "sweep" : opts.driver.c_str());

        MapOutcome<R> out;
        out.results.resize(count);
        collect(
            allIndices(count),
            [&](u64 i) {
                return attemptTask<R>(opts, i, [&fn, i] { return fn(i); });
            },
            [&](u64 i, Tried<R> &&tried) {
                if (tried.failure) {
                    if (labeler)
                        tried.failure->label = labeler(i);
                    out.failures.push_back(std::move(*tried.failure));
                } else {
                    out.results[i] = std::move(*tried.value);
                }
            });
        return out;
    }

  private:
    /** One task's outcome: exactly one of value/failure is set. */
    template <typename R>
    struct Tried
    {
        std::optional<R> value;
        std::optional<PointFailure> failure;
        u32 attempts = 1;
    };

    /** Backoff before retry @p attempt (1-based): 10 ms doubling
     *  per retry, capped at 1000 ms. */
    static void backoff(u32 attempt);

    /** 0, 1, ..., @p count - 1. */
    static std::vector<u64> allIndices(u64 count);

    /** Waits for every submitted task on any exit, so none outlives
     *  the references it captured. */
    template <typename T>
    struct JoinAll
    {
        std::vector<std::future<T>> &futures;
        ~JoinAll()
        {
            for (auto &f : futures)
                if (f.valid())
                    f.wait();
        }
    };

    /**
     * The one fan-out-and-collect loop: run @p task(i) for every i in
     * @p indices — inline in order on the serial path, else on the
     * pool — and hand each result to @p settle(i, result) in
     * @p indices order. Every task has finished before this returns
     * (or rethrows a task's exception), so @p task and @p settle may
     * capture the caller's locals by reference.
     */
    template <typename Task, typename Settle>
    void
    collect(const std::vector<u64> &indices, Task task, Settle settle)
    {
        using T = std::invoke_result_t<Task &, u64>;
        if (!pool_) { // serial path: identical to the historical loop
            for (const u64 i : indices)
                settle(i, task(i));
            return;
        }
        std::vector<std::future<T>> futures;
        futures.reserve(indices.size());
        JoinAll<T> join{futures};
        for (const u64 i : indices)
            futures.push_back(
                pool_->submit([&task, i] { return task(i); }));
        for (std::size_t k = 0; k < indices.size(); ++k)
            settle(indices[k], futures[k].get());
    }

    /**
     * Run @p task under failure isolation with bounded retry. The
     * fault site "sweep.point.<index>" is hit once per attempt, so
     * LVA_FAULT can inject transient ("@first2") or permanent
     * failures, crashes and delays per point, deterministically for
     * any worker count.
     */
    template <typename R, typename Task>
    static Tried<R>
    attemptTask(const SweepOptions &opts, u64 index, Task task)
    {
        lva_assert(opts.maxAttempts >= 1,
                   "sweep: maxAttempts must be at least 1");
        Tried<R> out;
        const std::string site =
            "sweep.point." + std::to_string(index);
        std::string last_error;
        for (u32 attempt = 1; attempt <= opts.maxAttempts; ++attempt) {
            out.attempts = attempt;
            try {
                ScopedFailureIsolation isolate;
                faultPoint(site);
                out.value.emplace(task());
                return out;
            } catch (const std::exception &e) {
                last_error = e.what();
            } catch (...) {
                last_error = "unknown exception";
            }
            if (attempt < opts.maxAttempts)
                backoff(attempt);
        }
        PointFailure f;
        f.index = index;
        f.error = last_error;
        f.attempts = opts.maxAttempts;
        out.failure = std::move(f);
        return out;
    }

    Evaluator *eval_;
    u32 jobs_;
    std::unique_ptr<ThreadPool> pool_; ///< null when jobs_ == 1
};

/**
 * Serialize / restore one completed point for the manifest. The
 * decoded result re-renders byte-identically through the stats JSON
 * export (doubles travel as %.17g, counters as exact integers).
 */
std::string encodeEvalResult(const EvalResult &result);
EvalResult decodeEvalResult(const JsonValue &payload);

/**
 * Render the versioned stats export for a completed sweep as a byte
 * string: completed points' labelled snapshots in submission order
 * plus a "failures" section for every isolated point. These are
 * exactly the bytes exportSweepStats writes to disk, exposed
 * separately so the evaluation service (docs/serving.md) can stream a
 * byte-identical export back to a client without touching the results
 * tree.
 */
std::string renderSweepStats(const std::string &driver,
                             const std::vector<SweepPoint> &points,
                             const SweepOutcome &outcome);

/**
 * Write renderSweepStats to "<resultsDir()>/stats/<driver>.json".
 * Because results come back in submission order and each point's
 * snapshot is merged seed-serially, the bytes are identical for any
 * LVA_JOBS; a degraded sweep's export lists its failures rather than
 * silently truncating.
 *
 * @return the path written
 */
std::string exportSweepStats(const std::string &driver,
                             const std::vector<SweepPoint> &points,
                             const SweepOutcome &outcome);

} // namespace lva

#endif // LVA_EVAL_SWEEP_HH
