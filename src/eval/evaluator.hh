/**
 * @file
 * Design-space-exploration driver (the paper's phase-1 methodology):
 * runs each workload precisely and under a given memory configuration,
 * averages over several seeds, and reports normalized MPKI, normalized
 * fetches, coverage and application output error.
 */

#ifndef LVA_EVAL_EVALUATOR_HH
#define LVA_EVAL_EVALUATOR_HH

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/approx_memory.hh"
#include "util/stat_registry.hh"
#include "workloads/workload.hh"

namespace lva {

/** Seed-averaged results of one (workload, configuration) evaluation. */
struct EvalResult
{
    double preciseMpki = 0.0;   ///< baseline effective MPKI
    double mpki = 0.0;          ///< configured effective MPKI
    double normMpki = 1.0;      ///< mpki / preciseMpki
    double preciseFetches = 0.0;///< baseline L1 block fills
    double fetches = 0.0;
    double normFetches = 1.0;   ///< fetches / preciseFetches
    double outputError = 0.0;   ///< application metric (section IV)
    double coverage = 0.0;      ///< approximated / approximable loads
    double instrVariation = 0.0;///< |instr - instr_precise| / precise
    double instructions = 0.0;  ///< dynamic instructions (configured run)

    /**
     * Set on the NaN placeholder a checked sweep leaves for a point
     * that could not be completed (see SweepRunner::runChecked);
     * never set on a result produced by an actual evaluation.
     */
    bool failed = false;

    /**
     * Registry snapshot merged over all seeds (counters summed), with
     * the seed-averaged derived metrics folded in as "eval.*" gauges.
     */
    StatSnapshot stats{};
};

/** Catalog row for one "eval.*" derived gauge. */
struct EvalMetricDef
{
    const char *path;
    const char *desc;
    const char *unit;
};

/** The fixed catalog of derived metrics exported under "eval.*". */
const std::vector<EvalMetricDef> &evalMetricDefs();

/** Fold the derived metrics of @p r into @p snap as "eval.*" gauges. */
void applyEvalDerived(StatSnapshot &snap, const EvalResult &r);

/**
 * Catalog of the static-workload gauges exported under "workload.*"
 * (fig12): [0] static approximate load sites, [1] all static load
 * sites.
 */
const std::vector<EvalMetricDef> &workloadStaticDefs();

/**
 * Monotonic totals of the golden-cache lifecycle (docs/serving.md has
 * the state diagram). A snapshot, readable at any time; the serving
 * layer exports it as the "serve.cache.*" subtree and tests assert
 * single-flight with it (K concurrent requests needing the same
 * golden must yield builds == 1).
 */
struct GoldenCacheCounters
{
    u64 hits = 0;      ///< acquisitions answered by a ready slot
    u64 misses = 0;    ///< acquisitions that initiated a precise run
    u64 builds = 0;    ///< precise runs actually completed
    u64 coalesced = 0; ///< acquisitions that waited on another
                       ///< caller's in-flight build (single-flight)
    u64 evictions = 0; ///< ready slots discarded by capacity pressure
    u64 size = 0;      ///< resident entries right now
    u64 capacity = 0;  ///< configured bound (0 = unbounded)
};

/** One eviction candidate as the policy sees it. */
struct GoldenEvictionCandidate
{
    u64 lastUse = 0; ///< logical LRU stamp (higher = more recent)
    u64 cost = 0;    ///< rebuild cost (precise-run instructions)
};

/**
 * The cost-aware LRU victim policy, exposed as a pure function so
 * tests can pin it with synthetic candidates: consider the
 * ceil(n/4) least-recently-used candidates (so the MRU entry is
 * never evicted) and evict the *cheapest to rebuild* among them —
 * a stale-but-expensive golden survives over a stale-and-cheap one.
 * Ties fall back to strict LRU order. Returns an index into
 * @p candidates; @p candidates must be non-empty.
 */
std::size_t goldenEvictionVictim(
    const std::vector<GoldenEvictionCandidate> &candidates);

/**
 * Workload scale from LVA_SCALE: 1.0 by default, bounded to
 * [1e-6, 4]. The one parse of the knob, shared by the evaluator and
 * the full-system trace recorder.
 */
double scaleFromEnv();

/**
 * Runs and caches evaluations.
 *
 * Golden (precise) runs are memoized per (workload, seed): every sweep
 * point reuses the same baseline for normalization and for the output
 * error comparison, exactly as the paper normalizes each benchmark to
 * its own precise execution.
 *
 * The memoization is a real cache with a lifecycle, not an unbounded
 * map: setGoldenCacheCapacity() bounds resident entries (the daemon
 * wires LVA_SERVE_CACHE here), eviction is cost-aware LRU
 * (goldenEvictionVictim), and builds are *single-flight* — concurrent
 * callers needing the same (workload, seed) block on the one caller
 * performing the precise run instead of duplicating it. Because every
 * golden is a deterministic function of (workload, seed, scale), an
 * evicted entry rebuilds bit-identically, so results never depend on
 * cache capacity or eviction schedule (pinned by
 * tests/golden_cache_test.cc).
 *
 * Thread safety: evaluate()/evaluatePrecise() may be called
 * concurrently (the SweepRunner does). Slots are shared_ptr-owned, so
 * an eviction never invalidates a golden another thread is still
 * reading; a slot mid-build is never an eviction candidate. A failed
 * build (including an injected fault) returns the slot to Empty, so a
 * retried point rebuilds the baseline instead of latching a broken
 * slot forever.
 */
class Evaluator
{
  public:
    /**
     * @param seeds number of simulation runs averaged (paper: 5)
     * @param scale workload working-set scale (1.0 = full size)
     *
     * Both default from the environment (LVA_SEEDS, LVA_SCALE) when
     * the arguments are zero, enabling quick smoke runs.
     */
    explicit Evaluator(u32 seeds = 0, double scale = 0.0);

    u32 seeds() const { return seeds_; }
    double scale() const { return scale_; }

    /** Evaluate @p workload under @p cfg, averaged over seeds. */
    EvalResult evaluate(const std::string &workload,
                        const ApproxMemory::Config &cfg);

    /** Baseline (precise) metrics for one workload (Table I). */
    EvalResult evaluatePrecise(const std::string &workload);

    /** evaluatePrecise under an explicit precise (machine) config. */
    EvalResult evaluatePrecise(const std::string &workload,
                               const ApproxMemory::Config &precise);

    /** The paper's baseline LVA configuration as an ApproxMemory config. */
    static ApproxMemory::Config baselineLva();

    /** A precise (no-mechanism) configuration. */
    static ApproxMemory::Config preciseConfig();

    /**
     * The precise baseline any result under @p cfg is normalized
     * against: preciseConfig() with the thread count and L1 geometry
     * of @p cfg (the mechanism never changes the machine a golden
     * runs on, only what sits beside the L1).
     */
    static ApproxMemory::Config
    preciseBaseFor(const ApproxMemory::Config &cfg);

    /**
     * Bound the golden cache to @p entries resident goldens (0 =
     * unbounded, the default and the standalone-driver behavior).
     * Shrinking below the current population evicts immediately.
     */
    void setGoldenCacheCapacity(u64 entries);

    /** Lifecycle totals since construction (see GoldenCacheCounters). */
    GoldenCacheCounters goldenCacheCounters();

    /**
     * Resident (Ready) cache keys in deterministic (map) order — a
     * test window into the eviction schedule, not a consumer API.
     */
    std::vector<std::pair<std::string, u64>> goldenResidentKeys();

  private:
    struct Golden
    {
        std::unique_ptr<Workload> workload; ///< completed precise run
        MemMetrics metrics;
        StatSnapshot stats;
    };

    /**
     * One cache slot walking Empty -> Building -> Ready under mutex_;
     * a failed build steps back to Empty (docs/serving.md diagrams
     * the lifecycle). shared_ptr ownership keeps an evicted golden
     * alive for readers that acquired it before the eviction.
     */
    struct GoldenSlot
    {
        enum class State { Empty, Building, Ready };
        State state = State::Empty;
        Golden golden;
        u64 lastUse = 0; ///< logical use-clock stamp (LRU order)
        u64 cost = 0;    ///< precise-run dynamic instructions
    };

    /**
     * Acquire the memoized precise run of (@p workload, @p seed) under
     * the machine geometry of @p precise. The cache key is the plain
     * workload name for the canonical preciseConfig() geometry (every
     * pre-machine caller) and a "name@t<threads>.s<size>..." variant
     * key otherwise, so goldens of different machines never alias.
     */
    std::shared_ptr<const Golden> golden(const std::string &workload,
                                         WorkloadFactory factory, u64 seed,
                                         const ApproxMemory::Config &precise);

    /** Evict until size <= capacity; call with mutex_ held. */
    void enforceCapacityLocked();

    u32 seeds_;
    double scale_;
    std::mutex mutex_; ///< guards goldens_ and all slot fields
    std::condition_variable cv_; ///< signals Building -> Ready/Empty
    std::map<std::pair<std::string, u64>, std::shared_ptr<GoldenSlot>>
        goldens_;
    u64 useClock_ = 0;     ///< advances on every acquisition
    u64 capacity_ = 0;     ///< 0 = unbounded
    GoldenCacheCounters counters_{};
};

} // namespace lva

#endif // LVA_EVAL_EVALUATOR_HH
