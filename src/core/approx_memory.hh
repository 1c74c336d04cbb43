/**
 * @file
 * Phase-1 functional memory system: private per-thread L1 data caches
 * with a load value approximator (or a baseline) beside each, realizing
 * the flow of paper Figure 2.
 *
 * This is the software analogue of the paper's Pin methodology: it
 * decides hit/miss per access, lets the approximator clobber load
 * values, and accumulates the design-space-exploration metrics (MPKI,
 * blocks fetched, coverage).
 */

#ifndef LVA_CORE_APPROX_MEMORY_HH
#define LVA_CORE_APPROX_MEMORY_HH

#include <memory>
#include <string>
#include <vector>

#include "core/approximator.hh"
#include "core/lvp.hh"
#include "core/memory_backend.hh"
#include "mem/cache.hh"
#include "prefetch/ghb_prefetcher.hh"
#include "util/stat_registry.hh"
#include "util/stats.hh"

namespace lva {

/** Which mechanism sits beside the L1 cache. */
enum class MemMode : u8 {
    Precise,  ///< no mechanism: every miss fetches, values exact
    Lva,      ///< load value approximation (the paper)
    Lvp,      ///< idealized load value prediction baseline
    Prefetch, ///< GHB prefetcher baseline (applies to ALL loads)
};

const char *memModeName(MemMode mode);

/** Aggregate per-run metrics (across all threads). */
struct MemMetrics
{
    u64 instructions = 0;   ///< dynamic instruction count (incl. mem ops)
    u64 loads = 0;          ///< load instructions issued
    u64 stores = 0;
    u64 loadMisses = 0;     ///< raw L1 load misses
    u64 effectiveMisses = 0;///< misses not hidden by approximation/LVP
    u64 fetches = 0;        ///< L1 block fills (demand + train + prefetch)
    u64 approxLoads = 0;    ///< loads returning an approximate value
    u64 approximableLoads = 0; ///< loads to annotated data

    /** Effective misses per kilo-instruction (approximations are hits). */
    double
    mpki() const
    {
        return instructions == 0
                   ? 0.0
                   : 1000.0 * static_cast<double>(effectiveMisses) /
                         static_cast<double>(instructions);
    }

    double
    rawMpki() const
    {
        return instructions == 0
                   ? 0.0
                   : 1000.0 * static_cast<double>(loadMisses) /
                         static_cast<double>(instructions);
    }

    /** Coverage: fraction of approximable loads that were approximated. */
    double
    coverage() const
    {
        return approximableLoads == 0
                   ? 0.0
                   : static_cast<double>(approxLoads) /
                         static_cast<double>(approximableLoads);
    }
};

/**
 * Live per-thread memory counters, registry-backed under
 * "<prefix>.instructions" etc.; value() copies them out into the
 * plain MemMetrics aggregate used by reporting code.
 */
struct LaneCounters
{
    LaneCounters(StatRegistry &reg, const std::string &prefix);

    Counter &instructions;
    Counter &loads;
    Counter &stores;
    Counter &loadMisses;
    Counter &effectiveMisses;
    Counter &fetches;
    Counter &approxLoads;
    Counter &approximableLoads;

    MemMetrics value() const;
};

/**
 * Functional memory simulator with one private L1 (and one mechanism
 * instance) per logical thread, as in the paper's 4-thread PARSEC runs.
 */
class ApproxMemory : public MemoryBackend
{
  public:
    struct Config
    {
        u32 threads = 4;
        CacheConfig cache = CacheConfig::pinL1();
        MemMode mode = MemMode::Lva;
        ApproximatorConfig approx{};
        GhbPrefetcherConfig prefetch{};

        /**
         * Per-thread approximator variants (from a heterogeneous
         * MachineConfig): empty means homogeneous — every lane uses
         * approx; otherwise exactly one entry per thread.
         */
        std::vector<ApproximatorConfig> threadApprox;

        /**
         * Apply @p fn to approx AND every per-thread variant. Sweep
         * drivers edit their swept knob through this so the edit
         * lands on heterogeneous machines too — when threadApprox is
         * populated every lane is built from it, and a bare
         * approx.<field> write would be silently ignored. The RPC
         * "config" decoder and lva_explore apply the same
         * all-lanes semantics.
         */
        template <typename Fn>
        void
        editApprox(Fn &&fn)
        {
            fn(approx);
            for (ApproximatorConfig &variant : threadApprox)
                fn(variant);
        }
    };

    explicit ApproxMemory(const Config &config);

    /**
     * One load, called directly (no dispatch). MemoryBackend::load
     * routes BackendKind::Approx here; both entries are defined in
     * approx_memory.cc so the dispatcher inlines this body.
     */
    Value loadDirect(ThreadId tid, LoadSiteId pc, Addr addr,
                     const Value &precise, bool approximable,
                     bool dependent = false);

    // MemoryBackend interface
    void store(ThreadId tid, LoadSiteId pc, Addr addr) override;
    void tickInstructions(ThreadId tid, u64 n) override;
    void finish() override;

    const Config &config() const { return config_; }

    /** Metrics summed over all threads. */
    MemMetrics metrics() const;

    /**
     * The simulation's stat registry; all per-thread component stats
     * live here under "thread<N>.{mem,l1,lva,lvp,prefetch}.*".
     */
    const StatRegistry &registry() const { return registry_; }
    StatRegistry &registry() { return registry_; }

    /** Convenience: snapshot of the whole registry. */
    StatSnapshot snapshot() const { return registry_.snapshot(); }

    /** Per-thread component access (tests, detailed reporting). */
    const Cache &cacheFor(ThreadId tid) const;
    const LoadValueApproximator &approximatorFor(ThreadId tid) const;
    const IdealizedLvp &lvpFor(ThreadId tid) const;
    const GhbPrefetcher &prefetcherFor(ThreadId tid) const;

  protected:
    Value
    loadVirtual(ThreadId tid, LoadSiteId pc, Addr addr,
                const Value &precise, bool approximable,
                bool dependent) override
    {
        return loadDirect(tid, pc, addr, precise, approximable,
                          dependent);
    }

  private:
    struct Lane
    {
        std::unique_ptr<Cache> cache;
        std::unique_ptr<LoadValueApproximator> lva;
        std::unique_ptr<IdealizedLvp> lvp;
        std::unique_ptr<GhbPrefetcher> prefetcher;
        std::unique_ptr<LaneCounters> mem;
    };

    Lane &laneFor(ThreadId tid);
    const Lane &laneFor(ThreadId tid) const;

    Config config_;
    StatRegistry registry_; ///< declared before lanes_: stats outlive refs
    std::vector<Lane> lanes_;
};

} // namespace lva

#endif // LVA_CORE_APPROX_MEMORY_HH
