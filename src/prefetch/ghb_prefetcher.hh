/**
 * @file
 * Global-history-buffer prefetcher baseline (Nesbit & Smith, IEEE Micro
 * 2005), configured as in the paper's Figure 8 comparison: 2048-entry
 * GHB + 2048-entry index table, PC-localized delta correlation with a
 * next-line fallback, and a configurable prefetch degree.
 */

#ifndef LVA_PREFETCH_GHB_PREFETCHER_HH
#define LVA_PREFETCH_GHB_PREFETCHER_HH

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/stat_registry.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace lva {

/** Tunables of the GHB prefetcher. */
struct GhbPrefetcherConfig
{
    u32 ghbEntries = 2048;   ///< circular miss-address history (2^k)
    u32 indexEntries = 2048; ///< PC-indexed head pointers (2^k)
    u32 degree = 4;          ///< prefetches issued per miss
    u32 blockBytes = 64;     ///< cache block size
    u32 maxChainWalk = 64;   ///< history depth examined per prediction
};

/** Event counts for the prefetcher (registry-backed). */
struct PrefetcherStats
{
    PrefetcherStats(StatRegistry &reg, const std::string &prefix);

    Counter &misses;        ///< training misses observed
    Counter &issued;        ///< prefetch addresses produced
    Counter &deltaPredicts; ///< predictions from delta correlation
    Counter &nextLine;      ///< predictions from the next-line fallback

    void
    reset()
    {
        misses.reset();
        issued.reset();
        deltaPredicts.reset();
        nextLine.reset();
    }
};

/**
 * PC-localized GHB prefetcher.
 *
 * Each L1 miss appends (address, link-to-previous-miss-of-same-PC) to a
 * circular global history buffer; an index table maps the PC to the most
 * recent entry. Prediction walks the PC's miss chain, extracts the delta
 * stream and looks for the most recent earlier occurrence of the latest
 * delta pair (delta correlation); the deltas that followed it are
 * replayed, up to the prefetch degree. With no correlation match the
 * prefetcher falls back to next-line prefetching.
 *
 * Both tables are power-of-two sized and indexed by mask, and the
 * history, delta and candidate buffers are sized once at construction,
 * so a miss neither allocates nor divides.
 */
class GhbPrefetcher
{
  public:
    /** Standalone prefetcher with a private registry ("prefetch.*"). */
    explicit GhbPrefetcher(const GhbPrefetcherConfig &config);

    /** Prefetcher whose stats register in @p reg under @p prefix. */
    GhbPrefetcher(const GhbPrefetcherConfig &config, StatRegistry &reg,
                  const std::string &prefix);

    const GhbPrefetcherConfig &config() const { return config_; }

    /**
     * Observe an L1 load miss and produce prefetch candidates.
     *
     * @param pc   static load site of the missing load
     * @param addr miss address
     * @return up to config().degree block-aligned prefetch addresses;
     *         the view stays valid until the next onMiss()
     */
    std::span<const Addr> onMiss(LoadSiteId pc, Addr addr);

    const PrefetcherStats &stats() const { return stats_; }

  private:
    struct GhbEntry
    {
        Addr addr = 0;
        u64 prevSeq = 0; ///< global sequence of previous same-PC miss
        u64 seq = 0;     ///< own global sequence (0 = never written)
    };

    struct IndexEntry
    {
        u64 pcTag = ~u64(0);
        u64 lastSeq = 0; ///< most recent GHB sequence for this PC
    };

    /** Is a recorded sequence number still resident in the GHB? */
    bool live(u64 seq) const
    {
        return seq != 0 && seq + config_.ghbEntries >= nextSeq_;
    }

    GhbPrefetcher(const GhbPrefetcherConfig &config, StatRegistry *reg,
                  const std::string &prefix);

    GhbPrefetcherConfig config_;
    std::vector<GhbEntry> ghb_;
    std::vector<IndexEntry> index_;
    u64 ghbMask_;   ///< ghbEntries - 1
    u64 indexMask_; ///< indexEntries - 1
    std::vector<Addr> history_;    ///< maxChainWalk: the PC's misses
    std::vector<i64> deltas_;      ///< maxChainWalk: their deltas
    std::vector<Addr> prefetches_; ///< max(degree, 1): the candidates
    u64 nextSeq_ = 1;
    std::unique_ptr<StatRegistry> ownedReg_; ///< standalone ctor only
    StatRegistry *reg_;
    PrefetcherStats stats_;
};

} // namespace lva

#endif // LVA_PREFETCH_GHB_PREFETCHER_HH
