#include "prefetch/ghb_prefetcher.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"
#include "util/random.hh"

namespace lva {

PrefetcherStats::PrefetcherStats(StatRegistry &reg,
                                 const std::string &prefix)
    : misses(reg.counter(StatRegistry::joinPath(prefix, "misses"),
                         "training misses observed")),
      issued(reg.counter(StatRegistry::joinPath(prefix, "issued"),
                         "prefetch addresses produced")),
      deltaPredicts(reg.counter(
          StatRegistry::joinPath(prefix, "deltaPredicts"),
          "predictions from delta correlation")),
      nextLine(reg.counter(StatRegistry::joinPath(prefix, "nextLine"),
                           "predictions from the next-line fallback"))
{
}

GhbPrefetcher::GhbPrefetcher(const GhbPrefetcherConfig &config)
    : GhbPrefetcher(config, nullptr, "prefetch")
{
}

GhbPrefetcher::GhbPrefetcher(const GhbPrefetcherConfig &config,
                             StatRegistry &reg, const std::string &prefix)
    : GhbPrefetcher(config, &reg, prefix)
{
}

GhbPrefetcher::GhbPrefetcher(const GhbPrefetcherConfig &config,
                             StatRegistry *reg, const std::string &prefix)
    : config_(config), ghb_(config.ghbEntries),
      index_(config.indexEntries), ghbMask_(config.ghbEntries - u64(1)),
      indexMask_(config.indexEntries - u64(1)),
      history_(config.maxChainWalk), deltas_(config.maxChainWalk),
      prefetches_(std::max<u32>(config.degree, 1)),
      ownedReg_(reg == nullptr ? std::make_unique<StatRegistry>()
                               : nullptr),
      reg_(reg != nullptr ? reg : ownedReg_.get()),
      stats_(*reg_, prefix)
{
    lva_assert(std::has_single_bit(config.ghbEntries) &&
                   std::has_single_bit(config.indexEntries),
               "prefetcher table sizes must be a power of two "
               "(ghb %u, index %u)",
               config.ghbEntries, config.indexEntries);
    lva_assert(config.blockBytes > 0, "bad block size");
}

// lva-hot-path: begin (per-miss train/predict path; see
// docs/performance.md)
std::span<const Addr>
GhbPrefetcher::onMiss(LoadSiteId pc, Addr addr)
{
    stats_.misses.inc();
    const Addr block = addr & ~Addr(config_.blockBytes - 1);

    // --- Train: append to the GHB and link into this PC's chain. ---
    IndexEntry &idx = index_[mix64(pc) & indexMask_];
    const u64 prev_seq =
        (idx.pcTag == pc && live(idx.lastSeq)) ? idx.lastSeq : 0;

    const u64 my_seq = nextSeq_++;
    GhbEntry &slot = ghb_[my_seq & ghbMask_];
    slot.addr = block;
    slot.prevSeq = prev_seq;
    slot.seq = my_seq;

    idx.pcTag = pc;
    idx.lastSeq = my_seq;

    if (config_.degree == 0)
        return {};

    // --- Reconstruct this PC's recent miss addresses (newest first). ---
    std::size_t walked = 0;
    u64 seq = my_seq;
    while (live(seq) && walked < config_.maxChainWalk) {
        const GhbEntry &entry = ghb_[seq & ghbMask_];
        if (entry.seq != seq)
            break; // overwritten since linked
        history_[walked++] = entry.addr;
        seq = entry.prevSeq;
    }

    std::size_t issued = 0;

    // --- Local delta correlation over the PC's delta stream. ---
    // deltas[i] = history[i] - history[i+1]  (newest delta first)
    if (walked >= 4) {
        const std::size_t n_deltas = walked - 1;
        for (std::size_t i = 0; i < n_deltas; ++i)
            deltas_[i] = static_cast<i64>(history_[i]) -
                         static_cast<i64>(history_[i + 1]);

        const i64 d0 = deltas_[0];
        const i64 d1 = deltas_[1];
        // Find the most recent earlier occurrence of the pair (d1, d0).
        for (std::size_t j = 2; j + 1 < n_deltas; ++j) {
            if (deltas_[j] == d0 && deltas_[j + 1] == d1) {
                // Replay the deltas that followed that occurrence
                // (they sit at decreasing indices: j-1, j-2, ...).
                Addr next = block;
                std::size_t k = j;
                while (issued < config_.degree) {
                    if (k == 0) {
                        // Pattern exhausted: keep striding by d0.
                        next = static_cast<Addr>(
                            static_cast<i64>(next) + d0);
                    } else {
                        --k;
                        next = static_cast<Addr>(
                            static_cast<i64>(next) + deltas_[k]);
                    }
                    prefetches_[issued++] =
                        next & ~Addr(config_.blockBytes - 1);
                    stats_.deltaPredicts.inc();
                }
                break;
            }
        }
    }

    // --- Next-line fallback: a single sequential block when no delta
    // pattern is found (issuing the full degree blindly would flood
    // the cache with useless fetches on irregular streams). ---
    if (issued == 0) {
        prefetches_[issued++] = block + config_.blockBytes;
        stats_.nextLine.inc();
    }

    stats_.issued.inc(issued);
    return {prefetches_.data(), issued};
}
// lva-hot-path: end

} // namespace lva
