#include "mem/cache.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"

namespace lva {

CacheStats::CacheStats(StatRegistry &reg, const std::string &prefix)
    : hits(reg.counter(StatRegistry::joinPath(prefix, "hits"),
                       "accesses that found the block resident")),
      misses(reg.counter(StatRegistry::joinPath(prefix, "misses"),
                         "accesses that missed")),
      fetches(reg.counter(StatRegistry::joinPath(prefix, "fetches"),
                          "blocks brought into the cache")),
      evictions(reg.counter(StatRegistry::joinPath(prefix, "evictions"),
                            "blocks displaced by fills")),
      writebacks(reg.counter(StatRegistry::joinPath(prefix, "writebacks"),
                             "dirty blocks written back"))
{
}

Cache::Cache(const CacheConfig &config) : Cache(config, nullptr, "l1")
{
}

Cache::Cache(const CacheConfig &config, StatRegistry &reg,
             const std::string &prefix)
    : Cache(config, &reg, prefix)
{
}

Cache::Cache(const CacheConfig &config, StatRegistry *reg,
             const std::string &prefix)
    : config_(config),
      ownedReg_(reg == nullptr ? std::make_unique<StatRegistry>()
                               : nullptr),
      reg_(reg != nullptr ? reg : ownedReg_.get()),
      traceEvict_(StatRegistry::joinPath(prefix, "evict")),
      stats_(*reg_, prefix)
{
    lva_assert(config.blockBytes > 0 &&
               std::has_single_bit(config.blockBytes),
               "block size %u not a power of two", config.blockBytes);
    lva_assert(config.assoc > 0, "associativity must be positive");
    const u64 sets = config.numSets();
    lva_assert(sets > 0 && std::has_single_bit(sets),
               "set count %llu not a power of two",
               static_cast<unsigned long long>(sets));

    blockMask_ = config.blockBytes - 1;
    setShift_ = std::countr_zero(static_cast<u64>(config.blockBytes));
    setMask_ = sets - 1;
    const u64 slots = sets * config.assoc;
    tags_.assign(slots, invalidAddr);
    lastUse_.assign(slots, 0);
    dirty_.assign(slots, 0);
}

bool
Cache::contains(Addr addr) const
{
    const Addr tag = blockAlign(addr);
    const u64 base = setBase(addr);
    for (u32 w = 0; w < config_.assoc; ++w)
        if (tags_[base + w] == tag)
            return true;
    return false;
}

bool
Cache::access(Addr addr, bool is_write)
{
    const Addr tag = blockAlign(addr);
    const u64 base = setBase(addr);
    // Select the matching way over all assoc tags, with no early exit.
    // Tags within a set are unique (insert() re-scans, fill() is only
    // called on absent blocks), so at most one way matches and the
    // result is that of the early-exit scan; the fixed trip count
    // keeps the way index off the branch predictor.
    u32 way = config_.assoc;
    for (u32 w = 0; w < config_.assoc; ++w)
        way = tags_[base + w] == tag ? w : way;
    if (way == config_.assoc) {
        stats_.misses.inc();
        return false;
    }
    const u64 s = base + way;
    lastUse_[s] = ++useClock_;
    // Branch instead of |=: loads (the overwhelmingly common case)
    // never touch the dirty column.
    if (is_write)
        dirty_[s] = 1;
    stats_.hits.inc();
    return true;
}

Addr
Cache::insert(Addr addr, bool is_write)
{
    const Addr tag = blockAlign(addr);
    const u64 base = setBase(addr);

    for (u32 w = 0; w < config_.assoc; ++w) {
        const u64 s = base + w;
        if (tags_[s] == tag) {
            // Already resident: refresh recency only.
            lastUse_[s] = ++useClock_;
            dirty_[s] |= static_cast<u8>(is_write);
            return invalidAddr;
        }
    }

    return fill(addr, is_write);
}

Addr
Cache::fill(Addr addr, bool is_write)
{
    const Addr tag = blockAlign(addr);
    const u64 base = setBase(addr);

    // Victim: first empty way, otherwise the least recently used,
    // ties broken toward the lowest way index. Selected WITHOUT
    // reading the tag column: lastUse_ is zero iff the way is empty
    // (useClock_ stamps are unique and >= 1, and invalidate()/
    // flush() zero the stamp), so the least lastUse_ with
    // earliest-index ties is exactly that policy.
    u64 victim = base;
    u64 best = lastUse_[base];
    for (u32 w = 1; w < config_.assoc; ++w) {
        const u64 s = base + w;
        const u64 t = lastUse_[s];
        if (t < best) {
            victim = s;
            best = t;
        }
    }

    stats_.fetches.inc();
    Addr evicted = invalidAddr;
    if (tags_[victim] != invalidAddr) {
        evicted = tags_[victim];
        stats_.evictions.inc();
        reg_->trace(traceEvict_, static_cast<double>(evicted));
        if (dirty_[victim])
            stats_.writebacks.inc();
    }
    tags_[victim] = tag;
    lastUse_[victim] = ++useClock_;
    dirty_[victim] = static_cast<u8>(is_write);
    return evicted;
}

bool
Cache::invalidate(Addr addr)
{
    const Addr tag = blockAlign(addr);
    const u64 base = setBase(addr);
    for (u32 w = 0; w < config_.assoc; ++w) {
        const u64 s = base + w;
        if (tags_[s] == tag) {
            if (dirty_[s])
                stats_.writebacks.inc();
            tags_[s] = invalidAddr;
            lastUse_[s] = 0; // empty marker; fill()'s victim scan keys on it
            dirty_[s] = 0;
            return true;
        }
    }
    return false;
}

void
Cache::flush()
{
    std::fill(tags_.begin(), tags_.end(), invalidAddr);
    std::fill(lastUse_.begin(), lastUse_.end(), u64{0});
    std::fill(dirty_.begin(), dirty_.end(), u8{0});
    useClock_ = 0;
}

u64
Cache::residentBlocks() const
{
    u64 count = 0;
    for (const Addr tag : tags_)
        if (tag != invalidAddr)
            ++count;
    return count;
}

} // namespace lva
