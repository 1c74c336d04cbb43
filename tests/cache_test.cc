/**
 * @file
 * Unit and property tests for the set-associative LRU cache model,
 * including a randomized cross-check against a naive reference LRU.
 */

#include <gtest/gtest.h>

#include <list>
#include <unordered_map>
#include <vector>

#include "mem/cache.hh"
#include "util/random.hh"

namespace lva {
namespace {

TEST(CacheConfig, Geometry)
{
    const CacheConfig cfg = CacheConfig::pinL1();
    EXPECT_EQ(cfg.sizeBytes, 64u * 1024);
    EXPECT_EQ(cfg.assoc, 8u);
    EXPECT_EQ(cfg.numSets(), 128u);
    EXPECT_EQ(CacheConfig::fullSystemL1().numSets(), 32u);
}

TEST(Cache, MissThenInsertThenHit)
{
    Cache cache({1024, 2, 64});
    EXPECT_FALSE(cache.access(0x100));
    EXPECT_EQ(cache.stats().misses.value(), 1u);
    cache.insert(0x100);
    EXPECT_EQ(cache.stats().fetches.value(), 1u);
    EXPECT_TRUE(cache.access(0x13f)); // same 64B block
    EXPECT_EQ(cache.stats().hits.value(), 1u);
}

TEST(Cache, AccessDoesNotAllocate)
{
    Cache cache({1024, 2, 64});
    cache.access(0x100);
    cache.access(0x100);
    EXPECT_EQ(cache.stats().misses.value(), 2u);
    EXPECT_EQ(cache.residentBlocks(), 0u);
}

TEST(Cache, LruEviction)
{
    // 2-way, set-picking: 8 sets of 64B blocks => addresses 0x000,
    // 0x200, 0x400 share set 0.
    Cache cache({1024, 2, 64});
    cache.insert(0x000);
    cache.insert(0x200);
    cache.access(0x000); // make 0x200 the LRU way
    const Addr evicted = cache.insert(0x400);
    EXPECT_EQ(evicted, 0x200u);
    EXPECT_TRUE(cache.contains(0x000));
    EXPECT_TRUE(cache.contains(0x400));
    EXPECT_FALSE(cache.contains(0x200));
}

TEST(Cache, InsertExistingRefreshesWithoutFetch)
{
    Cache cache({1024, 2, 64});
    cache.insert(0x000);
    cache.insert(0x200);
    EXPECT_EQ(cache.insert(0x000), invalidAddr); // refresh, not fetch
    EXPECT_EQ(cache.stats().fetches.value(), 2u);
    // 0x200 is now LRU despite being inserted later.
    EXPECT_EQ(cache.insert(0x400), 0x200u);
}

TEST(Cache, InvalidateRemovesBlock)
{
    Cache cache({1024, 2, 64});
    cache.insert(0x100);
    EXPECT_TRUE(cache.invalidate(0x100));
    EXPECT_FALSE(cache.contains(0x100));
    EXPECT_FALSE(cache.invalidate(0x100)); // already gone
}

TEST(Cache, DirtyEvictionCountsWriteback)
{
    Cache cache({1024, 2, 64});
    cache.insert(0x000, /*is_write=*/true);
    cache.insert(0x200);
    cache.insert(0x400); // evicts dirty 0x000
    EXPECT_EQ(cache.stats().writebacks.value(), 1u);
}

TEST(Cache, WriteHitMarksDirty)
{
    Cache cache({1024, 2, 64});
    cache.insert(0x000);
    EXPECT_TRUE(cache.access(0x000, /*is_write=*/true));
    EXPECT_TRUE(cache.invalidate(0x000));
    EXPECT_EQ(cache.stats().writebacks.value(), 1u);
}

TEST(Cache, FlushDropsEverythingKeepsStats)
{
    Cache cache({1024, 2, 64});
    cache.insert(0x000);
    cache.insert(0x100);
    cache.flush();
    EXPECT_EQ(cache.residentBlocks(), 0u);
    EXPECT_EQ(cache.stats().fetches.value(), 2u);
}

TEST(Cache, MpkiHelper)
{
    EXPECT_DOUBLE_EQ(Cache::mpki(5, 1000), 5.0);
    EXPECT_DOUBLE_EQ(Cache::mpki(5, 0), 0.0);
}

TEST(Cache, ResidencyNeverExceedsCapacity)
{
    Cache cache({2048, 4, 64}); // 32 blocks
    Rng rng(3);
    for (int i = 0; i < 10000; ++i)
        cache.insert(rng.below(1 << 20) * 64);
    EXPECT_LE(cache.residentBlocks(), 32u);
}

/**
 * Reference model: per-set LRU lists, checked against the Cache under
 * random traffic across several geometries.
 */
struct RefLru
{
    explicit RefLru(const CacheConfig &cfg) : cfg(cfg) {}

    u64 setOf(Addr block) const
    {
        return (block / cfg.blockBytes) % cfg.numSets();
    }

    bool
    contains(Addr block) const
    {
        const auto it = sets.find(setOf(block));
        if (it == sets.end())
            return false;
        for (Addr b : it->second)
            if (b == block)
                return true;
        return false;
    }

    void
    touch(Addr block)
    {
        auto &set = sets[setOf(block)];
        set.remove(block);
        set.push_front(block);
    }

    /** @return the evicted block, or invalidAddr if none */
    Addr
    insert(Addr block, bool is_write = false)
    {
        auto &set = sets[setOf(block)];
        const bool resident = contains(block);
        set.remove(block);
        set.push_front(block);
        if (resident) {
            dirty[block] = dirty[block] || is_write;
            return invalidAddr;
        }
        ++fetches;
        dirty[block] = is_write;
        if (set.size() <= cfg.assoc)
            return invalidAddr;
        const Addr victim = set.back();
        set.pop_back();
        ++evictions;
        if (dirty[victim])
            ++writebacks;
        dirty.erase(victim);
        return victim;
    }

    bool
    invalidate(Addr block)
    {
        if (!contains(block))
            return false;
        sets[setOf(block)].remove(block);
        if (dirty[block])
            ++writebacks;
        dirty.erase(block);
        return true;
    }

    CacheConfig cfg;
    std::unordered_map<u64, std::list<Addr>> sets;
    std::unordered_map<Addr, bool> dirty; ///< per resident block
    u64 fetches = 0;
    u64 evictions = 0;
    u64 writebacks = 0;
};

class CacheVsReference
    : public ::testing::TestWithParam<std::tuple<u64, u32>>
{
};

TEST_P(CacheVsReference, RandomTrafficAgrees)
{
    const auto [size, assoc] = GetParam();
    const CacheConfig cfg{size, assoc, 64};
    Cache cache(cfg);
    RefLru ref(cfg);
    Rng rng(size * 31 + assoc);

    for (int i = 0; i < 20000; ++i) {
        const Addr addr = rng.below(512) * 64 + rng.below(64);
        const Addr block = cache.blockAlign(addr);
        const bool expect_hit = ref.contains(block);
        ASSERT_EQ(cache.access(addr), expect_hit) << "iteration " << i;
        if (expect_hit) {
            ref.touch(block);
        } else if (rng.chance(0.8)) {
            // Mirror the decoupled fetch policy: only some misses
            // actually bring the block in.
            cache.insert(addr);
            ref.insert(block);
        }
    }
}

/**
 * Loads, stores and invalidations: the hit/miss sequence, the
 * evicted blocks and every statistic, dirty-driven writebacks
 * included, must match the reference.
 */
TEST_P(CacheVsReference, StoresAndInvalidationsAgree)
{
    const auto [size, assoc] = GetParam();
    const CacheConfig cfg{size, assoc, 64};
    Cache cache(cfg);
    RefLru ref(cfg);
    Rng rng(size * 37 + assoc);
    u64 hits = 0;
    u64 misses = 0;

    for (int i = 0; i < 20000; ++i) {
        const Addr addr = rng.below(512) * 64 + rng.below(64);
        const Addr block = cache.blockAlign(addr);
        const bool is_write = rng.chance(0.3);
        if (rng.chance(0.05)) {
            ASSERT_EQ(cache.invalidate(addr), ref.invalidate(block))
                << "iteration " << i;
            continue;
        }
        const bool expect_hit = ref.contains(block);
        ASSERT_EQ(cache.access(addr, is_write), expect_hit)
            << "iteration " << i;
        if (expect_hit) {
            ++hits;
            ref.insert(block, is_write); // refresh + dirty, no fetch
        } else {
            ++misses;
            if (rng.chance(0.8)) {
                ASSERT_EQ(cache.insert(addr, is_write),
                          ref.insert(block, is_write))
                    << "iteration " << i;
            }
        }
    }
    const CacheStats &st = cache.stats();
    EXPECT_EQ(st.hits.value(), hits);
    EXPECT_EQ(st.misses.value(), misses);
    EXPECT_EQ(st.fetches.value(), ref.fetches);
    EXPECT_EQ(st.evictions.value(), ref.evictions);
    EXPECT_EQ(st.writebacks.value(), ref.writebacks);
    EXPECT_GT(ref.writebacks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheVsReference,
    ::testing::Values(std::make_tuple(u64(1024), 1u),
                      std::make_tuple(u64(1024), 2u),
                      std::make_tuple(u64(3072), 3u),
                      std::make_tuple(u64(4096), 4u),
                      std::make_tuple(u64(16384), 8u),
                      std::make_tuple(u64(24576), 12u),
                      std::make_tuple(u64(2048), 16u),
                      std::make_tuple(u64(65536), 8u)));

} // namespace
} // namespace lva
