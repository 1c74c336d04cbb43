/**
 * @file
 * Unit tests for the MSI directory, plus a differential test of its
 * flat open-addressed table against a std::unordered_map reference.
 */

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "sim/directory.hh"
#include "util/random.hh"

namespace lva {
namespace {

constexpr Addr blk = 0x4000;
constexpr std::size_t kMaxBlocks = 64;

TEST(Directory, StartsInvalid)
{
    Directory dir(kMaxBlocks);
    EXPECT_EQ(dir.stateOf(blk), CoherenceState::Invalid);
    EXPECT_EQ(dir.find(blk), nullptr);
    EXPECT_EQ(dir.trackedBlocks(), 0u);
}

TEST(Directory, ReadFillMakesShared)
{
    Directory dir(kMaxBlocks);
    dir.addSharer(blk, 0);
    EXPECT_EQ(dir.stateOf(blk), CoherenceState::Shared);
    EXPECT_TRUE(dir.isSharer(blk, 0));
    EXPECT_FALSE(dir.isSharer(blk, 1));
    dir.addSharer(blk, 2);
    EXPECT_TRUE(dir.isSharer(blk, 2));
    EXPECT_EQ(dir.stateOf(blk), CoherenceState::Shared);
}

TEST(Directory, WriteMakesModifiedSingleOwner)
{
    Directory dir(kMaxBlocks);
    dir.addSharer(blk, 0);
    dir.addSharer(blk, 1);
    dir.setOwner(blk, 2);
    EXPECT_EQ(dir.stateOf(blk), CoherenceState::Modified);
    EXPECT_TRUE(dir.isSharer(blk, 2));
    // Single-writer invariant: previous sharers are gone.
    EXPECT_FALSE(dir.isSharer(blk, 0));
    EXPECT_FALSE(dir.isSharer(blk, 1));
    EXPECT_EQ(dir.find(blk)->owner, 2u);
}

TEST(Directory, DowngradeKeepsSharer)
{
    Directory dir(kMaxBlocks);
    dir.setOwner(blk, 1);
    dir.downgrade(blk);
    EXPECT_EQ(dir.stateOf(blk), CoherenceState::Shared);
    EXPECT_TRUE(dir.isSharer(blk, 1));
    EXPECT_EQ(dir.stats().downgrades.value(), 1u);
}

TEST(Directory, ReadFillByOwnerDemotesToShared)
{
    Directory dir(kMaxBlocks);
    dir.setOwner(blk, 1);
    dir.addSharer(blk, 1);
    EXPECT_EQ(dir.stateOf(blk), CoherenceState::Shared);
}

TEST(Directory, RemoveSharerToInvalid)
{
    Directory dir(kMaxBlocks);
    dir.addSharer(blk, 0);
    dir.addSharer(blk, 1);
    dir.removeSharer(blk, 0);
    EXPECT_EQ(dir.stateOf(blk), CoherenceState::Shared);
    dir.removeSharer(blk, 1);
    EXPECT_EQ(dir.stateOf(blk), CoherenceState::Invalid);
    EXPECT_EQ(dir.trackedBlocks(), 0u);
}

TEST(Directory, RemoveOwnerClearsOwnership)
{
    Directory dir(kMaxBlocks);
    dir.setOwner(blk, 3);
    dir.removeSharer(blk, 3);
    EXPECT_EQ(dir.stateOf(blk), CoherenceState::Invalid);
}

TEST(Directory, ClearDropsBlock)
{
    Directory dir(kMaxBlocks);
    dir.addSharer(blk, 0);
    dir.addSharer(blk + 64, 1);
    dir.clear(blk);
    EXPECT_EQ(dir.stateOf(blk), CoherenceState::Invalid);
    EXPECT_EQ(dir.stateOf(blk + 64), CoherenceState::Shared);
}

TEST(Directory, RemoveSharerOnUnknownBlockIsNoOp)
{
    Directory dir(kMaxBlocks);
    dir.removeSharer(0x9999, 0); // must not crash or create state
    EXPECT_EQ(dir.trackedBlocks(), 0u);
}

TEST(Directory, IndependentBlocks)
{
    Directory dir(kMaxBlocks);
    dir.setOwner(blk, 0);
    dir.addSharer(blk + 64, 1);
    EXPECT_EQ(dir.stateOf(blk), CoherenceState::Modified);
    EXPECT_EQ(dir.stateOf(blk + 64), CoherenceState::Shared);
}

TEST(Directory, TrackingPastTheBoundPanics)
{
    Directory dir(2);
    dir.addSharer(blk, 0);
    dir.addSharer(blk + 64, 0);
    dir.addSharer(blk + 64, 1); // an existing block: no new slot
    EXPECT_DEATH(dir.addSharer(blk + 128, 0), "bound");
}

/**
 * The directory as it was before the flat table: the same operations
 * over a std::unordered_map, used as the reference model.
 */
struct RefDirectory
{
    using Entry = Directory::Entry;

    void
    addSharer(Addr block, u32 core)
    {
        Entry &e = map[block];
        e.sharers |= 1u << core;
        if (e.owner == core)
            e.owner = Directory::noOwner;
    }

    void
    setOwner(Addr block, u32 core, bool dirty)
    {
        Entry &e = map[block];
        e.sharers = 1u << core;
        e.owner = core;
        e.dirty = dirty;
    }

    void
    markDirty(Addr block)
    {
        const auto it = map.find(block);
        if (it != map.end())
            it->second.dirty = true;
    }

    void
    downgrade(Addr block)
    {
        const auto it = map.find(block);
        if (it != map.end()) {
            it->second.owner = Directory::noOwner;
            it->second.dirty = false;
            ++downgrades;
        }
    }

    void
    removeSharer(Addr block, u32 core)
    {
        const auto it = map.find(block);
        if (it == map.end())
            return;
        it->second.sharers &= ~(1u << core);
        if (it->second.owner == core) {
            it->second.owner = Directory::noOwner;
            it->second.dirty = false;
        }
        if (it->second.sharers == 0)
            map.erase(it);
    }

    std::unordered_map<Addr, Entry> map;
    u64 downgrades = 0;
};

/** Every key of @p keys reads the same from both directories. */
void
expectSame(const Directory &dir, const RefDirectory &ref,
           const std::vector<Addr> &keys)
{
    ASSERT_EQ(dir.trackedBlocks(), ref.map.size());
    ASSERT_EQ(dir.stats().downgrades.value(), ref.downgrades);
    for (const Addr k : keys) {
        const Directory::Entry *e = dir.find(k);
        const auto it = ref.map.find(k);
        ASSERT_EQ(e != nullptr, it != ref.map.end()) << std::hex << k;
        if (e == nullptr)
            continue;
        EXPECT_EQ(e->sharers, it->second.sharers) << std::hex << k;
        EXPECT_EQ(e->owner, it->second.owner) << std::hex << k;
        EXPECT_EQ(e->dirty, it->second.dirty) << std::hex << k;
    }
}

/**
 * Random operation sequences over a pool of @p pool_size block
 * addresses on a directory bounded at @p max_blocks. Operations that
 * would track a block past the bound are skipped, as inclusion
 * guarantees in the simulator. With a pool larger than the table,
 * probe runs form and break constantly, so erases shift entries back.
 */
void
runDifferential(u64 seed, std::size_t max_blocks, u32 pool_size,
                u32 cores, u32 ops)
{
    Rng rng(seed);
    std::vector<Addr> keys;
    for (u32 i = 0; i < pool_size; ++i)
        keys.push_back(0x100000 + rng.below(1u << 20) * 64);
    Directory dir(max_blocks);
    RefDirectory ref;
    for (u32 i = 0; i < ops; ++i) {
        const Addr k = keys[rng.below(pool_size)];
        const u32 core = static_cast<u32>(rng.below(cores));
        const bool is_new = ref.map.find(k) == ref.map.end();
        const bool full = ref.map.size() >= max_blocks;
        switch (rng.below(6)) {
          case 0:
            if (is_new && full)
                break;
            dir.addSharer(k, core);
            ref.addSharer(k, core);
            break;
          case 1: {
            if (is_new && full)
                break;
            const bool dirty = rng.chance(0.5);
            dir.setOwner(k, core, dirty);
            ref.setOwner(k, core, dirty);
            break;
          }
          case 2:
            dir.markDirty(k);
            ref.markDirty(k);
            break;
          case 3:
            dir.downgrade(k);
            ref.downgrade(k);
            break;
          case 4:
            dir.removeSharer(k, core);
            ref.removeSharer(k, core);
            break;
          default:
            dir.clear(k);
            ref.map.erase(k);
            break;
        }
        ASSERT_NO_FATAL_FAILURE(expectSame(dir, ref, keys))
            << "seed " << seed << " op " << i;
    }
}

TEST(DirectoryVsReference, ThirtyTwoCoresRoomyTable)
{
    for (u64 seed = 1; seed <= 4; ++seed)
        runDifferential(seed, 256, 96, 32, 20000);
}

TEST(DirectoryVsReference, CollidingKeysInATinyTable)
{
    // Four slots for up to two blocks out of a pool of twelve: nearly
    // every insert collides and most erases shift a neighbour back.
    for (u64 seed = 1; seed <= 8; ++seed)
        runDifferential(seed, 2, 12, 32, 5000);
}

TEST(DirectoryVsReference, TableHeldAtItsBound)
{
    // A pool barely larger than the bound keeps the table full, so
    // the inserts the bound allows land in the longest probe runs.
    for (u64 seed = 1; seed <= 8; ++seed)
        runDifferential(seed, 16, 20, 32, 10000);
}

TEST(DirectoryVsReference, FillToTheBoundThenDrain)
{
    constexpr std::size_t bound = 64;
    Rng rng(7);
    std::vector<Addr> keys;
    for (std::size_t i = 0; i < bound; ++i)
        keys.push_back(0x200000 + rng.below(1u << 24) * 64);
    Directory dir(bound);
    RefDirectory ref;
    for (const Addr k : keys) {
        const u32 core = static_cast<u32>(rng.below(32));
        dir.addSharer(k, core);
        ref.addSharer(k, core);
    }
    ASSERT_NO_FATAL_FAILURE(expectSame(dir, ref, keys));
    ASSERT_EQ(dir.trackedBlocks(), bound);
    // Drain in a random order; every step leaves the rest findable.
    for (std::size_t i = keys.size(); i > 1; --i)
        std::swap(keys[i - 1], keys[rng.below(i)]);
    std::vector<Addr> all = keys;
    for (const Addr k : keys) {
        dir.clear(k);
        ref.map.erase(k);
        ASSERT_NO_FATAL_FAILURE(expectSame(dir, ref, all));
    }
    EXPECT_EQ(dir.trackedBlocks(), 0u);
}

} // namespace
} // namespace lva
