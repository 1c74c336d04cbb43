/**
 * @file
 * Directory state for the MSI coherence protocol.
 *
 * One logical directory, banked with the shared L2: for every block it
 * records which L1s hold it and whether one of them owns it in M. The
 * timing simulator consults it to generate invalidation, downgrade and
 * forwarding traffic, and keeps it consistent with the functional L1
 * tag arrays on every fill, eviction and upgrade.
 *
 * Storage is a flat open-addressed table (linear probing, backward-
 * shift erase) sized once at construction. A block is tracked only
 * while some L1 holds it, so the number of tracked blocks is bounded
 * by the total L1 capacity; the table is twice that, rounded up to a
 * power of two, and never grows.
 */

#ifndef LVA_SIM_DIRECTORY_HH
#define LVA_SIM_DIRECTORY_HH

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "util/logging.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace lva {

/** Coherence state of a block as seen by the directory. */
enum class CoherenceState : u8 {
    Invalid,   ///< no L1 holds the block
    Shared,    ///< one or more L1s hold it read-only
    Exclusive, ///< exactly one L1 holds it clean (MESI only)
    Modified,  ///< exactly one L1 owns it dirty
};

/** Which protocol the directory enforces. */
enum class CoherenceProtocol : u8 {
    Msi,  ///< the paper's Table II configuration
    Mesi, ///< adds the E state: silent upgrade on private data
};

/** Directory statistics. */
struct DirectoryStats
{
    Counter invalidationsSent; ///< sharer copies killed by GetM
    Counter downgrades;        ///< M owners demoted to S by GetS
    Counter forwards;          ///< owner-to-requestor data forwards

    void
    reset()
    {
        invalidationsSent.reset();
        downgrades.reset();
        forwards.reset();
    }
};

/**
 * Sharer-tracking directory for up to 32 cores.
 */
class Directory
{
  public:
    static constexpr u32 noOwner = ~u32(0);

    struct Entry
    {
        u32 sharers = 0;      ///< bitmask of L1s holding the block
        u32 owner = noOwner;  ///< valid in Exclusive/Modified
        bool dirty = false;   ///< distinguishes M from E
    };

    /**
     * @param max_blocks the most blocks ever tracked at once (the
     *        total number of L1 blocks); tracking more is a
     *        simulator bug and panics
     */
    explicit Directory(std::size_t max_blocks)
        : maxBlocks_(max_blocks),
          slots_(std::bit_ceil(2 * std::max<std::size_t>(max_blocks, 1))),
          mask_(slots_.size() - 1),
          hashShift_(64 - std::countr_zero(slots_.size()))
    {}

    /** Current coherence state of @p block. */
    CoherenceState
    stateOf(Addr block) const
    {
        const Entry *e = find(block);
        if (e == nullptr || e->sharers == 0)
            return CoherenceState::Invalid;
        if (e->owner == noOwner)
            return CoherenceState::Shared;
        return e->dirty ? CoherenceState::Modified
                        : CoherenceState::Exclusive;
    }

    /** The entry of @p block, or null if untracked. Valid until the
     *  next call that adds or removes a block. */
    const Entry *
    find(Addr block) const
    {
        for (std::size_t i = home(block);; i = (i + 1) & mask_) {
            const Slot &s = slots_[i];
            if (s.block == block)
                return &s.entry;
            if (s.block == invalidAddr)
                return nullptr;
        }
    }

    bool
    isSharer(Addr block, u32 core) const
    {
        const Entry *e = find(block);
        return e != nullptr && (e->sharers & (1u << core)) != 0;
    }

    /** Record that @p core obtained the block in S. */
    void
    addSharer(Addr block, u32 core)
    {
        Entry &e = findOrInsert(block);
        e.sharers |= 1u << core;
        if (e.owner == core)
            e.owner = noOwner; // demoted by a read fill
    }

    /** Record that @p core obtained sole ownership.
     *  @param dirty true for M (a write), false for E (a read fill
     *         granted exclusively under MESI) */
    void
    setOwner(Addr block, u32 core, bool dirty = true)
    {
        Entry &e = findOrInsert(block);
        e.sharers = 1u << core;
        e.owner = core;
        e.dirty = dirty;
    }

    /** Silent E -> M transition (a MESI store hit on own E copy). */
    void
    markDirty(Addr block)
    {
        if (Entry *e = findMutable(block))
            e->dirty = true;
    }

    /** Demote an E/M owner to a plain sharer (GetS downgrade). */
    void
    downgrade(Addr block)
    {
        if (Entry *e = findMutable(block)) {
            e->owner = noOwner;
            e->dirty = false;
            stats_.downgrades.inc();
        }
    }

    /** Remove @p core's copy (L1 eviction or invalidation). */
    void
    removeSharer(Addr block, u32 core)
    {
        Entry *e = findMutable(block);
        if (e == nullptr)
            return;
        e->sharers &= ~(1u << core);
        if (e->owner == core) {
            e->owner = noOwner;
            e->dirty = false;
        }
        if (e->sharers == 0)
            erase(block);
    }

    /** Drop all sharer state for @p block (L2 eviction recall). */
    void
    clear(Addr block)
    {
        erase(block);
    }

    DirectoryStats &stats() { return stats_; }
    const DirectoryStats &stats() const { return stats_; }

    std::size_t trackedBlocks() const { return size_; }

  private:
    /** One table slot; block == invalidAddr marks it empty. */
    struct Slot
    {
        Addr block = invalidAddr;
        Entry entry{};
    };

    /** Home slot of @p block: Fibonacci hashing keeps the high bits
     *  of the product, which mix every address bit (block addresses
     *  have their low bits clear). */
    std::size_t
    home(Addr block) const
    {
        return static_cast<std::size_t>(
            (block * 0x9e3779b97f4a7c15ULL) >> hashShift_);
    }

    Entry *
    findMutable(Addr block)
    {
        return const_cast<Entry *>(std::as_const(*this).find(block));
    }

    Entry &
    findOrInsert(Addr block)
    {
        lva_assert(block != invalidAddr, "invalid block address");
        std::size_t i = home(block);
        for (; slots_[i].block != invalidAddr; i = (i + 1) & mask_)
            if (slots_[i].block == block)
                return slots_[i].entry;
        lva_assert(size_ < maxBlocks_,
                   "directory tracks more than its %zu-block bound",
                   maxBlocks_);
        ++size_;
        slots_[i].block = block;
        slots_[i].entry = Entry{};
        return slots_[i].entry;
    }

    /** Remove @p block if tracked, then close the gap by shifting
     *  back every later entry of the probe run that may move, so
     *  lookups never need tombstones. */
    void
    erase(Addr block)
    {
        std::size_t i = home(block);
        for (; slots_[i].block != block; i = (i + 1) & mask_)
            if (slots_[i].block == invalidAddr)
                return;
        --size_;
        for (std::size_t j = (i + 1) & mask_;
             slots_[j].block != invalidAddr; j = (j + 1) & mask_) {
            // The entry at j may fill the hole at i when its home is
            // not cyclically inside (i, j]: its probe run passes i.
            const std::size_t dist_home = (j - home(slots_[j].block)) & mask_;
            if (dist_home >= ((j - i) & mask_)) {
                slots_[i] = slots_[j];
                i = j;
            }
        }
        slots_[i] = Slot{};
    }

    std::size_t maxBlocks_;
    std::vector<Slot> slots_;
    std::size_t mask_;
    int hashShift_;
    std::size_t size_ = 0;
    DirectoryStats stats_;
};

} // namespace lva

#endif // LVA_SIM_DIRECTORY_HH
