/**
 * @file
 * Memory-access trace capture for the full-system timing phase.
 *
 * The paper's phase-2 evaluation replays the same program under precise
 * execution and under LVA with varying approximation degree. We record
 * the access stream of a precise functional run (addresses, PCs,
 * precise values, annotation flags, interleaved instruction counts) and
 * replay it through the timing model. Table I shows instruction-count
 * variation under LVA is at most ~2.4%, so trace-driven replay is a
 * faithful substitute for execution-driven timing.
 *
 * A trace is the largest live object of every phase-2 driver, so it is
 * stored encoded: one 8-byte record per event (the address, the
 * instruction count, an index into a per-trace PC table and the flags)
 * plus a packed column holding each event's value in 0, 4 or 8 bytes.
 * An event whose address, count or PC does not fit its record field is
 * "wide": its full address, PC and count go into a third column. Every
 * field decodes bit-exactly; TraceEvent is the decoded form.
 */

#ifndef LVA_CPU_TRACE_HH
#define LVA_CPU_TRACE_HH

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <new>
#include <vector>

#include "core/memory_backend.hh"
#include "util/logging.hh"
#include "util/types.hh"
#include "util/value.hh"

namespace lva {

/**
 * One memory access in a per-thread trace, as recorders build it and
 * ThreadTrace iteration yields it. `pc`, `instrBefore` and the flags
 * are laid out in Value's tail padding, so an event is 32 bytes.
 */
struct TraceEvent
{
    Addr addr = 0;
    /** Precise value (drives the approximator). */
    [[no_unique_address]] Value value{};
    LoadSiteId pc = 0;
    u32 instrBefore = 0;  ///< non-memory instructions since last event
    bool isLoad = true;
    bool approximable = false;
    bool dependsOnPrev = false; ///< address produced by previous load
};
static_assert(sizeof(TraceEvent) == 32, "TraceEvent layout drifted");

/**
 * The access stream of one logical thread / core, in three columns
 * and a PC table.
 *
 * Record column: one u64 per event. Bits 0-31 hold the address, 32-47
 * `instrBefore`, 48-55 the event's index in the PC table; bit 56 is
 * isLoad, 57 approximable, 58 dependsOnPrev, 59-60 the ValueKind and
 * 61-62 the value's width code. Bit 63 marks a wide event, whose bits
 * 0-55 are zero.
 *
 * PC table: the first maxPcs distinct PCs, in order of first use.
 *
 * Value column: a byte stream with one entry per event, in event
 * order. A value whose bits are all zero (Value{}, so every store)
 * takes 0 bytes; one whose low half gives back its bits — zero-
 * extended for Float32, sign-extended for Int64 — takes 4; any other
 * takes 8.
 *
 * Wide column: the full address, PC and count of each wide event, in
 * event order. An event is wide when its address is 2^32 or more, its
 * count 2^16 or more, or its PC missed a full table. Addresses must
 * fit 56 bits either way.
 *
 * The columns grow in fixed steps of chunkEvents entries (8-byte
 * values for the value column). The surface is the subset of
 * std::vector the recorder, the replay loop and the trace file format
 * use, with decoded events in place of references; as with a vector,
 * push_back invalidates iterators.
 */
class ThreadTrace
{
    /** A wide event's fields that do not fit its record. */
    struct Wide
    {
        Addr addr;
        LoadSiteId pc;
        u32 instrBefore;
    };
    static_assert(sizeof(Wide) == 16, "wide entry layout drifted");

    /**
     * One anonymous mapping grown in whole steps with mremap, which
     * moves page tables rather than copying bytes. Pages past the last
     * byte written are never touched, so they cost no memory, and the
     * mapping goes back to the OS when it is destroyed.
     */
    class Mapping
    {
      public:
        Mapping() = default;
        Mapping(Mapping &&other) noexcept;
        Mapping &operator=(Mapping &&) = delete;
        ~Mapping();

        void *data() const { return data_; }
        std::size_t capacity() const { return capacity_; }

        /** Grow to hold @p bytes, rounded up to whole @p step s. */
        void reserve(std::size_t bytes, std::size_t step);

        void swap(Mapping &other) noexcept;

      private:
        void *data_ = nullptr;
        std::size_t capacity_ = 0;
    };

    static constexpr unsigned instrShift = 32;
    static constexpr unsigned pcShift = 48;
    static constexpr u64 isLoadFlag = u64(1) << 56;
    static constexpr u64 approximableFlag = u64(1) << 57;
    static constexpr u64 dependsOnPrevFlag = u64(1) << 58;
    static constexpr unsigned kindShift = 59;
    static constexpr unsigned widthShift = 61;
    static constexpr unsigned wideShift = 63;

  public:
    /** Entries per growth step (512 KiB of records, 512 KiB of values,
     *  1 MiB of wide entries). */
    static constexpr std::size_t chunkEvents = std::size_t(1) << 16;
    /** Largest address a trace can hold (56 bits). */
    static constexpr Addr maxAddr = (Addr(1) << 56) - 1;
    /** Most distinct PCs the PC table holds. */
    static constexpr std::size_t maxPcs = 255;

    /** Forward iterator yielding decoded events. */
    class const_iterator
    {
      public:
        using iterator_concept = std::forward_iterator_tag;
        using iterator_category = std::input_iterator_tag;
        using value_type = TraceEvent;
        using difference_type = std::ptrdiff_t;
        using reference = TraceEvent;
        using pointer = void;

        const_iterator() = default;

        TraceEvent
        operator*() const
        {
            const u64 rec = *rec_;
            const auto kind =
                static_cast<ValueKind>((rec >> kindShift) & 3);
            u64 bits = 0;
            switch ((rec >> widthShift) & 3) {
              case 1: {
                u32 low;
                std::memcpy(&low, value_, sizeof(low));
                bits = kind == ValueKind::Int64
                           ? static_cast<u64>(static_cast<i64>(
                                 static_cast<i32>(low)))
                           : low;
                break;
              }
              case 2:
                std::memcpy(&bits, value_, sizeof(bits));
                break;
              default:
                break;
            }
            TraceEvent ev;
            if (rec >> wideShift) {
                ev.addr = wide_->addr;
                ev.pc = wide_->pc;
                ev.instrBefore = wide_->instrBefore;
            } else {
                ev.addr = static_cast<u32>(rec);
                ev.pc = pcs_[static_cast<u8>(rec >> pcShift)];
                ev.instrBefore = static_cast<u16>(rec >> instrShift);
            }
            ev.value = Value::fromBits(kind, bits);
            ev.isLoad = (rec & isLoadFlag) != 0;
            ev.approximable = (rec & approximableFlag) != 0;
            ev.dependsOnPrev = (rec & dependsOnPrevFlag) != 0;
            return ev;
        }

        const_iterator &
        operator++()
        {
            const u64 rec = *rec_;
            value_ += 4 * ((rec >> widthShift) & 3);
            wide_ += rec >> wideShift;
            ++rec_;
            return *this;
        }

        const_iterator
        operator++(int)
        {
            const_iterator old = *this;
            ++*this;
            return old;
        }

        bool
        operator==(const const_iterator &other) const
        {
            return rec_ == other.rec_;
        }

      private:
        friend class ThreadTrace;
        const_iterator(const u64 *rec, const unsigned char *value,
                       const Wide *wide, const LoadSiteId *pcs)
            : rec_(rec), value_(value), wide_(wide), pcs_(pcs)
        {
        }

        const u64 *rec_ = nullptr;
        const unsigned char *value_ = nullptr;
        const Wide *wide_ = nullptr;
        const LoadSiteId *pcs_ = nullptr;
    };

    ThreadTrace() = default;
    ThreadTrace(std::initializer_list<TraceEvent> events);
    ThreadTrace(const ThreadTrace &other);
    ThreadTrace(ThreadTrace &&other) noexcept;
    /** Copy and move assignment in one (copy-and-swap). */
    ThreadTrace &operator=(ThreadTrace other) noexcept;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /** Events the record column can hold. */
    std::size_t
    capacity() const
    {
        return records_.capacity() / sizeof(u64);
    }

    /** Bytes the three columns hold; capacity not yet written to is
     *  not counted. */
    std::size_t
    storageBytes() const
    {
        return size_ * sizeof(u64) + valueBytes_ + wideCount_ * sizeof(Wide);
    }

    /** Append @p ev; panics if its address needs more than 56 bits. */
    void
    push_back(const TraceEvent &ev)
    {
        lva_assert(ev.addr <= maxAddr,
                   "trace address %#llx does not fit 56 bits",
                   static_cast<unsigned long long>(ev.addr));
        if (size_ == capacity())
            records_.reserve((size_ + 1) * sizeof(u64),
                             chunkEvents * sizeof(u64));
        if (valueBytes_ + sizeof(u64) > values_.capacity())
            values_.reserve(valueBytes_ + sizeof(u64),
                            chunkEvents * sizeof(u64));

        const u64 bits = ev.value.bits();
        const ValueKind kind = ev.value.kind();
        const u32 low = static_cast<u32>(bits);
        u64 width = 2;
        if (bits == 0)
            width = 0;
        else if ((kind == ValueKind::Int64 &&
                  static_cast<i64>(static_cast<i32>(low)) ==
                      static_cast<i64>(bits)) ||
                 (kind == ValueKind::Float32 && bits == low))
            width = 1;
        unsigned char *out = values() + valueBytes_;
        if (width == 1)
            std::memcpy(out, &low, sizeof(low));
        else if (width == 2)
            std::memcpy(out, &bits, sizeof(bits));
        valueBytes_ += 4 * width;

        u64 rec = (ev.isLoad ? isLoadFlag : 0) |
                  (ev.approximable ? approximableFlag : 0) |
                  (ev.dependsOnPrev ? dependsOnPrevFlag : 0) |
                  (static_cast<u64>(kind) << kindShift) |
                  (width << widthShift);
        const std::size_t pcIndex = pcIndexOf(ev.pc);
        if (ev.addr <= 0xffff'ffff && ev.instrBefore <= 0xffff &&
            pcIndex < maxPcs) {
            rec |= ev.addr | (u64(ev.instrBefore) << instrShift) |
                   (u64(pcIndex) << pcShift);
        } else {
            rec |= u64(1) << wideShift;
            if ((wideCount_ + 1) * sizeof(Wide) > wides_.capacity())
                wides_.reserve((wideCount_ + 1) * sizeof(Wide),
                               chunkEvents * sizeof(Wide));
            ::new (static_cast<void *>(wides() + wideCount_))
                Wide{ev.addr, ev.pc, ev.instrBefore};
            ++wideCount_;
        }
        ::new (static_cast<void *>(records() + size_)) u64(rec);
        ++size_;
    }

    const_iterator
    begin() const
    {
        return {records(), values(), wides(), pcs_.data()};
    }

    const_iterator
    end() const
    {
        return {records() + size_, values() + valueBytes_,
                wides() + wideCount_, pcs_.data()};
    }

  private:
    u64 *records() const { return static_cast<u64 *>(records_.data()); }

    unsigned char *
    values() const
    {
        return static_cast<unsigned char *>(values_.data());
    }

    Wide *wides() const { return static_cast<Wide *>(wides_.data()); }

    /** @p pc's index in the PC table, added if the table has room;
     *  maxPcs if it is full and @p pc is not in it. */
    std::size_t
    pcIndexOf(LoadSiteId pc)
    {
        const auto it = std::find(pcs_.begin(), pcs_.end(), pc);
        if (it != pcs_.end())
            return static_cast<std::size_t>(it - pcs_.begin());
        if (pcs_.size() == maxPcs)
            return maxPcs;
        pcs_.push_back(pc);
        return pcs_.size() - 1;
    }

    void swap(ThreadTrace &other) noexcept;

    Mapping records_;
    Mapping values_;
    Mapping wides_;
    std::vector<LoadSiteId> pcs_;
    std::size_t size_ = 0;
    std::size_t valueBytes_ = 0;
    std::size_t wideCount_ = 0;
};

/**
 * MemoryBackend that records per-thread traces while returning precise
 * values (i.e. the recorded run is the precise execution).
 */
class TraceRecorder : public MemoryBackend
{
  public:
    explicit TraceRecorder(u32 threads = 4);

    void store(ThreadId tid, LoadSiteId pc, Addr addr) override;

    /** Credit @p n non-memory instructions to @p tid's next event;
     *  fatal if the count no longer fits the event's 32-bit field. */
    void tickInstructions(ThreadId tid, u64 n) override;

    const std::vector<ThreadTrace> &traces() const { return traces_; }

    /** Move the recorded traces out, leaving the recorder empty. */
    std::vector<ThreadTrace> takeTraces() { return std::move(traces_); }
    u32 threads() const { return static_cast<u32>(traces_.size()); }

    /** Total events recorded across all threads. */
    u64 totalEvents() const;

    /** Total instructions (memory + non-memory) across all threads. */
    u64 totalInstructions() const;

  protected:
    Value loadVirtual(ThreadId tid, LoadSiteId pc, Addr addr,
                      const Value &precise, bool approximable,
                      bool dependent) override;

  private:
    std::vector<ThreadTrace> traces_;
    std::vector<u32> pendingInstr_;
};

} // namespace lva

#endif // LVA_CPU_TRACE_HH
