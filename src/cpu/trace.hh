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
 * stored encoded: a 16-byte record per event (the address with the
 * flags in its top byte, the PC and the instruction count) plus a
 * packed column holding each event's value in 0, 4 or 8 bytes. Every
 * field decodes bit-exactly; TraceEvent is the decoded form.
 */

#ifndef LVA_CPU_TRACE_HH
#define LVA_CPU_TRACE_HH

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
 * The access stream of one logical thread / core, in two columns.
 *
 * Record column: one 16-byte record per event, `{u64 addr | flags in
 * bits 56-63; u32 pc; u32 instrBefore}`. The flags are isLoad (bit
 * 56), approximable (57), dependsOnPrev (58), the ValueKind (59-60)
 * and the value's width code (61-62); bit 63 is zero. Addresses must
 * fit 56 bits.
 *
 * Value column: a byte stream with one entry per event, in event
 * order. A value whose bits are all zero (Value{}, so every store)
 * takes 0 bytes; one whose low half gives back its bits — zero-
 * extended for Float32, sign-extended for Int64 — takes 4; any other
 * takes 8.
 *
 * Both columns grow in fixed steps of chunkEvents events (8-byte
 * values for the value column). The surface is the subset of
 * std::vector the recorder, the replay loop and the trace file format
 * use, with decoded events in place of references.
 */
class ThreadTrace
{
    struct Record
    {
        u64 addrFlags;
        LoadSiteId pc;
        u32 instrBefore;
    };
    static_assert(sizeof(Record) == 16, "trace record layout drifted");

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

    static constexpr unsigned flagShift = 56;
    static constexpr u64 isLoadFlag = u64(1) << 56;
    static constexpr u64 approximableFlag = u64(1) << 57;
    static constexpr u64 dependsOnPrevFlag = u64(1) << 58;
    static constexpr unsigned kindShift = 59;
    static constexpr unsigned widthShift = 61;

  public:
    /** Events per growth step (1 MiB of records, 512 KiB of values). */
    static constexpr std::size_t chunkEvents = std::size_t(1) << 16;
    /** Largest address a trace can hold (56 bits). */
    static constexpr Addr maxAddr = (Addr(1) << flagShift) - 1;

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
            const u64 af = rec_->addrFlags;
            const auto kind =
                static_cast<ValueKind>((af >> kindShift) & 3);
            u64 bits = 0;
            switch (af >> widthShift) {
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
            ev.addr = af & maxAddr;
            ev.value = Value::fromBits(kind, bits);
            ev.pc = rec_->pc;
            ev.instrBefore = rec_->instrBefore;
            ev.isLoad = (af & isLoadFlag) != 0;
            ev.approximable = (af & approximableFlag) != 0;
            ev.dependsOnPrev = (af & dependsOnPrevFlag) != 0;
            return ev;
        }

        const_iterator &
        operator++()
        {
            value_ += 4 * (rec_->addrFlags >> widthShift);
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
        const_iterator(const Record *rec, const unsigned char *value)
            : rec_(rec), value_(value)
        {
        }

        const Record *rec_ = nullptr;
        const unsigned char *value_ = nullptr;
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
        return records_.capacity() / sizeof(Record);
    }

    /** Append @p ev; panics if its address needs more than 56 bits. */
    void
    push_back(const TraceEvent &ev)
    {
        lva_assert(ev.addr <= maxAddr,
                   "trace address %#llx does not fit 56 bits",
                   static_cast<unsigned long long>(ev.addr));
        if (size_ == capacity())
            records_.reserve((size_ + 1) * sizeof(Record),
                             chunkEvents * sizeof(Record));
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

        const u64 addrFlags = ev.addr | (ev.isLoad ? isLoadFlag : 0) |
                              (ev.approximable ? approximableFlag : 0) |
                              (ev.dependsOnPrev ? dependsOnPrevFlag : 0) |
                              (static_cast<u64>(kind) << kindShift) |
                              (width << widthShift);
        ::new (static_cast<void *>(records() + size_))
            Record{addrFlags, ev.pc, ev.instrBefore};
        ++size_;
    }

    const_iterator begin() const { return {records(), values()}; }

    const_iterator
    end() const
    {
        return {records() + size_, values() + valueBytes_};
    }

  private:
    Record *records() const { return static_cast<Record *>(records_.data()); }

    unsigned char *
    values() const
    {
        return static_cast<unsigned char *>(values_.data());
    }

    void swap(ThreadTrace &other) noexcept;

    Mapping records_;
    Mapping values_;
    std::size_t size_ = 0;
    std::size_t valueBytes_ = 0;
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
