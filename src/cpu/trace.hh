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
 */

#ifndef LVA_CPU_TRACE_HH
#define LVA_CPU_TRACE_HH

#include <cstddef>
#include <initializer_list>
#include <new>
#include <vector>

#include "core/memory_backend.hh"
#include "util/types.hh"
#include "util/value.hh"

namespace lva {

/**
 * One memory access in a per-thread trace. `pc`, `instrBefore` and the
 * flags are laid out in Value's tail padding, so an event is 32 bytes.
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
 * The access stream of one logical thread / core.
 *
 * Events live in one anonymous mapping that grows in fixed 2 MiB steps
 * with mremap, which moves page tables rather than copying events. At
 * most one step per trace is unused, and a destroyed trace returns its
 * memory to the OS at once. The surface is the subset of std::vector
 * the recorder, the replay loop and the trace file format use.
 */
class ThreadTrace
{
  public:
    /** Events per growth step (2 MiB of 32-byte events). */
    static constexpr std::size_t chunkEvents = std::size_t(1) << 16;

    using const_iterator = const TraceEvent *;

    ThreadTrace() = default;
    ThreadTrace(std::initializer_list<TraceEvent> events);
    ThreadTrace(const ThreadTrace &other);
    ThreadTrace(ThreadTrace &&other) noexcept;
    /** Copy and move assignment in one (copy-and-swap). */
    ThreadTrace &operator=(ThreadTrace other) noexcept;
    ~ThreadTrace();

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /** Events the mapping can hold. */
    std::size_t capacity() const { return capacity_; }

    const TraceEvent &operator[](std::size_t i) const { return data_[i]; }
    TraceEvent &operator[](std::size_t i) { return data_[i]; }

    void
    push_back(const TraceEvent &ev)
    {
        if (size_ == capacity_)
            growTo(capacity_ + chunkEvents);
        ::new (static_cast<void *>(data_ + size_)) TraceEvent(ev);
        ++size_;
    }

    const_iterator begin() const { return data_; }
    const_iterator end() const { return data_ + size_; }

  private:
    /** Grow the mapping to hold @p events, rounded up to whole steps. */
    void growTo(std::size_t events);

    void swap(ThreadTrace &other) noexcept;

    TraceEvent *data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
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
