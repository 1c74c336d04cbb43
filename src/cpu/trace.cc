#include "cpu/trace.hh"

#include <sys/mman.h>

#include <limits>
#include <new>
#include <utility>

#include "util/logging.hh"

namespace lva {

ThreadTrace::ThreadTrace(std::initializer_list<TraceEvent> events)
{
    growTo(events.size());
    for (const TraceEvent &ev : events)
        push_back(ev);
}

ThreadTrace::ThreadTrace(const ThreadTrace &other)
{
    growTo(other.size_);
    for (const TraceEvent &ev : other)
        push_back(ev);
}

ThreadTrace::ThreadTrace(ThreadTrace &&other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      capacity_(std::exchange(other.capacity_, 0))
{
}

ThreadTrace &
ThreadTrace::operator=(ThreadTrace other) noexcept
{
    swap(other);
    return *this;
}

ThreadTrace::~ThreadTrace()
{
    if (data_ != nullptr)
        munmap(data_, capacity_ * sizeof(TraceEvent));
}

void
ThreadTrace::growTo(std::size_t events)
{
    const std::size_t steps = (events + chunkEvents - 1) / chunkEvents;
    const std::size_t newCapacity = steps * chunkEvents;
    if (newCapacity <= capacity_)
        return;
    // An anonymous mapping rather than the heap: growing it moves page
    // tables instead of copying events, and the allocator would keep a
    // freed trace in its per-thread arenas instead of returning it to
    // the OS.
    const std::size_t oldBytes = capacity_ * sizeof(TraceEvent);
    const std::size_t newBytes = newCapacity * sizeof(TraceEvent);
    void *mem = data_ == nullptr
                    ? mmap(nullptr, newBytes, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)
                    : mremap(data_, oldBytes, newBytes, MREMAP_MAYMOVE);
    if (mem == MAP_FAILED)
        throw std::bad_alloc();
    data_ = static_cast<TraceEvent *>(mem);
    capacity_ = newCapacity;
}

void
ThreadTrace::swap(ThreadTrace &other) noexcept
{
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(capacity_, other.capacity_);
}

TraceRecorder::TraceRecorder(u32 threads)
    : traces_(threads), pendingInstr_(threads, 0)
{
    lva_assert(threads > 0, "need at least one thread");
}

Value
TraceRecorder::loadVirtual(ThreadId tid, LoadSiteId pc, Addr addr,
                    const Value &precise, bool approximable,
                    bool dependent)
{
    lva_assert(tid < traces_.size(), "thread %u out of range", tid);
    TraceEvent ev;
    ev.addr = addr;
    ev.value = precise;
    ev.pc = pc;
    ev.instrBefore = pendingInstr_[tid];
    ev.isLoad = true;
    ev.approximable = approximable;
    ev.dependsOnPrev = dependent;
    traces_[tid].push_back(ev);
    pendingInstr_[tid] = 0;
    return precise;
}

void
TraceRecorder::store(ThreadId tid, LoadSiteId pc, Addr addr)
{
    lva_assert(tid < traces_.size(), "thread %u out of range", tid);
    TraceEvent ev;
    ev.addr = addr;
    ev.pc = pc;
    ev.instrBefore = pendingInstr_[tid];
    ev.isLoad = false;
    ev.approximable = false;
    traces_[tid].push_back(ev);
    pendingInstr_[tid] = 0;
}

void
TraceRecorder::tickInstructions(ThreadId tid, u64 n)
{
    lva_assert(tid < traces_.size(), "thread %u out of range", tid);
    const u32 pending = pendingInstr_[tid];
    lva_assert(n <= std::numeric_limits<u32>::max() - pending,
               "thread %u: %llu + %u instructions before one access "
               "overflow the 32-bit instrBefore field",
               tid, static_cast<unsigned long long>(n), pending);
    pendingInstr_[tid] = pending + static_cast<u32>(n);
}

u64
TraceRecorder::totalEvents() const
{
    u64 total = 0;
    for (const auto &trace : traces_)
        total += trace.size();
    return total;
}

u64
TraceRecorder::totalInstructions() const
{
    u64 total = 0;
    for (const auto &trace : traces_) {
        total += trace.size(); // each access is one instruction
        for (const auto &ev : trace)
            total += ev.instrBefore;
    }
    return total;
}

} // namespace lva
