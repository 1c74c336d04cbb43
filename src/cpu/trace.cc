#include "cpu/trace.hh"

#include <sys/mman.h>

#include <cstring>
#include <limits>
#include <new>
#include <utility>

#include "util/logging.hh"

namespace lva {

ThreadTrace::Mapping::Mapping(Mapping &&other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      capacity_(std::exchange(other.capacity_, 0))
{
}

ThreadTrace::Mapping::~Mapping()
{
    if (data_ != nullptr)
        munmap(data_, capacity_);
}

void
ThreadTrace::Mapping::reserve(std::size_t bytes, std::size_t step)
{
    const std::size_t newCapacity = (bytes + step - 1) / step * step;
    if (newCapacity <= capacity_)
        return;
    // An anonymous mapping rather than the heap: growing it moves page
    // tables instead of copying bytes, and the allocator would keep a
    // freed trace in its per-thread arenas instead of returning it to
    // the OS.
    void *mem = data_ == nullptr
                    ? mmap(nullptr, newCapacity, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)
                    : mremap(data_, capacity_, newCapacity, MREMAP_MAYMOVE);
    if (mem == MAP_FAILED)
        throw std::bad_alloc();
    data_ = mem;
    capacity_ = newCapacity;
}

void
ThreadTrace::Mapping::swap(Mapping &other) noexcept
{
    std::swap(data_, other.data_);
    std::swap(capacity_, other.capacity_);
}

ThreadTrace::ThreadTrace(std::initializer_list<TraceEvent> events)
{
    records_.reserve(events.size() * sizeof(u64), chunkEvents * sizeof(u64));
    for (const TraceEvent &ev : events)
        push_back(ev);
}

ThreadTrace::ThreadTrace(const ThreadTrace &other)
    : pcs_(other.pcs_), size_(other.size_),
      valueBytes_(other.valueBytes_), wideCount_(other.wideCount_)
{
    records_.reserve(size_ * sizeof(u64), chunkEvents * sizeof(u64));
    values_.reserve(valueBytes_, chunkEvents * sizeof(u64));
    wides_.reserve(wideCount_ * sizeof(Wide), chunkEvents * sizeof(Wide));
    if (size_ > 0)
        std::memcpy(records_.data(), other.records_.data(),
                    size_ * sizeof(u64));
    if (valueBytes_ > 0)
        std::memcpy(values_.data(), other.values_.data(), valueBytes_);
    if (wideCount_ > 0)
        std::memcpy(wides_.data(), other.wides_.data(),
                    wideCount_ * sizeof(Wide));
}

ThreadTrace::ThreadTrace(ThreadTrace &&other) noexcept
    : records_(std::move(other.records_)),
      values_(std::move(other.values_)),
      wides_(std::move(other.wides_)),
      pcs_(std::exchange(other.pcs_, {})),
      size_(std::exchange(other.size_, 0)),
      valueBytes_(std::exchange(other.valueBytes_, 0)),
      wideCount_(std::exchange(other.wideCount_, 0))
{
}

ThreadTrace &
ThreadTrace::operator=(ThreadTrace other) noexcept
{
    swap(other);
    return *this;
}

void
ThreadTrace::swap(ThreadTrace &other) noexcept
{
    records_.swap(other.records_);
    values_.swap(other.values_);
    wides_.swap(other.wides_);
    pcs_.swap(other.pcs_);
    std::swap(size_, other.size_);
    std::swap(valueBytes_, other.valueBytes_);
    std::swap(wideCount_, other.wideCount_);
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
