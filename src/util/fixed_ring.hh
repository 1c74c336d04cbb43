/**
 * @file
 * Fixed-capacity FIFO ring for the bounded queues of the phase-2
 * replay loop: storage is allocated once at construction, so pushes
 * and pops never allocate.
 */

#ifndef LVA_UTIL_FIXED_RING_HH
#define LVA_UTIL_FIXED_RING_HH

#include <vector>

#include "util/logging.hh"
#include "util/types.hh"

namespace lva {

template <typename T>
class FixedRing
{
  public:
    explicit FixedRing(u32 capacity)
        : slots_(capacity), capacity_(capacity)
    {
        lva_assert(capacity > 0, "ring needs a nonzero capacity");
    }

    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == capacity_; }

    /** Oldest element. @pre !empty() */
    const T &front() const { return slots_[head_]; }

    /** Append @p v as the newest element; overflow is fatal. */
    void
    push(const T &v)
    {
        lva_assert(size_ < capacity_, "ring of %u overflowed", capacity_);
        u32 tail = head_ + size_;
        if (tail >= capacity_)
            tail -= capacity_;
        slots_[tail] = v;
        ++size_;
    }

    /** Drop the oldest element. @pre !empty() */
    void
    pop()
    {
        if (++head_ == capacity_)
            head_ = 0;
        --size_;
    }

  private:
    std::vector<T> slots_;
    u32 capacity_;
    u32 head_ = 0;
    u32 size_ = 0;
};

} // namespace lva

#endif // LVA_UTIL_FIXED_RING_HH
