/**
 * @file
 * Bandwidth-limited resource modelled as a calendar of time buckets.
 *
 * The timing replay advances four core clocks that can skew by a stall
 * epoch relative to each other, so requests reach shared resources
 * slightly out of global time order. A strict busy-until model would
 * queue an earlier-timestamped request behind a later one — a
 * causality violation that snowballs into unbounded artificial
 * queueing. A calendar of fixed-width buckets with per-bucket service
 * capacity accepts out-of-order arrivals gracefully: a request books
 * the first bucket at or after its arrival time with capacity left,
 * which preserves genuine burst-induced queueing without the
 * pathology.
 */

#ifndef LVA_UTIL_SLOTTED_RESOURCE_HH
#define LVA_UTIL_SLOTTED_RESOURCE_HH

#include <bit>
#include <vector>

#include "util/logging.hh"
#include "util/types.hh"

namespace lva {

/**
 * A resource that can serve `capacity` cycles of work per
 * `bucketCycles`-cycle bucket (capacity == bucketCycles models a fully
 * pipelined unit serving one cycle of work per cycle).
 */
class SlottedResource
{
  public:
    /**
     * @param bucket_cycles calendar granularity
     * @param capacity      service cycles available per bucket
     * @param buckets       ring size (the look-ahead horizon); a power
     *                      of two, so the ring index is a mask
     */
    explicit SlottedResource(double bucket_cycles = 8.0,
                             double capacity = 8.0,
                             std::size_t buckets = 1 << 14)
        : bucketCycles_(bucket_cycles), capacity_(capacity),
          mask_(buckets - 1), slots_(buckets, Slot{0.0, ~u64(0)})
    {
        lva_assert(bucket_cycles > 0.0 && capacity > 0.0,
                   "bad slotted resource parameters");
        lva_assert(std::has_single_bit(buckets),
                   "bucket count %zu not a power of two", buckets);
    }

    /**
     * Book @p service cycles of work starting no earlier than @p t.
     * @return the cycle at which service begins
     */
    double
    acquire(double t, double service)
    {
        if (t < 0.0)
            t = 0.0;
        u64 bucket = static_cast<u64>(t / bucketCycles_);
        for (;;) {
            double &used = usedIn(bucket);
            if (used + service <= capacity_ ||
                used == 0.0 /* oversize requests get a fresh bucket */) {
                const double base =
                    static_cast<double>(bucket) * bucketCycles_ + used;
                used += service;
                const double start = base > t ? base : t;
                waitSum_ += start - t;
                ++requests_;
                return start;
            }
            ++bucket;
        }
    }

    /** Total queueing observed (diagnostics). */
    double waitSum() const { return waitSum_; }
    u64 requests() const { return requests_; }

  private:
    /** One calendar bucket: the work booked in it, and which bucket
     *  number it currently holds (a ring slot is reused every
     *  mask_ + 1 buckets and starts empty when it is). */
    struct Slot
    {
        double used;
        u64 epoch;
    };

    double &
    usedIn(u64 bucket)
    {
        Slot &slot = slots_[bucket & mask_];
        if (slot.epoch != bucket) {
            slot.epoch = bucket;
            slot.used = 0.0;
        }
        return slot.used;
    }

    double bucketCycles_;
    double capacity_;
    u64 mask_;
    std::vector<Slot> slots_;
    double waitSum_ = 0.0;
    u64 requests_ = 0;
};

} // namespace lva

#endif // LVA_UTIL_SLOTTED_RESOURCE_HH
