/**
 * @file
 * Unit tests for the slotted (calendar) bandwidth model used for NoC
 * links, L2 bank ports and memory controllers.
 */

#include <gtest/gtest.h>

#include "util/slotted_resource.hh"

namespace lva {
namespace {

TEST(SlottedResource, UncontendedStartsImmediately)
{
    SlottedResource r(8.0, 8.0);
    EXPECT_DOUBLE_EQ(r.acquire(100.0, 2.0), 100.0);
    EXPECT_DOUBLE_EQ(r.waitSum(), 0.0);
}

TEST(SlottedResource, SerializesWithinBucket)
{
    SlottedResource r(8.0, 8.0);
    const double a = r.acquire(0.0, 4.0);
    const double b = r.acquire(0.0, 4.0);
    EXPECT_DOUBLE_EQ(a, 0.0);
    EXPECT_DOUBLE_EQ(b, 4.0); // queues behind the first booking
}

TEST(SlottedResource, SpillsToNextBucketWhenFull)
{
    SlottedResource r(8.0, 8.0);
    r.acquire(0.0, 8.0); // fills bucket [0, 8)
    const double start = r.acquire(0.0, 4.0);
    EXPECT_GE(start, 8.0); // next bucket
}

TEST(SlottedResource, OutOfOrderArrivalUsesEarlierSlot)
{
    SlottedResource r(8.0, 8.0);
    // A "future" booking must not delay an earlier-timestamped one.
    r.acquire(1000.0, 8.0);
    const double start = r.acquire(0.0, 4.0);
    EXPECT_LT(start, 8.0);
}

TEST(SlottedResource, OversizeRequestGetsFreshBucket)
{
    SlottedResource r(8.0, 8.0);
    // A request larger than a bucket's capacity must still be served.
    const double start = r.acquire(0.0, 20.0);
    EXPECT_DOUBLE_EQ(start, 0.0);
}

TEST(SlottedResource, ThroughputBoundedByCapacity)
{
    // Offer 2x the capacity and verify the last start time reflects
    // the backlog (capacity 8 service-cycles per 8-cycle bucket).
    SlottedResource r(8.0, 8.0);
    double last = 0.0;
    const int n = 100;
    for (int i = 0; i < n; ++i)
        last = r.acquire(0.0, 4.0); // 400 cycles of demand at t=0
    EXPECT_GE(last, 0.9 * (n * 4.0 - 8.0));
    EXPECT_EQ(r.requests(), static_cast<u64>(n));
    EXPECT_GT(r.waitSum(), 0.0);
}

TEST(SlottedResource, IndependentBucketsDoNotInterfere)
{
    SlottedResource r(8.0, 8.0);
    r.acquire(0.0, 8.0);
    // A request a few buckets later is unaffected.
    EXPECT_DOUBLE_EQ(r.acquire(32.0, 2.0), 32.0);
}

TEST(SlottedResource, ReusedRingSlotStartsEmpty)
{
    // Four buckets: bucket 4 reuses bucket 0's slot and must not
    // inherit its booking, while bucket 0 itself stays full.
    SlottedResource r(8.0, 8.0, 4);
    EXPECT_DOUBLE_EQ(r.acquire(0.0, 8.0), 0.0);
    EXPECT_DOUBLE_EQ(r.acquire(32.0, 8.0), 32.0);
    EXPECT_DOUBLE_EQ(r.acquire(64.0, 4.0), 64.0);
    EXPECT_DOUBLE_EQ(r.acquire(64.0, 4.0), 68.0);
}

TEST(SlottedResource, BucketCountMustBeAPowerOfTwo)
{
    EXPECT_DEATH(SlottedResource(8.0, 8.0, 1000), "power of two");
}

} // namespace
} // namespace lva
