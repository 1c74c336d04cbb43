/**
 * @file
 * Unit tests for the ROB-occupancy OoO core timing model.
 */

#include <gtest/gtest.h>

#include <deque>

#include "cpu/ooo_core.hh"
#include "util/random.hh"

namespace lva {
namespace {

CoreConfig
core4x32()
{
    return CoreConfig{4, 32};
}

TEST(OoOCore, BandwidthLimitedRetirement)
{
    OoOCore core(core4x32());
    core.executeInstructions(400);
    EXPECT_DOUBLE_EQ(core.now(), 100.0);
    EXPECT_EQ(core.instructionsRetired(), 400u);
}

TEST(OoOCore, RetireTimeIsTheExactQuotientAtAnyWidth)
{
    // 5 * (1/3) rounds one ulp away from 5 / 3, so only a true
    // division passes at width 3; at width 4 the reciprocal is exact.
    ASSERT_NE(5.0 * (1.0 / 3.0), 5.0 / 3.0);
    OoOCore three(CoreConfig{3, 32});
    three.executeInstructions(5);
    EXPECT_EQ(three.now(), 5.0 / 3.0);
    OoOCore four(core4x32());
    four.executeInstructions(5);
    EXPECT_EQ(four.now(), 5.0 / 4.0);
}

TEST(OoOCore, HitsAreJustInstructions)
{
    OoOCore core(core4x32());
    for (int i = 0; i < 8; ++i)
        core.loadHit();
    EXPECT_DOUBLE_EQ(core.now(), 2.0);
}

TEST(OoOCore, MissOverlapsWithRobWorthOfWork)
{
    OoOCore core(core4x32());
    // Miss completing at cycle 100; 31 instructions fit in the ROB
    // behind it (7.75 cycles of work), then the core stalls.
    core.demandMiss(100.0);
    core.executeInstructions(31);
    EXPECT_LT(core.now(), 9.0);
    core.executeInstructions(1); // 33rd instruction: ROB full
    EXPECT_GE(core.now(), 100.0);
    EXPECT_LT(core.now(), 101.0);
}

TEST(OoOCore, CompletedMissDoesNotStall)
{
    OoOCore core(core4x32());
    core.demandMiss(1.0); // effectively already done
    core.executeInstructions(1000);
    EXPECT_DOUBLE_EQ(core.now(), 250.25);
}

TEST(OoOCore, MemoryLevelParallelism)
{
    // Two misses inside one ROB window both complete at ~t=100: the
    // total stall is one epoch, not two.
    OoOCore core(core4x32());
    core.demandMiss(100.0);
    core.executeInstructions(4);
    core.demandMiss(101.0);
    core.executeInstructions(200);
    EXPECT_LT(core.now(), 160.0);
}

TEST(OoOCore, SerializedMissesPayFullLatencyEach)
{
    OoOCore core(core4x32());
    core.demandMiss(100.0);
    core.executeInstructions(100); // stalls at ~100
    const double after_first = core.now();
    EXPECT_GE(after_first, 100.0);
    core.demandMiss(after_first + 100.0);
    core.executeInstructions(100);
    EXPECT_GE(core.now(), after_first + 100.0);
}

TEST(OoOCore, DrainAllWaitsForOutstanding)
{
    OoOCore core(core4x32());
    core.demandMiss(500.0);
    EXPECT_LT(core.now(), 2.0);
    core.drainAll();
    EXPECT_GE(core.now(), 500.0);
}

TEST(OoOCore, AdvanceToIsMonotone)
{
    OoOCore core(core4x32());
    core.advanceTo(50.0);
    EXPECT_DOUBLE_EQ(core.now(), 50.0);
    core.advanceTo(10.0); // no backwards travel
    EXPECT_DOUBLE_EQ(core.now(), 50.0);
}

TEST(OoOCore, MissLatencyAccounting)
{
    OoOCore core(core4x32());
    core.demandMiss(40.0);
    EXPECT_EQ(core.demandMisses(), 1u);
    EXPECT_NEAR(core.missLatencySum(), 40.0, 1.0);
}

TEST(OoOCore, StoresNeverStall)
{
    OoOCore core(core4x32());
    for (int i = 0; i < 100; ++i)
        core.storeAccess();
    EXPECT_DOUBLE_EQ(core.now(), 25.0);
}

/** Property: wider cores retire the same work in proportionally
 *  fewer cycles. */
class WidthSweep : public ::testing::TestWithParam<u32>
{
};

TEST_P(WidthSweep, ComputeScalesWithWidth)
{
    const u32 width = GetParam();
    OoOCore core(CoreConfig{width, 32});
    core.executeInstructions(1200);
    EXPECT_DOUBLE_EQ(core.now(), 1200.0 / width);
}

INSTANTIATE_TEST_SUITE_P(Widths, WidthSweep,
                         ::testing::Values(1u, 2u, 4u, 8u));

/**
 * The core model as it was with an unbounded std::deque miss window:
 * the reference the fixed-ring OoOCore must match exactly.
 */
class DequeOoOCore
{
  public:
    explicit DequeOoOCore(const CoreConfig &config) : config_(config) {}

    double now() const { return now_; }
    u64 instructionsRetired() const { return instrCount_; }
    double missLatencySum() const { return missLatencySum_; }

    void
    executeInstructions(u64 n)
    {
        while (n > 0) {
            drainCompleted();
            if (!outstanding_.empty()) {
                const PendingMiss &oldest = outstanding_.front();
                const u64 limit =
                    oldest.instrIndex + config_.robEntries - 1;
                if (instrCount_ >= limit) {
                    if (now_ < oldest.completion)
                        now_ = oldest.completion;
                    outstanding_.pop_front();
                    continue;
                }
                const u64 room = limit - instrCount_;
                const u64 take = n < room ? n : room;
                advance(take);
                n -= take;
                continue;
            }
            advance(n);
            n = 0;
        }
    }

    void
    demandMiss(double completion)
    {
        executeInstructions(1);
        outstanding_.push_back(PendingMiss{instrCount_, completion});
        const double latency = completion - now_;
        missLatencySum_ += latency > 0.0 ? latency : 0.0;
    }

    void
    advanceTo(double t)
    {
        if (t > now_)
            now_ = t;
    }

    void
    drainAll()
    {
        while (!outstanding_.empty()) {
            if (now_ < outstanding_.front().completion)
                now_ = outstanding_.front().completion;
            outstanding_.pop_front();
        }
    }

  private:
    struct PendingMiss
    {
        u64 instrIndex;
        double completion;
    };

    void
    advance(u64 instructions)
    {
        instrCount_ += instructions;
        now_ += static_cast<double>(instructions) /
                static_cast<double>(config_.width);
    }

    void
    drainCompleted()
    {
        while (!outstanding_.empty() &&
               outstanding_.front().completion <= now_)
            outstanding_.pop_front();
    }

    CoreConfig config_;
    double now_ = 0.0;
    u64 instrCount_ = 0;
    std::deque<PendingMiss> outstanding_;
    double missLatencySum_ = 0.0;
};

TEST(OoOCore, RingWindowMatchesDequeReference)
{
    Rng rng(0x00c0'4e11ULL);
    for (int run = 0; run < 200; ++run) {
        // Small ROBs keep the ring full often; miss bursts overlap
        // and long latencies leave many misses in flight.
        const CoreConfig cfg{static_cast<u32>(1 + rng.below(4)),
                             static_cast<u32>(1 + rng.below(40))};
        OoOCore ring(cfg);
        DequeOoOCore ref(cfg);
        for (int op = 0; op < 2000; ++op) {
            switch (rng.below(8)) {
              case 0:
              case 1: {
                const u64 n = rng.below(3) == 0 ? rng.below(200)
                                                : rng.below(4);
                ring.executeInstructions(n);
                ref.executeInstructions(n);
                break;
              }
              case 2:
              case 3:
              case 4:
              case 5: {
                const double done =
                    ring.now() + rng.uniform(-5.0, 400.0);
                ring.demandMiss(done);
                ref.demandMiss(done);
                break;
              }
              case 6: {
                const double t = ring.now() + rng.uniform(-10.0, 50.0);
                ring.advanceTo(t);
                ref.advanceTo(t);
                break;
              }
              default:
                if (rng.below(20) == 0) {
                    ring.drainAll();
                    ref.drainAll();
                }
            }
            ASSERT_EQ(ring.now(), ref.now()) << "run " << run;
            ASSERT_EQ(ring.instructionsRetired(),
                      ref.instructionsRetired());
            ASSERT_EQ(ring.missLatencySum(), ref.missLatencySum());
        }
        ring.drainAll();
        ref.drainAll();
        EXPECT_EQ(ring.now(), ref.now());
        EXPECT_EQ(ring.instructionsRetired(), ref.instructionsRetired());
        EXPECT_EQ(ring.missLatencySum(), ref.missLatencySum());
    }
}

} // namespace
} // namespace lva
