/**
 * @file
 * Unit tests for trace recording.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "cpu/trace.hh"

namespace lva {
namespace {

TEST(TraceRecorder, RecordsLoadsWithPayload)
{
    TraceRecorder rec(2);
    rec.tickInstructions(0, 5);
    const Value got =
        rec.load(0, 0x400, 0x1234, Value::fromFloat(2.5f), true);
    EXPECT_FLOAT_EQ(got.asFloat(), 2.5f); // recorder never clobbers

    ASSERT_EQ(rec.traces()[0].size(), 1u);
    const TraceEvent &ev = rec.traces()[0][0];
    EXPECT_EQ(ev.addr, 0x1234u);
    EXPECT_EQ(ev.pc, 0x400u);
    EXPECT_EQ(ev.instrBefore, 5u);
    EXPECT_TRUE(ev.isLoad);
    EXPECT_TRUE(ev.approximable);
    EXPECT_FALSE(ev.dependsOnPrev);
    EXPECT_FLOAT_EQ(ev.value.asFloat(), 2.5f);
}

TEST(TraceRecorder, RecordsDependencyFlag)
{
    TraceRecorder rec(1);
    rec.load(0, 0x400, 0x1000, Value::fromInt(1), false, true);
    EXPECT_TRUE(rec.traces()[0][0].dependsOnPrev);
}

TEST(TraceRecorder, RecordsStores)
{
    TraceRecorder rec(1);
    rec.tickInstructions(0, 3);
    rec.store(0, 0x500, 0x2000);
    const TraceEvent &ev = rec.traces()[0][0];
    EXPECT_FALSE(ev.isLoad);
    EXPECT_EQ(ev.instrBefore, 3u);
    EXPECT_EQ(ev.addr, 0x2000u);
}

TEST(TraceRecorder, InstrBeforeResetsPerEvent)
{
    TraceRecorder rec(1);
    rec.tickInstructions(0, 10);
    rec.load(0, 0x400, 0x1000, Value::fromInt(1), false);
    rec.load(0, 0x400, 0x1040, Value::fromInt(1), false);
    EXPECT_EQ(rec.traces()[0][0].instrBefore, 10u);
    EXPECT_EQ(rec.traces()[0][1].instrBefore, 0u);
}

TEST(TraceRecorder, ThreadsAreSeparate)
{
    TraceRecorder rec(3);
    rec.load(0, 0x400, 0x1000, Value::fromInt(1), false);
    rec.load(2, 0x400, 0x2000, Value::fromInt(1), false);
    EXPECT_EQ(rec.traces()[0].size(), 1u);
    EXPECT_EQ(rec.traces()[1].size(), 0u);
    EXPECT_EQ(rec.traces()[2].size(), 1u);
    EXPECT_EQ(rec.totalEvents(), 2u);
}

TEST(TraceRecorder, TotalInstructionsCountsMemOps)
{
    TraceRecorder rec(1);
    rec.tickInstructions(0, 7);
    rec.load(0, 0x400, 0x1000, Value::fromInt(1), false);
    rec.store(0, 0x400, 0x1040);
    EXPECT_EQ(rec.totalInstructions(), 9u); // 7 + load + store
}

TEST(TraceRecorder, InstructionCountOverflowIsFatal)
{
    TraceRecorder rec(1);
    rec.tickInstructions(0, std::numeric_limits<u32>::max() - 1);
    rec.tickInstructions(0, 1); // exactly fills the 32-bit field
    EXPECT_DEATH(rec.tickInstructions(0, 1), "instrBefore");

    TraceRecorder wide(1);
    EXPECT_DEATH(wide.tickInstructions(0, u64(1) << 32), "instrBefore");
}

/** Event @p i of the synthetic stream the ThreadTrace tests append. */
TraceEvent
syntheticEvent(std::size_t i)
{
    TraceEvent ev;
    ev.addr = 0x1000 + 64 * i;
    ev.value = Value::fromInt(static_cast<i64>(i) * 3 - 7);
    ev.pc = static_cast<LoadSiteId>(i * 13);
    ev.instrBefore = static_cast<u32>(i % 97);
    ev.isLoad = i % 3 != 0;
    ev.approximable = i % 5 == 0;
    ev.dependsOnPrev = i % 7 == 0;
    return ev;
}

void
expectSameEvent(const TraceEvent &a, const TraceEvent &b)
{
    EXPECT_EQ(a.addr, b.addr);
    EXPECT_TRUE(a.value.exactlyEquals(b.value));
    EXPECT_EQ(a.pc, b.pc);
    EXPECT_EQ(a.instrBefore, b.instrBefore);
    EXPECT_EQ(a.isLoad, b.isLoad);
    EXPECT_EQ(a.approximable, b.approximable);
    EXPECT_EQ(a.dependsOnPrev, b.dependsOnPrev);
}

TEST(ThreadTrace, EventFieldsShareValuePadding)
{
    // The flags and counters must not clobber the value bits or kind
    // they sit next to, in either assignment order.
    TraceEvent ev;
    ev.pc = 0xffffffffu;
    ev.instrBefore = 0xffffffffu;
    ev.isLoad = ev.approximable = ev.dependsOnPrev = true;
    ev.value = Value::fromFloat(-1.5f);
    EXPECT_EQ(ev.pc, 0xffffffffu);
    EXPECT_EQ(ev.instrBefore, 0xffffffffu);
    EXPECT_TRUE(ev.isLoad && ev.approximable && ev.dependsOnPrev);
    EXPECT_EQ(ev.value.kind(), ValueKind::Float32);
    EXPECT_FLOAT_EQ(ev.value.asFloat(), -1.5f);
}

class ThreadTraceSizes : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(ThreadTraceSizes, MatchesVectorReference)
{
    const std::size_t n = GetParam();
    ThreadTrace trace;
    std::vector<TraceEvent> reference;
    for (std::size_t i = 0; i < n; ++i) {
        trace.push_back(syntheticEvent(i));
        reference.push_back(syntheticEvent(i));
    }
    ASSERT_EQ(trace.size(), n);
    EXPECT_EQ(trace.empty(), n == 0);
    EXPECT_GE(trace.capacity(), n);
    EXPECT_LT(trace.capacity() - n, ThreadTrace::chunkEvents);

    for (std::size_t i = 0; i < n; ++i)
        expectSameEvent(trace[i], reference[i]);
    std::size_t walked = 0;
    for (const TraceEvent &ev : trace) {
        ASSERT_LT(walked, n);
        expectSameEvent(ev, reference[walked]);
        ++walked;
    }
    EXPECT_EQ(walked, n);

    const ThreadTrace copy = trace;
    ASSERT_EQ(copy.size(), n);
    EXPECT_TRUE(std::equal(copy.begin(), copy.end(), reference.begin(),
                           [](const TraceEvent &a, const TraceEvent &b) {
                               return a.addr == b.addr && a.pc == b.pc;
                           }));
}

constexpr std::size_t kChunk = ThreadTrace::chunkEvents;

INSTANTIATE_TEST_SUITE_P(ChunkEdges, ThreadTraceSizes,
                         ::testing::Values(0, 1, kChunk - 1, kChunk,
                                           kChunk + 1, 2 * kChunk,
                                           3 * kChunk, 3 * kChunk + 5));

TEST(ThreadTrace, InterleavedGrowthKeepsEvents)
{
    // Two traces grown in turn leave no room to extend either mapping
    // in place, so every growth step moves the mapping.
    ThreadTrace a, b;
    const std::size_t n = 3 * kChunk + 1;
    for (std::size_t i = 0; i < n; ++i) {
        a.push_back(syntheticEvent(i));
        b.push_back(syntheticEvent(n - i));
    }
    ASSERT_EQ(a.size(), n);
    ASSERT_EQ(b.size(), n);
    for (std::size_t i = 0; i < n; i += 4099) {
        expectSameEvent(a[i], syntheticEvent(i));
        expectSameEvent(b[i], syntheticEvent(n - i));
    }
    expectSameEvent(a[n - 1], syntheticEvent(n - 1));
    expectSameEvent(b[n - 1], syntheticEvent(1));
}

TEST(ThreadTrace, MovedFromTraceIsEmpty)
{
    ThreadTrace a;
    for (std::size_t i = 0; i < kChunk + 3; ++i)
        a.push_back(syntheticEvent(i));

    ThreadTrace b(std::move(a));
    EXPECT_EQ(b.size(), kChunk + 3);
    EXPECT_EQ(a.size(), 0u); // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(a.capacity(), 0u);
    EXPECT_TRUE(a.begin() == a.end());

    ThreadTrace c;
    c = std::move(b);
    EXPECT_EQ(c.size(), kChunk + 3);
    expectSameEvent(c[kChunk + 2], syntheticEvent(kChunk + 2));
    EXPECT_TRUE(b.empty()); // NOLINT(bugprone-use-after-move)

    // A moved-from trace is reusable.
    a.push_back(syntheticEvent(5));
    ASSERT_EQ(a.size(), 1u);
    expectSameEvent(a[0], syntheticEvent(5));
}

TEST(ThreadTrace, InitializerListAndMutableIndexing)
{
    ThreadTrace trace = {syntheticEvent(0), syntheticEvent(1)};
    ASSERT_EQ(trace.size(), 2u);
    trace[1].instrBefore = 42;
    EXPECT_EQ(trace[1].instrBefore, 42u);
    expectSameEvent(trace[0], syntheticEvent(0));
}

} // namespace
} // namespace lva
