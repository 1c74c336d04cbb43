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
    const TraceEvent ev = *rec.traces()[0].begin();
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
    EXPECT_TRUE((*rec.traces()[0].begin()).dependsOnPrev);
}

TEST(TraceRecorder, RecordsStores)
{
    TraceRecorder rec(1);
    rec.tickInstructions(0, 3);
    rec.store(0, 0x500, 0x2000);
    const TraceEvent ev = *rec.traces()[0].begin();
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
    auto it = rec.traces()[0].begin();
    EXPECT_EQ((*it++).instrBefore, 10u);
    EXPECT_EQ((*it).instrBefore, 0u);
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

/**
 * Event @p i of the synthetic stream the ThreadTrace tests append.
 * Every value needs all 8 bytes, so the value column fills a growth
 * step at the same event count as the record column.
 */
TraceEvent
syntheticEvent(std::size_t i)
{
    TraceEvent ev;
    ev.addr = 0x1000 + 64 * i;
    ev.value = Value::fromInt((static_cast<i64>(i) * 3 - 7) << 33);
    ev.pc = static_cast<LoadSiteId>(i * 13);
    ev.instrBefore = static_cast<u32>(i % 97);
    ev.isLoad = i % 3 != 0;
    ev.approximable = i % 5 == 0;
    ev.dependsOnPrev = i % 7 == 0;
    return ev;
}

/** Values at the edges of the value column's 0-, 4- and 8-byte
 *  entries, of every kind. */
const std::vector<Value> &
edgeValues()
{
    static const std::vector<Value> values = {
        Value{},
        Value::fromInt(-1),
        Value::fromInt(std::numeric_limits<i32>::min()),
        Value::fromInt(std::numeric_limits<i32>::max()),
        Value::fromInt(i64(std::numeric_limits<i32>::max()) + 1),
        Value::fromInt(i64(std::numeric_limits<i32>::min()) - 1),
        Value::fromInt(0xffff'ffffLL), // low half sign-extends to -1
        Value::fromInt(std::numeric_limits<i64>::min()),
        Value::fromInt(std::numeric_limits<i64>::max()),
        Value::fromFloat(0.0f),
        Value::fromFloat(-0.0f),
        Value::fromBits(ValueKind::Float32, 0x7fc1'2345),   // quiet NaN
        Value::fromBits(ValueKind::Float32, 0xff80'0001),   // -sNaN
        Value::fromBits(ValueKind::Float32, 0x0000'0001),   // denormal
        Value::fromBits(ValueKind::Float32, 0x007f'ffff),   // denormal
        Value::fromBits(ValueKind::Float32, 0x1'3f80'0000), // high bits
        Value::fromFloat(-1.5f),
        Value::fromDouble(0.0),
        Value::fromDouble(-0.0),
        Value::fromBits(ValueKind::Float64, 0x7ff8'0000'0000'0001ULL),
        Value::fromBits(ValueKind::Float64, 0xfff0'0000'dead'beefULL),
        Value::fromBits(ValueKind::Float64, 0x0000'0000'0000'0001ULL),
        Value::fromBits(ValueKind::Float64, 0x000f'ffff'ffff'ffffULL),
        Value::fromDouble(-2.5),
    };
    return values;
}

/**
 * Event @p i of a stream that cycles through edgeValues(), each on
 * every combination of the three flags in turn, with the extreme
 * addresses, PCs and instruction counts mixed in.
 */
TraceEvent
edgeEvent(std::size_t i)
{
    const std::vector<Value> &values = edgeValues();
    const std::size_t round = i / values.size();
    TraceEvent ev;
    ev.value = values[i % values.size()];
    ev.isLoad = (round & 1) != 0;
    ev.approximable = (round & 2) != 0;
    ev.dependsOnPrev = (round & 4) != 0;
    ev.addr = i % 4 == 0   ? ThreadTrace::maxAddr
              : i % 4 == 1 ? 0
                           : 0x7000'0000'0000 + 64 * i;
    ev.pc = i % 5 == 0   ? std::numeric_limits<u32>::max()
            : i % 5 == 1 ? 0
                         : static_cast<LoadSiteId>(i * 13);
    ev.instrBefore = i % 7 == 0   ? std::numeric_limits<u32>::max()
                     : i % 7 == 1 ? 0
                                  : static_cast<u32>(i % 97);
    return ev;
}

void
expectSameEvent(const TraceEvent &a, const TraceEvent &b)
{
    EXPECT_EQ(a.addr, b.addr);
    EXPECT_TRUE(a.value.exactlyEquals(b.value))
        << a.value.toString() << " vs " << b.value.toString();
    EXPECT_EQ(a.pc, b.pc);
    EXPECT_EQ(a.instrBefore, b.instrBefore);
    EXPECT_EQ(a.isLoad, b.isLoad);
    EXPECT_EQ(a.approximable, b.approximable);
    EXPECT_EQ(a.dependsOnPrev, b.dependsOnPrev);
}

/** The decoded events of @p trace, in order. */
std::vector<TraceEvent>
decoded(const ThreadTrace &trace)
{
    return {trace.begin(), trace.end()};
}

void
expectSameEvents(const std::vector<TraceEvent> &got,
                 const std::vector<TraceEvent> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE(i);
        expectSameEvent(got[i], want[i]);
        if (::testing::Test::HasFailure())
            return;
    }
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
    // Encode, decode, copy, self-assign, move and grow a copy, for the
    // all-8-byte stream and the edge-value stream.
    const std::size_t n = GetParam();
    for (TraceEvent (*make)(std::size_t) : {syntheticEvent, edgeEvent}) {
        ThreadTrace trace;
        std::vector<TraceEvent> reference;
        for (std::size_t i = 0; i < n; ++i) {
            trace.push_back(make(i));
            reference.push_back(make(i));
        }
        ASSERT_EQ(trace.size(), n);
        EXPECT_EQ(trace.empty(), n == 0);
        EXPECT_EQ(trace.begin() == trace.end(), n == 0);
        EXPECT_GE(trace.capacity(), n);
        EXPECT_LT(trace.capacity() - n, ThreadTrace::chunkEvents);
        expectSameEvents(decoded(trace), reference);

        ThreadTrace copy = trace;
        expectSameEvents(decoded(copy), reference);
        const ThreadTrace &alias = copy;
        copy = alias;
        expectSameEvents(decoded(copy), reference);

        const ThreadTrace moved = std::move(copy);
        expectSameEvents(decoded(moved), reference);
        EXPECT_TRUE(copy.empty()); // NOLINT(bugprone-use-after-move)

        ThreadTrace grown = moved;
        grown.push_back(make(n));
        ASSERT_EQ(grown.size(), n + 1);
        EXPECT_EQ(moved.size(), n);
        std::vector<TraceEvent> longer = reference;
        longer.push_back(make(n));
        expectSameEvents(decoded(grown), longer);
        expectSameEvents(decoded(trace), reference);
    }
}

constexpr std::size_t kChunk = ThreadTrace::chunkEvents;

INSTANTIATE_TEST_SUITE_P(ChunkEdges, ThreadTraceSizes,
                         ::testing::Values(0, 1, kChunk - 1, kChunk,
                                           kChunk + 1, 2 * kChunk,
                                           3 * kChunk, 3 * kChunk + 5));

TEST(ThreadTrace, AddressPastFiftySixBitsIsFatal)
{
    ThreadTrace trace;
    TraceEvent ev;
    ev.addr = ThreadTrace::maxAddr;
    trace.push_back(ev);
    EXPECT_EQ((*trace.begin()).addr, ThreadTrace::maxAddr);
    ev.addr = ThreadTrace::maxAddr + 1;
    EXPECT_DEATH(trace.push_back(ev), "56 bits");
    ev.addr = ~Addr(0);
    EXPECT_DEATH(trace.push_back(ev), "56 bits");
}

TEST(ThreadTrace, InterleavedGrowthKeepsEvents)
{
    // Two traces grown in turn leave no room to extend either mapping
    // in place, so every growth step moves the mapping.
    ThreadTrace a, b;
    const std::size_t n = 3 * kChunk + 1;
    for (std::size_t i = 0; i < n; ++i) {
        a.push_back(syntheticEvent(i));
        b.push_back(edgeEvent(n - i));
    }
    ASSERT_EQ(a.size(), n);
    ASSERT_EQ(b.size(), n);
    const std::vector<TraceEvent> da = decoded(a);
    const std::vector<TraceEvent> db = decoded(b);
    for (std::size_t i = 0; i < n; i += 4099) {
        expectSameEvent(da[i], syntheticEvent(i));
        expectSameEvent(db[i], edgeEvent(n - i));
    }
    expectSameEvent(da[n - 1], syntheticEvent(n - 1));
    expectSameEvent(db[n - 1], edgeEvent(1));
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
    expectSameEvent(decoded(c)[kChunk + 2], syntheticEvent(kChunk + 2));
    EXPECT_TRUE(b.empty()); // NOLINT(bugprone-use-after-move)

    // A moved-from trace is reusable.
    a.push_back(syntheticEvent(5));
    ASSERT_EQ(a.size(), 1u);
    expectSameEvent(*a.begin(), syntheticEvent(5));
}

TEST(ThreadTrace, InitializerListOfEditedEvents)
{
    // Stored events are not editable: edit them in a vector first.
    std::vector<TraceEvent> events = {syntheticEvent(0), syntheticEvent(1)};
    events[1].instrBefore = 42;
    const ThreadTrace trace = {events[0], events[1]};
    ASSERT_EQ(trace.size(), 2u);
    expectSameEvents(decoded(trace), events);
}

} // namespace
} // namespace lva
