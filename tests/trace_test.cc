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
#include "eval/fullsystem_eval.hh"
#include "workloads/workload.hh"

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
 * every combination of the three flags in turn, with the addresses,
 * instruction counts and PCs at the edges of the compact record mixed
 * in: about half the events are wide.
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
    ev.addr = i % 6 == 0   ? ThreadTrace::maxAddr
              : i % 6 == 1 ? 0
              : i % 6 == 2 ? 0xffff'ffffu
              : i % 6 == 3 ? Addr(1) << 32
                           : 0x1000'0000 + 64 * i;
    ev.pc = i % 5 == 0   ? std::numeric_limits<u32>::max()
            : i % 5 == 1 ? 0
                         : static_cast<LoadSiteId>(0x400 + 4 * (i % 11));
    ev.instrBefore = i % 7 == 0   ? std::numeric_limits<u32>::max()
                     : i % 7 == 1 ? 0
                     : i % 7 == 2 ? 0xffff
                     : i % 7 == 3 ? 0x1'0000
                                  : static_cast<u32>(i % 97);
    return ev;
}

/**
 * Event @p i of a compact stream whose PC changes every third event
 * and cycles through 300 distinct PCs: the first PC to miss the full
 * table arrives at event 765, and the last 45 PCs of each cycle are
 * wide from then on.
 */
TraceEvent
manyPcEvent(std::size_t i)
{
    const std::vector<Value> &values = edgeValues();
    TraceEvent ev;
    ev.addr = 0x1000'0000 + 8 * i;
    ev.value = values[i % values.size()];
    ev.pc = static_cast<LoadSiteId>(0x40'0000 + 4 * (i / 3 % 300));
    ev.instrBefore = static_cast<u32>(i % 50);
    ev.isLoad = i % 4 != 0;
    ev.approximable = i % 2 == 0;
    return ev;
}

/** The bytes @p v takes in the value column: 0 for zero bits, 4 when
 *  its low half gives them back, else 8. */
std::size_t
valueEntryBytes(const Value &v)
{
    const u64 bits = v.bits();
    if (bits == 0)
        return 0;
    const bool low =
        v.kind() == ValueKind::Int64
            ? bits == static_cast<u64>(
                          static_cast<i64>(static_cast<i32>(bits)))
            : v.kind() == ValueKind::Float32 && bits >> 32 == 0;
    return low ? 4 : 8;
}

/**
 * The bytes a ThreadTrace holding @p events should store, worked out
 * from the layout rather than the encoder: 8 per record, the value's
 * 0/4/8-byte entry, and 16 more for each event that is wide because
 * of its address, its count or a PC that missed the full PC table.
 */
std::size_t
layoutBytes(const std::vector<TraceEvent> &events)
{
    std::vector<LoadSiteId> table;
    std::size_t bytes = 0;
    for (const TraceEvent &ev : events) {
        bytes += 8 + valueEntryBytes(ev.value);
        bool inTable =
            std::find(table.begin(), table.end(), ev.pc) != table.end();
        if (!inTable && table.size() < ThreadTrace::maxPcs) {
            table.push_back(ev.pc);
            inTable = true;
        }
        if (ev.addr >> 32 != 0 || ev.instrBefore >> 16 != 0 || !inTable)
            bytes += 16;
    }
    return bytes;
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
    // all-8-byte stream, the edge stream (compact and wide events
    // mixed) and the PC-table overflow stream.
    const std::size_t n = GetParam();
    for (TraceEvent (*make)(std::size_t) :
         {syntheticEvent, edgeEvent, manyPcEvent}) {
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
        const std::size_t bytes = layoutBytes(reference);
        EXPECT_EQ(trace.storageBytes(), bytes);

        ThreadTrace copy = trace;
        expectSameEvents(decoded(copy), reference);
        EXPECT_EQ(copy.storageBytes(), bytes);
        const ThreadTrace &alias = copy;
        copy = alias;
        expectSameEvents(decoded(copy), reference);
        EXPECT_EQ(copy.storageBytes(), bytes);

        const ThreadTrace moved = std::move(copy);
        expectSameEvents(decoded(moved), reference);
        EXPECT_EQ(moved.storageBytes(), bytes);
        EXPECT_TRUE(copy.empty()); // NOLINT(bugprone-use-after-move)
        EXPECT_EQ(copy.storageBytes(), 0u);

        ThreadTrace grown = moved;
        grown.push_back(make(n));
        ASSERT_EQ(grown.size(), n + 1);
        EXPECT_EQ(moved.size(), n);
        std::vector<TraceEvent> longer = reference;
        longer.push_back(make(n));
        expectSameEvents(decoded(grown), longer);
        EXPECT_EQ(grown.storageBytes(), layoutBytes(longer));
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

TEST(ThreadTrace, EachWideTriggerRoundTrips)
{
    // Each field value alone between two compact events: the ones past
    // a record field go wide (16 more bytes), the ones at its edge do
    // not. Values are Value{}, so the value column stays empty.
    TraceEvent compact;
    compact.addr = 0x1000'0000;
    compact.pc = 0x400;
    compact.instrBefore = 3;
    struct Case
    {
        Addr addr;
        LoadSiteId pc;
        u32 instrBefore;
        bool wide;
    };
    constexpr u32 u32Max = std::numeric_limits<u32>::max();
    const std::vector<Case> cases = {
        {0xffff'ffffu, 0x400, 3, false},
        {Addr(1) << 32, 0x400, 3, true},
        {ThreadTrace::maxAddr, 0x400, 3, true},
        {0x1000'0000, 0x400, 0xffff, false},
        {0x1000'0000, 0x400, 0x1'0000, true},
        {0x1000'0000, 0x400, u32Max, true},
        {0x1000'0000, 0, 3, false},
        {0x1000'0000, u32Max, 3, false},
        {ThreadTrace::maxAddr, u32Max, u32Max, true},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(::testing::Message()
                     << std::hex << c.addr << " " << c.pc << " "
                     << c.instrBefore);
        TraceEvent ev = compact;
        ev.addr = c.addr;
        ev.pc = c.pc;
        ev.instrBefore = c.instrBefore;
        const std::vector<TraceEvent> events = {compact, ev, compact};
        const ThreadTrace trace = {compact, ev, compact};
        expectSameEvents(decoded(trace), events);
        EXPECT_EQ(trace.storageBytes(), 3 * 8u + (c.wide ? 16u : 0u));
        EXPECT_EQ(trace.storageBytes(), layoutBytes(events));
    }
}

TEST(ThreadTrace, PcTableOverflowGoesWide)
{
    // 300 distinct PCs, twice over: the first 255 take the table and
    // stay compact on both passes; the other 45 are wide both times.
    ThreadTrace trace;
    std::vector<TraceEvent> reference;
    for (std::size_t pass = 0; pass < 2; ++pass) {
        for (std::size_t k = 0; k < 300; ++k) {
            TraceEvent ev;
            ev.addr = 0x1000'0000 + 64 * k;
            ev.pc = static_cast<LoadSiteId>(k * 0x1'0001);
            ev.value = Value::fromInt(static_cast<i64>(k));
            trace.push_back(ev);
            reference.push_back(ev);
        }
    }
    expectSameEvents(decoded(trace), reference);
    // 600 records, 598 four-byte values (the two of k = 0 are zero
    // bits, which take none) and 90 wide entries.
    EXPECT_EQ(trace.storageBytes(), 600 * 8u + 598 * 4u + 90 * 16u);
    EXPECT_EQ(trace.storageBytes(), layoutBytes(reference));
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

TEST(TraceRecorder, WorkloadTracesHoldNoWideEvent)
{
    // Every workload's addresses sit within a few MB above the arena
    // base, its counts below 2^16 and its PCs in a table of a dozen,
    // so each recorded event takes one 8-byte record plus its value.
    for (const std::string &name : allWorkloadNames()) {
        SCOPED_TRACE(name);
        const std::vector<ThreadTrace> traces =
            recordPreciseTraces(name, 1, 0.05, nullptr);
        u64 events = 0;
        for (const ThreadTrace &trace : traces) {
            const std::vector<TraceEvent> evs = decoded(trace);
            events += evs.size();
            std::size_t valueBytes = 0;
            for (const TraceEvent &ev : evs)
                valueBytes += valueEntryBytes(ev.value);
            EXPECT_EQ(trace.storageBytes(), 8 * evs.size() + valueBytes);
        }
        EXPECT_GT(events, 0u);
    }
}

} // namespace
} // namespace lva
