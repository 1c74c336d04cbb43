/**
 * @file
 * Round-trip tests for binary trace serialization.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "cpu/trace_io.hh"
#include "sim/full_system.hh"
#include "util/checkpoint.hh"
#include "util/random.hh"

namespace lva {
namespace {

std::vector<ThreadTrace>
randomTraces(u64 seed)
{
    Rng rng(seed);
    std::vector<ThreadTrace> traces(4);
    for (auto &trace : traces) {
        const u64 count = 50 + rng.below(100);
        for (u64 i = 0; i < count; ++i) {
            TraceEvent ev;
            ev.addr = rng.next() & 0xffff'ffffULL;
            ev.pc = static_cast<LoadSiteId>(rng.below(1 << 20));
            ev.instrBefore = static_cast<u32>(rng.below(1000));
            ev.isLoad = rng.chance(0.7);
            ev.approximable = ev.isLoad && rng.chance(0.5);
            ev.dependsOnPrev = ev.isLoad && rng.chance(0.2);
            switch (rng.below(3)) {
              case 0:
                ev.value = Value::fromInt(
                    static_cast<i64>(rng.next()));
                break;
              case 1:
                ev.value = Value::fromFloat(
                    static_cast<float>(rng.uniform(-10, 10)));
                break;
              default:
                ev.value =
                    Value::fromDouble(rng.uniform(-1e6, 1e6));
            }
            trace.push_back(ev);
        }
    }
    return traces;
}

void
expectEqual(const std::vector<ThreadTrace> &a,
            const std::vector<ThreadTrace> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t t = 0; t < a.size(); ++t) {
        ASSERT_EQ(a[t].size(), b[t].size()) << "thread " << t;
        auto xi = a[t].begin();
        auto yi = b[t].begin();
        for (std::size_t i = 0; i < a[t].size(); ++i, ++xi, ++yi) {
            const TraceEvent x = *xi;
            const TraceEvent y = *yi;
            EXPECT_EQ(x.addr, y.addr);
            EXPECT_EQ(x.pc, y.pc);
            EXPECT_EQ(x.instrBefore, y.instrBefore);
            EXPECT_EQ(x.isLoad, y.isLoad);
            EXPECT_EQ(x.approximable, y.approximable);
            EXPECT_EQ(x.dependsOnPrev, y.dependsOnPrev);
            EXPECT_TRUE(x.value.exactlyEquals(y.value))
                << "thread " << t << " event " << i;
        }
    }
}

TEST(TraceIo, RoundTripPreservesEverything)
{
    const std::string path = "test_trace_roundtrip.bin";
    const auto traces = randomTraces(42);
    writeTraces(traces, path);
    const auto back = readTraces(path);
    expectEqual(traces, back);
    std::filesystem::remove(path);
}

TEST(TraceIo, RoundTripOfWholeGrowthSteps)
{
    // Traces that end exactly on a growth-step boundary, grown in turn:
    // every event must be written, and the file must hold exactly the
    // header's count of 32-byte records.
    const std::string path = "test_trace_steps.bin";
    const std::size_t n = 2 * ThreadTrace::chunkEvents;
    std::vector<ThreadTrace> traces(2);
    for (std::size_t i = 0; i < n; ++i) {
        for (u32 t = 0; t < 2; ++t) {
            TraceEvent ev;
            ev.addr = 64 * i + t;
            ev.value = Value::fromInt(static_cast<i64>(i) - t);
            ev.instrBefore = static_cast<u32>(i % 31);
            traces[t].push_back(ev);
        }
    }
    writeTraces(traces, path);
    EXPECT_EQ(std::filesystem::file_size(path), 12 + 2 * (8 + 32 * n));
    expectEqual(traces, readTraces(path));
    std::filesystem::remove(path);
}

TEST(TraceIo, EmptyThreadsSurvive)
{
    const std::string path = "test_trace_empty.bin";
    std::vector<ThreadTrace> traces(4); // all empty
    writeTraces(traces, path);
    const auto back = readTraces(path);
    ASSERT_EQ(back.size(), 4u);
    for (const auto &trace : back)
        EXPECT_TRUE(trace.empty());
    std::filesystem::remove(path);
}

TEST(TraceIo, ReplayOfLoadedTraceMatchesOriginal)
{
    const std::string path = "test_trace_replay.bin";
    const auto traces = randomTraces(7);
    writeTraces(traces, path);
    const auto back = readTraces(path);

    FullSystemSim a(FullSystemConfig::lva(2));
    FullSystemSim b(FullSystemConfig::lva(2));
    const FullSystemResult ra = a.run(traces);
    const FullSystemResult rb = b.run(back);
    EXPECT_DOUBLE_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.l1Misses, rb.l1Misses);
    EXPECT_EQ(ra.approxMisses, rb.approxMisses);
    std::filesystem::remove(path);
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

TEST(TraceIo, FileBytesArePinned)
{
    // The LVATRC1 bytes of a fixed trace, pinned: a change to the
    // in-memory event layout must not move the on-disk format, and
    // files written before such a change must still read back.
    const std::string path = "test_trace_pinned.bin";
    writeTraces(randomTraces(42), path);
    const std::string bytes = slurp(path);
    EXPECT_EQ(bytes.size(), 14956u);
    EXPECT_EQ(hexU64(fnv1a64(bytes)), "d25c6d5031bd584f");
    expectEqual(randomTraces(42), readTraces(path));
    std::filesystem::remove(path);
}

/**
 * Write a one-thread LVATRC1 file at @p path holding one Int64 load
 * at @p addr with flag byte @p flags.
 */
void
writeOneEventFile(const std::string &path, u64 addr, u8 flags)
{
    std::ofstream out(path, std::ios::binary);
    const u32 threads = 1;
    const u64 count = 1;
    out.write("LVATRC1\n", 8);
    out.write(reinterpret_cast<const char *>(&threads), sizeof(threads));
    out.write(reinterpret_cast<const char *>(&count), sizeof(count));
    char rec[32] = {};
    std::memcpy(rec, &addr, sizeof(addr));
    rec[25] = static_cast<char>(flags);
    out.write(rec, sizeof(rec));
}

TEST(TraceIo, HandBuiltRecordReadsBack)
{
    // The layout the hostile-input tests below build by hand.
    const std::string path = "test_trace_handbuilt.bin";
    writeOneEventFile(path, ThreadTrace::maxAddr, 7);
    const auto traces = readTraces(path);
    ASSERT_EQ(traces.size(), 1u);
    ASSERT_EQ(traces[0].size(), 1u);
    const TraceEvent ev = *traces[0].begin();
    EXPECT_EQ(ev.addr, ThreadTrace::maxAddr);
    EXPECT_TRUE(ev.isLoad && ev.approximable && ev.dependsOnPrev);
    std::filesystem::remove(path);
}

TEST(TraceIo, UnknownFlagBitsAreCorrupt)
{
    const std::string path = "test_trace_flags.bin";
    for (u8 flags : {u8(0x08), u8(0x80), u8(0xff)}) {
        writeOneEventFile(path, 0x1000, flags);
        EXPECT_EXIT(readTraces(path), ::testing::ExitedWithCode(1),
                    "corrupt");
    }
    std::filesystem::remove(path);
}

TEST(TraceIo, AddressPastFiftySixBitsIsCorrupt)
{
    const std::string path = "test_trace_addr.bin";
    for (u64 addr : {ThreadTrace::maxAddr + 1, ~u64(0)}) {
        writeOneEventFile(path, addr, 1);
        EXPECT_EXIT(readTraces(path), ::testing::ExitedWithCode(1),
                    "corrupt");
    }
    std::filesystem::remove(path);
}

TEST(TraceIo, HugeEventCountInShortFileIsTruncated)
{
    // A 20-byte file whose header claims 2^40 events must fail as
    // truncated, not attempt a multi-terabyte allocation.
    const std::string path = "test_trace_hostile.bin";
    {
        std::ofstream out(path, std::ios::binary);
        const u32 threads = 1;
        const u64 count = u64(1) << 40;
        out.write("LVATRC1\n", 8);
        out.write(reinterpret_cast<const char *>(&threads),
                  sizeof(threads));
        out.write(reinterpret_cast<const char *>(&count), sizeof(count));
    }
    EXPECT_EXIT(readTraces(path), ::testing::ExitedWithCode(1),
                "truncated");
    std::filesystem::remove(path);
}

} // namespace
} // namespace lva
