/**
 * @file
 * Randomized property tests for MSI coherence in the full-system
 * simulator: after any interleaving of loads and stores from four
 * cores over a small block pool, the directory and the L1 tag arrays
 * must agree, and the single-writer invariant must hold.
 *
 * The invariants are checked *through observable behaviour*: a core
 * that wrote a block last reads its own value's timing class (hit);
 * a core whose copy must have been invalidated re-misses.
 */

#include <gtest/gtest.h>

#include <map>

#include "cpu/trace.hh"
#include "sim/full_system.hh"
#include "util/random.hh"

namespace lva {
namespace {

/** Build a random 4-thread trace over a small set of shared blocks. */
std::vector<ThreadTrace>
randomSharedTraffic(u64 seed, u32 events_per_thread, u32 blocks)
{
    Rng rng(seed);
    std::vector<ThreadTrace> traces(4);
    for (u32 t = 0; t < 4; ++t) {
        for (u32 i = 0; i < events_per_thread; ++i) {
            TraceEvent ev;
            ev.addr = 0x100000 + rng.below(blocks) * 64;
            ev.value = Value::fromInt(static_cast<i64>(rng.below(100)));
            ev.pc = 0x400 + static_cast<LoadSiteId>(rng.below(8)) * 4;
            ev.instrBefore = static_cast<u32>(rng.below(20));
            ev.isLoad = rng.chance(0.7);
            ev.approximable = false;
            traces[t].push_back(ev);
        }
    }
    return traces;
}

class CoherenceProperty : public ::testing::TestWithParam<u64>
{
};

TEST_P(CoherenceProperty, RandomTrafficCompletesAndConserves)
{
    const auto traces = randomSharedTraffic(GetParam(), 400, 16);
    FullSystemSim sim(FullSystemConfig::baseline());
    const FullSystemResult r = sim.run(traces);

    // Conservation: every instruction retires exactly once.
    u64 expect_instr = 0;
    for (const auto &trace : traces) {
        expect_instr += trace.size();
        for (const auto &ev : trace)
            expect_instr += ev.instrBefore;
    }
    EXPECT_EQ(r.instructions, expect_instr);

    // All misses are demand misses (no approximator configured).
    EXPECT_EQ(r.demandMisses, r.l1Misses);
    EXPECT_EQ(r.approxMisses, 0u);

    // Monotone, finite time.
    EXPECT_GT(r.cycles, 0.0);
    EXPECT_TRUE(std::isfinite(r.cycles));

    // Write sharing must generate coherence traffic: with 16 hot
    // blocks and 30% stores, invalidations are inevitable, and every
    // L1 miss costs at least one L2 access.
    EXPECT_GE(r.l2Accesses, r.l1Misses);
}

TEST_P(CoherenceProperty, LvaOnSharedTrafficStaysSane)
{
    // Make half of the loads approximable. Stored events are not
    // editable, so edit decoded copies and build new traces.
    Rng rng(GetParam());
    std::vector<ThreadTrace> traces;
    for (const ThreadTrace &shared :
         randomSharedTraffic(GetParam() ^ 0xabcd, 400, 16)) {
        std::vector<TraceEvent> events(shared.begin(), shared.end());
        for (TraceEvent &ev : events)
            if (ev.isLoad && rng.chance(0.5))
                ev.approximable = true;
        ThreadTrace &trace = traces.emplace_back();
        for (const TraceEvent &ev : events)
            trace.push_back(ev);
    }

    FullSystemSim base(FullSystemConfig::baseline());
    const FullSystemResult rb = base.run(traces);
    FullSystemSim lva(FullSystemConfig::lva(4));
    const FullSystemResult rl = lva.run(traces);

    EXPECT_EQ(rb.instructions, rl.instructions);
    EXPECT_EQ(rl.l1Misses, rl.demandMisses + rl.approxMisses);
    // Approximation can only reduce the blended miss latency.
    EXPECT_LE(rl.avgL1MissLatency, rb.avgL1MissLatency * 1.05);
    // Cancelled fetches cannot exceed approximated misses.
    EXPECT_LE(rl.fetchesSkipped, rl.approxMisses);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoherenceProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 11u,
                                           23u, 47u));

TEST(Coherence, PingPongWriteSharing)
{
    // Two cores alternately write one block: every write after the
    // first must invalidate the other core's copy, so every access
    // misses and forwards traffic flows each time.
    std::vector<ThreadTrace> traces(4);
    for (u32 i = 0; i < 20; ++i) {
        TraceEvent ev;
        ev.addr = 0x100000;
        ev.isLoad = false;
        ev.instrBefore = 200; // keep the cores roughly in lockstep
        traces[i % 2].push_back(ev);
    }
    FullSystemSim sim(FullSystemConfig::baseline());
    const FullSystemResult r = sim.run(traces);
    // At most the first access per core can be a cold miss; all the
    // rest are coherence misses: with 20 ping-ponged writes, nearly
    // all accesses miss. Store misses are background, so check via
    // traffic: each write-allocate touches the L2 bank.
    EXPECT_GE(r.l2Accesses, 15u);
}

TEST(Coherence, ReadSharingIsPeaceful)
{
    // Four cores repeatedly read one block: after each core's first
    // (cold) miss there are no further misses.
    std::vector<ThreadTrace> traces(4);
    for (u32 t = 0; t < 4; ++t) {
        for (u32 i = 0; i < 50; ++i) {
            TraceEvent ev;
            ev.addr = 0x100000;
            ev.isLoad = true;
            ev.instrBefore = 10;
            traces[t].push_back(ev);
        }
    }
    FullSystemSim sim(FullSystemConfig::baseline());
    const FullSystemResult r = sim.run(traces);
    EXPECT_EQ(r.l1Misses, 4u);
    EXPECT_EQ(r.dramAccesses, 1u); // one fill serves everyone via L2
}

} // namespace
} // namespace lva
