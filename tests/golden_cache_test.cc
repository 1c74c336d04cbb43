/**
 * @file
 * The golden-cache lifecycle (eval/evaluator): cost-aware LRU victim
 * policy, bounded capacity with eviction counting, single-flight
 * coalescing under real concurrency, failed-build recovery, the
 * golden tasks a pooled sweep queues ahead of its points, and the
 * invariant everything else leans on — exports are byte-identical for
 * any capacity and eviction schedule (docs/serving.md).
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "eval/evaluator.hh"
#include "eval/sweep.hh"
#include "util/fault.hh"

namespace lva {
namespace {

/** Tiny-but-real evaluator settings so tests stay fast. */
constexpr u32 kSeeds = 1;
constexpr double kScale = 0.02;

TEST(GoldenEvictionPolicy, SingleCandidateIsTheVictim)
{
    EXPECT_EQ(goldenEvictionVictim({{7, 100}}), 0u);
}

TEST(GoldenEvictionPolicy, EqualCostsFallBackToStrictLru)
{
    // Window of ceil(4/4) = 1: only the least-recently-used entry is
    // considered, whatever the costs look like.
    const std::vector<GoldenEvictionCandidate> candidates = {
        {40, 1}, {10, 999}, {30, 1}, {20, 500}};
    EXPECT_EQ(goldenEvictionVictim(candidates), 1u);
}

TEST(GoldenEvictionPolicy, CheapestRebuildWinsInsideTheWindow)
{
    // 8 candidates -> window of 2: the two LRU entries are lastUse 10
    // (cost 900) and 20 (cost 3); the cheap one is evicted even
    // though it is the more recently used of the pair.
    const std::vector<GoldenEvictionCandidate> candidates = {
        {10, 900}, {20, 3},  {30, 1}, {40, 1},
        {50, 1},   {60, 1},  {70, 1}, {80, 1}};
    EXPECT_EQ(goldenEvictionVictim(candidates), 1u);
}

TEST(GoldenEvictionPolicy, CostTiesKeepTheOlderEntry)
{
    const std::vector<GoldenEvictionCandidate> candidates = {
        {10, 5}, {20, 5}, {30, 1}, {40, 1},
        {50, 1}, {60, 1}, {70, 1}, {80, 1}};
    EXPECT_EQ(goldenEvictionVictim(candidates), 0u);
}

TEST(GoldenEvictionPolicy, MostRecentlyUsedIsNeverTheVictim)
{
    // For every size >= 2 the ceil(n/4) LRU window excludes the MRU
    // entry, so the hottest golden always survives an eviction.
    for (std::size_t n = 2; n <= 12; ++n) {
        std::vector<GoldenEvictionCandidate> candidates;
        for (std::size_t i = 0; i < n; ++i)
            candidates.push_back({10 * (i + 1), 1});
        EXPECT_NE(goldenEvictionVictim(candidates), n - 1) << n;
    }
}

TEST(GoldenCache, CountsHitsMissesAndBuilds)
{
    Evaluator eval(kSeeds, kScale);
    (void)eval.evaluatePrecise("swaptions");
    GoldenCacheCounters c = eval.goldenCacheCounters();
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.builds, 1u);
    EXPECT_EQ(c.hits, 0u);
    EXPECT_EQ(c.size, 1u);
    EXPECT_EQ(c.capacity, 0u); // unbounded by default

    (void)eval.evaluatePrecise("swaptions");
    c = eval.goldenCacheCounters();
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.builds, 1u);
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.evictions, 0u);
}

TEST(GoldenCache, CapacityBoundsResidencyAndCountsEvictions)
{
    Evaluator eval(kSeeds, kScale);
    eval.setGoldenCacheCapacity(1);
    (void)eval.evaluatePrecise("swaptions");
    (void)eval.evaluatePrecise("blackscholes");

    const GoldenCacheCounters c = eval.goldenCacheCounters();
    EXPECT_EQ(c.builds, 2u);
    EXPECT_EQ(c.evictions, 1u);
    EXPECT_EQ(c.size, 1u);
    EXPECT_EQ(c.capacity, 1u);

    // The survivor is the most recently used golden.
    const auto keys = eval.goldenResidentKeys();
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys[0].first, "blackscholes");
}

TEST(GoldenCache, ShrinkingCapacityEvictsImmediately)
{
    Evaluator eval(kSeeds, kScale);
    (void)eval.evaluatePrecise("swaptions");
    (void)eval.evaluatePrecise("blackscholes");
    EXPECT_EQ(eval.goldenCacheCounters().size, 2u);

    eval.setGoldenCacheCapacity(1);
    const GoldenCacheCounters c = eval.goldenCacheCounters();
    EXPECT_EQ(c.size, 1u);
    EXPECT_EQ(c.evictions, 1u);
}

TEST(GoldenCache, SingleFlightCoalescesConcurrentBuilders)
{
    Evaluator eval(kSeeds, kScale);

    // K threads race into the same golden; exactly one precise run
    // may happen (the acceptance criterion of ISSUE 7).
    constexpr unsigned kThreads = 4;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back(
            [&eval] { (void)eval.evaluatePrecise("swaptions"); });
    for (auto &t : threads)
        t.join();

    const GoldenCacheCounters c = eval.goldenCacheCounters();
    EXPECT_EQ(c.builds, 1u);
    EXPECT_EQ(c.misses, 1u);
    // Every other acquisition resolved from the one build, whether it
    // waited on the in-flight run (coalesced, then a hit) or arrived
    // after it completed (a plain hit).
    EXPECT_EQ(c.hits, kThreads - 1);
    EXPECT_LE(c.coalesced, kThreads - 1);
}

TEST(GoldenCache, FailedBuildStepsBackToEmptyAndRebuilds)
{
    setFaultSpecForTest("eval.golden.swaptions=throw@first1");
    Evaluator eval(kSeeds, kScale);
    EXPECT_THROW((void)eval.evaluatePrecise("swaptions"),
                 FaultInjected);

    // The failed slot must not latch: the retry rebuilds it.
    const EvalResult r = eval.evaluatePrecise("swaptions");
    setFaultSpecForTest("");
    EXPECT_GT(r.instructions, 0.0);

    const GoldenCacheCounters c = eval.goldenCacheCounters();
    EXPECT_EQ(c.misses, 2u); // both acquisitions started a build
    EXPECT_EQ(c.builds, 1u); // only the second completed
    EXPECT_EQ(c.size, 1u);
}

/** A small 2-workload sweep rendered through the full export path. */
std::string
sweepExport(Evaluator &eval)
{
    std::vector<SweepPoint> points;
    for (const char *name : {"swaptions", "blackscholes"}) {
        for (u32 ghb : {0u, 2u}) {
            ApproxMemory::Config cfg = Evaluator::baselineLva();
            cfg.approx.ghbEntries = ghb;
            points.push_back(
                {"ghb-" + std::to_string(ghb), name, cfg});
        }
    }
    SweepRunner runner(eval, 2);
    SweepOptions opts;
    opts.driver = "golden_cache_test";
    const SweepOutcome outcome = runner.runChecked(points, opts);
    EXPECT_TRUE(outcome.ok());
    return renderSweepStats("golden_cache_test", points, outcome);
}

TEST(GoldenCache, EvictionThenRefillIsByteIdentical)
{
    // Unbounded reference run vs a capacity-1 cache that must evict
    // and rebuild goldens mid-sweep: the exported bytes must match
    // exactly — eviction schedules can cost time, never results.
    Evaluator unbounded(kSeeds, kScale);
    const std::string reference = sweepExport(unbounded);

    Evaluator squeezed(kSeeds, kScale);
    squeezed.setGoldenCacheCapacity(1);
    const std::string squeezedExport = sweepExport(squeezed);
    EXPECT_GE(squeezedExport.size(), 1u);
    EXPECT_EQ(squeezedExport, reference);

    // Re-running against the squeezed evaluator refills evicted
    // entries and still matches.
    EXPECT_EQ(sweepExport(squeezed), reference);
    EXPECT_GT(squeezed.goldenCacheCounters().evictions, 0u);
}

/**
 * Three configs on each of three workloads, workload-major as the
 * drivers submit them. swaptions comes last, so its golden task sits
 * ahead of every swaptions point with other work in between.
 */
std::vector<SweepPoint>
threeWorkloadPoints()
{
    std::vector<SweepPoint> points;
    for (const char *name : {"blackscholes", "canneal", "swaptions"}) {
        for (u32 ghb : {0u, 1u, 2u}) {
            ApproxMemory::Config cfg = Evaluator::baselineLva();
            cfg.approx.ghbEntries = ghb;
            points.push_back({"ghb-" + std::to_string(ghb), name, cfg});
        }
    }
    return points;
}

/** runChecked over @p points at @p jobs, with its counters. */
struct CheckedSweep
{
    SweepOutcome outcome;
    std::string exported;
    GoldenCacheCounters cache;
};

CheckedSweep
runCheckedSweep(const std::vector<SweepPoint> &points, u32 jobs,
                u64 capacity = 0)
{
    Evaluator eval(kSeeds, kScale);
    eval.setGoldenCacheCapacity(capacity);
    SweepRunner runner(eval, jobs);
    SweepOptions opts;
    opts.driver = "golden_cache_test";
    CheckedSweep out;
    out.outcome = runner.runChecked(points, opts);
    out.exported =
        renderSweepStats("golden_cache_test", points, out.outcome);
    out.cache = eval.goldenCacheCounters();
    return out;
}

TEST(GoldenTasks, PooledSweepBuildsEachGoldenOnce)
{
    const std::vector<SweepPoint> points = threeWorkloadPoints();
    const CheckedSweep pooled = runCheckedSweep(points, 4);
    ASSERT_TRUE(pooled.outcome.ok());
    EXPECT_EQ(pooled.cache.builds, 3u);
    EXPECT_EQ(pooled.cache.misses, 3u);
    // The golden tasks took the three misses, so every point found
    // its golden built or in flight and ended on a hit.
    EXPECT_EQ(pooled.cache.hits, points.size());

    // The serial path queues no golden tasks: each workload's first
    // point builds its golden, as it always did.
    const CheckedSweep serial = runCheckedSweep(points, 1);
    EXPECT_EQ(serial.cache.builds, 3u);
    EXPECT_EQ(serial.cache.misses, 3u);
    EXPECT_EQ(serial.cache.hits, points.size() - 3);
    EXPECT_EQ(pooled.exported, serial.exported);
}

TEST(GoldenTasks, BoundedCacheQueuesNoGoldenTasks)
{
    const std::vector<SweepPoint> points = threeWorkloadPoints();
    const CheckedSweep unbounded = runCheckedSweep(points, 4);
    const CheckedSweep bounded = runCheckedSweep(points, 4, 1);
    ASSERT_TRUE(bounded.outcome.ok());
    // One acquisition per point and none besides: no golden task ran.
    EXPECT_EQ(bounded.cache.hits + bounded.cache.misses, points.size());
    EXPECT_EQ(bounded.exported, unbounded.exported);
}

TEST(GoldenTasks, TransientGoldenFaultLeavesTheExportClean)
{
    const std::vector<SweepPoint> points = threeWorkloadPoints();
    const CheckedSweep clean = runCheckedSweep(points, 4);

    // The golden task draws the one injected failure and drops it;
    // the swaptions points then build the golden themselves. The FIFO
    // pool starts the golden task before any swaptions point, and the
    // delay keeps a preempted golden-task thread from losing the race
    // to the slot on an oversubscribed host.
    setFaultSpecForTest("eval.golden.swaptions=throw@first1,"
                        "eval.evaluate.swaptions=delay:200");
    const CheckedSweep faulted = runCheckedSweep(points, 4);
    setFaultSpecForTest("");
    EXPECT_TRUE(faulted.outcome.ok());
    EXPECT_EQ(faulted.exported, clean.exported);
    EXPECT_EQ(faulted.cache.builds, 3u);
}

TEST(GoldenTasks, PermanentGoldenFaultFailsExactlyItsPoints)
{
    const std::vector<SweepPoint> points = threeWorkloadPoints();
    setFaultSpecForTest("eval.golden.swaptions=throw");
    const CheckedSweep serial = runCheckedSweep(points, 1);
    const CheckedSweep pooled = runCheckedSweep(points, 4);
    setFaultSpecForTest("");

    // The serial path has no golden tasks, so it records the failures
    // exactly as the engine did before they existed.
    ASSERT_EQ(serial.outcome.failures.size(), 3u);
    ASSERT_EQ(pooled.outcome.failures.size(), 3u);
    for (std::size_t k = 0; k < 3; ++k) {
        const PointFailure &want = serial.outcome.failures[k];
        const PointFailure &got = pooled.outcome.failures[k];
        EXPECT_EQ(got.index, 6 + k);
        EXPECT_EQ(got.workload, "swaptions");
        EXPECT_EQ(got.index, want.index);
        EXPECT_EQ(got.label, want.label);
        EXPECT_EQ(got.workload, want.workload);
        EXPECT_EQ(got.error, want.error);
        EXPECT_EQ(got.attempts, want.attempts);
    }
    EXPECT_EQ(pooled.exported, serial.exported);
}

} // namespace
} // namespace lva
