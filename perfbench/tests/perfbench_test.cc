/**
 * @file
 * Unit tests of the benchmark's own helpers: the percentile refusal,
 * span self time, digest-mismatch accounting and the seeded input
 * generators.
 */

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "bench_workloads.hh"

using namespace perfbench;

TEST(Percentile, RefusesWithFewerThanTenSamplesBeyond)
{
    std::vector<double> v(99);
    std::iota(v.begin(), v.end(), 1.0);
    EXPECT_EQ(samplesBeyond(99, 0.9), 9u);
    EXPECT_FALSE(percentile(v, 0.9).has_value());

    v.push_back(100.0);
    ASSERT_TRUE(percentile(v, 0.9).has_value());
    EXPECT_EQ(*percentile(v, 0.9), 90.0);

    EXPECT_FALSE(percentile(std::vector<double>(19, 1.0), 0.5).has_value());
    EXPECT_TRUE(percentile(std::vector<double>(20, 1.0), 0.5).has_value());
    EXPECT_FALSE(percentile({}, 0.5).has_value());
}

TEST(Spans, SelfTimeIsDurationMinusChildCoverage)
{
    std::vector<Span> spans = {
        {"root", 0.0, 10.0, -1, 0},
        {"a", 1.0, 3.0, 0, 0},
        {"b", 2.0, 5.0, 0, 0},  // overlaps a: covered once
        {"c", 8.0, 12.0, 0, 0}, // clipped to the parent's end
        {"grandchild", 1.5, 2.5, 1, 0},
    };
    EXPECT_DOUBLE_EQ(selfTime(spans, 0), 10.0 - (4.0 + 2.0));
    EXPECT_DOUBLE_EQ(selfTime(spans, 1), 2.0 - 1.0);
    EXPECT_DOUBLE_EQ(selfTime(spans, 2), 3.0);

    const NameTotals t = totalsByName(spans);
    EXPECT_DOUBLE_EQ(t.self.at("root"), 4.0);
    EXPECT_DOUBLE_EQ(t.duration.at("c"), 4.0);
}

TEST(Spans, DisabledTracerRecordsNothing)
{
    Tracer off(false);
    {
        ScopedSpan s(off, "x", -1);
        EXPECT_EQ(s.id(), -1);
    }
    EXPECT_TRUE(off.spans().empty());

    Tracer on(true);
    const long root = on.begin("root", -1);
    {
        ScopedSpan child(on, "child", root, 7);
    }
    on.end(root);
    ASSERT_EQ(on.spans().size(), 2u);
    EXPECT_EQ(on.spans()[1].parent, root);
    EXPECT_EQ(on.spans()[1].request, 7u);
    EXPECT_GE(on.spans()[0].end, on.spans()[1].end);
}

TEST(OutputCheck, ForcedDigestMismatchCountsAsFailedOps)
{
    Report r;
    EXPECT_TRUE(countCheckedUnit(r, "unit", 98, 0, 0xabc, 0xabc));
    EXPECT_EQ(r.attempted, 98u);
    EXPECT_EQ(r.failed, 0u);
    EXPECT_TRUE(r.correct);

    EXPECT_FALSE(countCheckedUnit(r, "unit", 98, 0, 0xabc, 0xabd));
    EXPECT_EQ(r.attempted, 196u);
    EXPECT_EQ(r.failed, 98u);
    EXPECT_FALSE(r.correct);

    Report partial;
    countCheckedUnit(partial, "unit", 7, 2, 1, 1);
    EXPECT_EQ(partial.failed, 2u);
    EXPECT_FALSE(partial.correct);
}

TEST(Generators, DseOrderIsAPureSeededPermutationWithinWorkloads)
{
    const auto a = dseSubmissionOrder(5, 7, 14);
    EXPECT_EQ(a, dseSubmissionOrder(5, 7, 14));
    EXPECT_NE(a, dseSubmissionOrder(6, 7, 14));
    ASSERT_EQ(a.size(), 98u);
    for (u32 i = 0; i < 98; ++i)
        EXPECT_EQ(a[i] / 14, i / 14); // workload blocks stay in place
    auto sorted = a;
    std::sort(sorted.begin(), sorted.end());
    for (u32 i = 0; i < 98; ++i)
        EXPECT_EQ(sorted[i], i);
}

TEST(Generators, FsReplayOrdersArePureSeededPermutations)
{
    const auto a = fsReplayOrders(3);
    EXPECT_EQ(a, fsReplayOrders(3));
    EXPECT_NE(a, fsReplayOrders(4));
    ASSERT_EQ(a.size(), 7u);
    for (auto order : a) {
        std::sort(order.begin(), order.end());
        EXPECT_EQ(order, (std::vector<u32>{0, 2, 4, 8, 16}));
    }
}

TEST(Generators, ServedScheduleIsAPureSeededOrderOfOneMix)
{
    const auto a = servedSchedule(11);
    const auto b = servedSchedule(11);
    const auto c = servedSchedule(12);
    ASSERT_EQ(a.size(), 105u);
    ASSERT_EQ(c.size(), a.size());
    std::vector<std::string> pa, pb, pc;
    std::size_t sweeps = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        pa.push_back(a[i].payload);
        pb.push_back(b[i].payload);
        pc.push_back(c[i].payload);
        sweeps += a[i].sweep ? 1 : 0;
    }
    EXPECT_EQ(pa, pb);
    EXPECT_NE(pa, pc);
    EXPECT_EQ(sweeps, 21u); // 20% sweeps, 80% evals
    std::sort(pa.begin(), pa.end());
    std::sort(pc.begin(), pc.end());
    EXPECT_EQ(pa, pc); // same work, different order
}
