/**
 * @file helpers_test.cpp
 * Tests of the benchmark's own measurement helpers (harness.h):
 * percentiles and the samples-beyond rule, per-operation best times,
 * the seeded Poisson schedule, span self time and the layer-sum ratio.
 * Run with `python3 fabbench/run.py --self-test`.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <numeric>

#include "harness.h"

using namespace fabbench;

TEST(Percentile, NearestRankOnKnownSample)
{
    std::vector<double> v(100);
    std::iota(v.begin(), v.end(), 1.0); // 1..100
    std::reverse(v.begin(), v.end());   // order must not matter
    EXPECT_EQ(percentile(v, 50), 50.0);
    EXPECT_EQ(percentile(v, 90), 90.0);
    EXPECT_EQ(percentile(v, 99), 99.0);
    EXPECT_EQ(percentile(v, 100), 100.0);
    EXPECT_EQ(percentile({7.0}, 99), 7.0);
    EXPECT_THROW(percentile({}, 50), std::invalid_argument);
}

TEST(Percentile, MedianOfOddAndEvenCounts)
{
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Percentile, SamplesBeyondRule)
{
    // p99 of 1000 samples is the 990th; 10 lie beyond it.
    EXPECT_EQ(samplesBeyond(1000, 99), 10u);
    EXPECT_TRUE(supportsPercentile(1000, 99));
    EXPECT_EQ(samplesBeyond(999, 99), 9u);
    EXPECT_FALSE(supportsPercentile(999, 99));
    EXPECT_EQ(samplesBeyond(100, 90), 10u);
    EXPECT_TRUE(supportsPercentile(100, 90));
    EXPECT_FALSE(supportsPercentile(99, 90));
    EXPECT_EQ(samplesBeyond(50, 80), 10u);
    EXPECT_TRUE(supportsPercentile(50, 80));
    // A median needs only one sample.
    EXPECT_TRUE(supportsPercentile(1, 50));
    EXPECT_FALSE(supportsPercentile(0, 50));
}

TEST(BestTimes, KeepsEachOperationsLowestRepetition)
{
    BestTimes b(3);
    EXPECT_EQ(b.minReps(), 0u);
    for (double t : {5.0, 2.0, 9.0})
        b.add(0, t);
    b.add(1, 4.0);
    b.add(1, 3.0);
    b.add(2, 7.0);
    EXPECT_EQ(b.ops(), 3u);
    EXPECT_EQ(b.minReps(), 1u);
    EXPECT_EQ(b.sum(), 2.0 + 3.0 + 7.0);
    EXPECT_EQ(b.median(), 3.0);
    EXPECT_THROW(b.add(3, 1.0), std::out_of_range);
}

TEST(Poisson, ScheduleIsAPureFunctionOfItsSeed)
{
    const auto a = poissonSchedule(42, 150.0, 8.4);
    const auto b = poissonSchedule(42, 150.0, 8.4);
    ASSERT_EQ(a, b);
    EXPECT_NE(a, poissonSchedule(43, 150.0, 8.4));
    for (std::size_t i = 1; i < a.size(); ++i)
        ASSERT_LT(a[i - 1], a[i]);
    EXPECT_GT(a.front(), 0.0);
    EXPECT_LT(a.back(), 8.4);
    // ~1260 arrivals expected; Poisson sd ~35.
    EXPECT_NEAR(static_cast<double>(a.size()), 1260.0, 5 * 35.5);
}

TEST(Poisson, SchedulePinnedAcrossBuilds)
{
    // splitmix64 is specified bit for bit and the gaps are inverted
    // through log1p, so these values hold on any standard library (the
    // offsets to 12 digits, leaving log1p its last-ulp freedom). A change
    // here means results recorded before it ran on different inputs.
    SplitMix rng(1);
    EXPECT_EQ(rng.next(), 0x910a2dec89025cc1ull);
    const auto a = poissonSchedule(7, 100.0, 1.0);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%zu %.12g", a.size(), a.front());
    EXPECT_STREQ(buf, "98 0.00494017259758");
}

TEST(Poisson, RejectsNonPositiveRateOrDuration)
{
    EXPECT_THROW(poissonSchedule(1, 0.0, 1.0), std::invalid_argument);
    EXPECT_THROW(poissonSchedule(1, 10.0, -1.0), std::invalid_argument);
}

namespace {

Span
span(std::int64_t id, std::int64_t parent, double start, double end)
{
    Span s;
    s.name = "s";
    s.id = id;
    s.parent = parent;
    s.start_us = start;
    s.end_us = end;
    return s;
}

} // namespace

TEST(SelfTime, SubtractsTheUnionOfChildren)
{
    // 0 [0,100] has children 1 [10,30], 2 [20,50] (overlapping 1) and
    // 3 [90,120] (runs past its parent); 1 has a grandchild [15,20].
    const std::vector<Span> spans = {
        span(0, -1, 0, 100), span(1, 0, 10, 30), span(2, 0, 20, 50),
        span(3, 0, 90, 120), span(4, 1, 15, 20),
    };
    const auto self = selfTimesUs(spans);
    EXPECT_DOUBLE_EQ(self[0], 100.0 - 40.0 - 10.0);
    EXPECT_DOUBLE_EQ(self[1], 20.0 - 5.0);
    EXPECT_DOUBLE_EQ(self[2], 30.0);
    EXPECT_DOUBLE_EQ(self[3], 30.0);
    EXPECT_DOUBLE_EQ(self[4], 5.0);
}

TEST(SelfTime, DisjointChildrenAndLeaves)
{
    const std::vector<Span> spans = {span(0, -1, 0, 10), span(1, 0, 1, 2),
                                     span(2, 0, 4, 7)};
    const auto self = selfTimesUs(spans);
    EXPECT_DOUBLE_EQ(self[0], 6.0);
    EXPECT_DOUBLE_EQ(self[1], 1.0);
    EXPECT_DOUBLE_EQ(self[2], 3.0);
}

TEST(Trace, DisabledRecordsNothingEnabledKeepsParentAndRequest)
{
    Trace off(false);
    EXPECT_EQ(off.record("x", Clock::now(), Clock::now()), -1);
    EXPECT_TRUE(off.spans().empty());

    Trace on(true);
    const Clock::time_point t0 = Clock::now();
    const std::int64_t p = on.open("parent", t0, -1, 7);
    const std::int64_t c = on.record("child", t0, t0, p, 7);
    on.finish(p, t0 + std::chrono::milliseconds(1));
    const auto s = on.spans();
    ASSERT_EQ(s.size(), 2u);
    EXPECT_EQ(s[c].parent, p);
    EXPECT_EQ(s[c].request, 7);
    EXPECT_NEAR(s[p].end_us - s[p].start_us, 1000.0, 1e-6);
}

TEST(LayerSum, RatioAndTolerance)
{
    EXPECT_DOUBLE_EQ(layerSumRatio({1.0, 2.0, 3.0}, 6.0), 1.0);
    EXPECT_DOUBLE_EQ(layerSumRatio({1.0, 2.0}, 4.0), 0.75);
    EXPECT_TRUE(layerSumWithinTolerance(1.0));
    EXPECT_TRUE(layerSumWithinTolerance(kLayerSumLo));
    EXPECT_TRUE(layerSumWithinTolerance(kLayerSumHi));
    EXPECT_FALSE(layerSumWithinTolerance(0.75));
    EXPECT_FALSE(layerSumWithinTolerance(1.25));
    EXPECT_THROW(layerSumRatio({1.0}, 0.0), std::invalid_argument);
}

TEST(Metrics, JsonKeepsInsertionOrderAndOverwrites)
{
    Metrics m;
    m.set("b", 2.0, "s");
    m.set("a", 1.5, "ms");
    m.set("b", 3.0, "s");
    EXPECT_EQ(m.json(), "{\"b\": {\"value\": 3, \"unit\": \"s\"}, "
                        "\"a\": {\"value\": 1.5, \"unit\": \"ms\"}}");
}
