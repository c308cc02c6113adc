#include <gtest/gtest.h>

#include <sstream>

#include "util/stats.hh"

namespace rest::stats
{

TEST(Stats, ScalarBasics)
{
    StatGroup g("grp");
    Scalar &s = g.addScalar("counter", "a counter");
    EXPECT_EQ(s.value(), 0u);
    ++s;
    s += 41;
    EXPECT_EQ(s.value(), 42u);
    EXPECT_EQ(g.scalarValue("counter"), 42u);
    s.reset();
    EXPECT_EQ(s.value(), 0u);
}

TEST(Stats, MissingScalarReadsZero)
{
    StatGroup g("grp");
    EXPECT_EQ(g.scalarValue("nope"), 0u);
}

TEST(Stats, DistributionTracksMoments)
{
    StatGroup g("grp");
    Distribution &d = g.addDistribution("lat", "latencies",
                                        {10, 100, 1000});
    for (std::uint64_t v : {5u, 50u, 500u, 5000u})
        d.sample(v);
    EXPECT_EQ(d.count(), 4u);
    EXPECT_EQ(d.minValue(), 5u);
    EXPECT_EQ(d.maxValue(), 5000u);
    EXPECT_DOUBLE_EQ(d.mean(), (5 + 50 + 500 + 5000) / 4.0);
    ASSERT_EQ(d.buckets().size(), 4u);
    for (auto b : d.buckets())
        EXPECT_EQ(b, 1u); // one sample per bucket
}

TEST(Stats, DistributionEdgeValueLandsInEdgeBucket)
{
    // Edges are inclusive upper bounds: a sample exactly on an edge
    // belongs to that edge's bucket, never the next one.
    Distribution d;
    d.init({10, 100, 1000});
    d.sample(10);
    d.sample(100);
    d.sample(1000);
    ASSERT_EQ(d.buckets().size(), 4u);
    EXPECT_EQ(d.buckets()[0], 1u);
    EXPECT_EQ(d.buckets()[1], 1u);
    EXPECT_EQ(d.buckets()[2], 1u);
    EXPECT_EQ(d.buckets()[3], 0u);
}

TEST(Stats, DistributionOverflowBucketCatchesAboveLastEdge)
{
    Distribution d;
    d.init({10});
    d.sample(11);
    d.sample(~std::uint64_t(0));
    ASSERT_EQ(d.buckets().size(), 2u);
    EXPECT_EQ(d.buckets()[0], 0u);
    EXPECT_EQ(d.buckets()[1], 2u);
    // Every sample is in exactly one bucket.
    EXPECT_EQ(d.buckets()[0] + d.buckets()[1], d.count());
}

TEST(Stats, DistributionZeroSampleAndZeroEdge)
{
    Distribution d;
    d.init({0, 10});
    d.sample(0); // exactly on the 0 edge -> first bucket
    ASSERT_EQ(d.buckets().size(), 3u);
    EXPECT_EQ(d.buckets()[0], 1u);
    EXPECT_EQ(d.minValue(), 0u);
    EXPECT_EQ(d.maxValue(), 0u);
}

TEST(Stats, DistributionNonAscendingEdgesDie)
{
    Distribution d;
    EXPECT_DEATH(d.init({10, 10}), "ascending");
    EXPECT_DEATH(d.init({100, 10}), "ascending");
}

TEST(Stats, DistributionUninitialisedStillCountsDeterministically)
{
    // Never init()ed: behaves as one overflow bucket.
    Distribution d;
    d.sample(7);
    d.sample(9);
    EXPECT_EQ(d.count(), 2u);
    ASSERT_EQ(d.buckets().size(), 1u);
    EXPECT_EQ(d.buckets()[0], 2u);
}

TEST(Stats, ForEachScalarVisitsEachExactlyOnce)
{
    StatGroup g("grp");
    g.addScalar("b", "") += 2;
    g.addScalar("a", "") += 1;
    g.addScalar("c", "") += 3;

    std::map<std::string, unsigned> visits;
    std::vector<std::string> order;
    g.forEachScalar([&](const std::string &name, std::uint64_t value) {
        ++visits[name];
        order.push_back(name);
        EXPECT_EQ(value, g.scalarValue(name.substr(4)));
    });

    ASSERT_EQ(visits.size(), 3u);
    for (const auto &[name, n] : visits)
        EXPECT_EQ(n, 1u) << name;
    // Stable lexicographic order (the results layer depends on it).
    EXPECT_EQ(order,
              (std::vector<std::string>{"grp.a", "grp.b", "grp.c"}));
}

TEST(Stats, SnapshotDeltasAndBoundaries)
{
    StatGroup g("cpu");
    Scalar &ops = g.addScalar("ops", "");
    g.dumpEvery(100);
    EXPECT_EQ(g.snapshotPeriod(), 100u);

    ops += 3;
    g.maybeSnapshot(99); // before the boundary: no snapshot
    EXPECT_TRUE(g.snapshots().empty());

    g.maybeSnapshot(100); // on the boundary
    ASSERT_EQ(g.snapshots().size(), 1u);
    EXPECT_EQ(g.snapshots()[0].cycle, 100u);
    EXPECT_EQ(g.snapshots()[0].deltas.at("cpu.ops"), 3u);

    ops += 5;
    g.maybeSnapshot(150); // inside the next interval: no snapshot
    EXPECT_EQ(g.snapshots().size(), 1u);

    // The clock jumping over several boundaries collapses them into
    // one snapshot at `now`, with the whole accumulated delta.
    ops += 2;
    g.maybeSnapshot(450);
    ASSERT_EQ(g.snapshots().size(), 2u);
    EXPECT_EQ(g.snapshots()[1].cycle, 450u);
    EXPECT_EQ(g.snapshots()[1].deltas.at("cpu.ops"), 7u);

    // Final flush; a duplicate at the same cycle is a no-op.
    ops += 1;
    g.takeSnapshot(500);
    g.takeSnapshot(500);
    ASSERT_EQ(g.snapshots().size(), 3u);
    EXPECT_EQ(g.snapshots()[2].deltas.at("cpu.ops"), 1u);

    // Deltas over the series sum to the scalar's final value.
    std::uint64_t total = 0;
    for (const auto &snap : g.snapshots())
        total += snap.deltas.at("cpu.ops");
    EXPECT_EQ(total, ops.value());
}

TEST(Stats, SnapshotDisabledByDefault)
{
    StatGroup g("grp");
    g.addScalar("s", "") += 1;
    EXPECT_EQ(g.snapshotPeriod(), 0u);
    g.maybeSnapshot(1000000);
    EXPECT_TRUE(g.snapshots().empty());
}

TEST(Stats, DistributionReset)
{
    StatGroup g("grp");
    Distribution &d = g.addDistribution("x", "", {10});
    d.sample(3);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.sum(), 0u);
}

TEST(Stats, PercentileEmptyDistributionIsZero)
{
    Distribution d;
    d.init({10, 100});
    EXPECT_DOUBLE_EQ(d.percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(d.percentile(0), 0.0);
    EXPECT_DOUBLE_EQ(d.percentile(100), 0.0);
}

TEST(Stats, PercentileSingleSample)
{
    Distribution d;
    d.init({10, 100});
    d.sample(42);
    // Every percentile of a single observation is that observation —
    // even though bucket resolution would otherwise say "edge 100".
    EXPECT_DOUBLE_EQ(d.percentile(0), 42.0);
    EXPECT_DOUBLE_EQ(d.percentile(50), 42.0);
    EXPECT_DOUBLE_EQ(d.percentile(100), 42.0);
}

TEST(Stats, PercentileWalksBucketEdges)
{
    Distribution d;
    d.init({10, 100, 1000});
    // 10 samples: 4 in (..10], 3 in (10..100], 3 in (100..1000].
    for (std::uint64_t v : {1u, 2u, 3u, 4u})
        d.sample(v);
    for (std::uint64_t v : {50u, 60u, 70u})
        d.sample(v);
    for (std::uint64_t v : {500u, 600u, 700u})
        d.sample(v);
    // rank = ceil(p/100 * 10): p40 -> rank 4 (first bucket, edge 10),
    // p41 -> rank 5 (second bucket), p70 -> rank 7 (second bucket),
    // p71 -> rank 8 (third bucket).
    EXPECT_DOUBLE_EQ(d.percentile(40), 10.0);
    EXPECT_DOUBLE_EQ(d.percentile(41), 100.0);
    EXPECT_DOUBLE_EQ(d.percentile(70), 100.0);
    EXPECT_DOUBLE_EQ(d.percentile(71), 700.0); // edge 1000 clamps to max
    EXPECT_DOUBLE_EQ(d.percentile(0), 1.0);    // min
    EXPECT_DOUBLE_EQ(d.percentile(100), 700.0); // max
}

TEST(Stats, PercentileFirstBucketClampsToMin)
{
    // All mass in the first bucket: the edge (10) overstates every
    // sample, but the estimate never leaves the observed range, so
    // the max clamp pulls the answer down to the observed max of 3.
    Distribution d;
    d.init({10, 100});
    d.sample(3);
    d.sample(3);
    EXPECT_DOUBLE_EQ(d.percentile(50), 3.0);
    EXPECT_DOUBLE_EQ(d.percentile(1), 3.0);
    // Max clamp likewise: rank 1 lands in bucket (10..100] whose edge
    // 100 exceeds the observed max 60, so the estimate is 60.
    Distribution e;
    e.init({10, 100});
    e.sample(50);
    e.sample(60);
    EXPECT_DOUBLE_EQ(e.percentile(50), 60.0);
}

TEST(Stats, PercentileOverflowBucketReportsMax)
{
    Distribution d;
    d.init({10});
    d.sample(5);
    d.sample(5000);
    d.sample(6000);
    // p100 and any rank landing in the overflow bucket give max, not
    // an unbounded edge.
    EXPECT_DOUBLE_EQ(d.percentile(100), 6000.0);
    EXPECT_DOUBLE_EQ(d.percentile(99), 6000.0);
    // rank ceil(0.33 * 3) = 1 stays in the first real bucket.
    EXPECT_DOUBLE_EQ(d.percentile(33), 10.0);
}

TEST(Stats, PercentileUninitialisedDistribution)
{
    // Never init()ed: one overflow bucket, so every percentile is
    // min/max-derived.
    Distribution d;
    d.sample(7);
    d.sample(9);
    EXPECT_DOUBLE_EQ(d.percentile(0), 7.0);
    EXPECT_DOUBLE_EQ(d.percentile(50), 9.0);
    EXPECT_DOUBLE_EQ(d.percentile(100), 9.0);
}

TEST(Stats, FormulaEvaluatesLazily)
{
    StatGroup g("grp");
    Scalar &num = g.addScalar("num", "");
    Scalar &den = g.addScalar("den", "");
    Formula &f = g.addFormula("ratio", "num/den", [&]() {
        return den.value() ? double(num.value()) / den.value() : 0.0;
    });
    num += 10;
    den += 4;
    EXPECT_DOUBLE_EQ(f.value(), 2.5);
    num += 10;
    EXPECT_DOUBLE_EQ(f.value(), 5.0);
}

TEST(Stats, DumpContainsNamesAndValues)
{
    StatGroup g("mygroup");
    g.addScalar("alpha", "first") += 7;
    std::ostringstream os;
    g.dump(os);
    std::string out = os.str();
    EXPECT_NE(out.find("mygroup.alpha"), std::string::npos);
    EXPECT_NE(out.find("7"), std::string::npos);
    EXPECT_NE(out.find("first"), std::string::npos);
}

TEST(Stats, DuplicateRegistrationPanics)
{
    StatGroup g("grp");
    g.addScalar("dup", "");
    EXPECT_DEATH(g.addScalar("dup", ""), "duplicate");
}

TEST(Stats, ResetAllClearsEverything)
{
    StatGroup g("grp");
    Scalar &s = g.addScalar("s", "");
    Distribution &d = g.addDistribution("d", "", {5});
    s += 3;
    d.sample(2);
    g.resetAll();
    EXPECT_EQ(s.value(), 0u);
    EXPECT_EQ(d.count(), 0u);
}

} // namespace rest::stats
