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
    Scalar &t = g.addScalar("t", "");
    s += 3;
    t += 5;
    g.resetAll();
    EXPECT_EQ(s.value(), 0u);
    EXPECT_EQ(t.value(), 0u);
}

} // namespace rest::stats
