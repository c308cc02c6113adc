#include <gtest/gtest.h>

#include "sim/experiment.hh"

namespace rest::sim
{

TEST(Experiment, ConfigNames)
{
    EXPECT_STREQ(expConfigName(ExpConfig::Plain), "Plain");
    EXPECT_STREQ(expConfigName(ExpConfig::Asan), "ASan");
    EXPECT_STREQ(expConfigName(ExpConfig::RestSecureFull),
                 "Secure Full");
    EXPECT_STREQ(expConfigName(ExpConfig::PerfectHwHeap),
                 "PerfectHW Heap");
}

TEST(Experiment, PresetsMatchPaperConfigurations)
{
    auto plain = makeSystemConfig(ExpConfig::Plain);
    EXPECT_EQ(plain.scheme.allocator, runtime::AllocatorKind::Libc);
    EXPECT_FALSE(plain.scheme.asanAccessChecks);

    auto asan = makeSystemConfig(ExpConfig::Asan);
    EXPECT_EQ(asan.scheme.allocator, runtime::AllocatorKind::Asan);
    EXPECT_TRUE(asan.scheme.asanAccessChecks);
    EXPECT_TRUE(asan.scheme.asanStackSetup);
    EXPECT_TRUE(asan.scheme.asanIntercept);

    auto debug_full = makeSystemConfig(ExpConfig::RestDebugFull);
    EXPECT_EQ(debug_full.mode, core::RestMode::Debug);
    EXPECT_TRUE(debug_full.scheme.restStackArming);

    auto secure_heap = makeSystemConfig(ExpConfig::RestSecureHeap);
    EXPECT_EQ(secure_heap.mode, core::RestMode::Secure);
    EXPECT_FALSE(secure_heap.scheme.restStackArming);
    EXPECT_EQ(secure_heap.scheme.allocator,
              runtime::AllocatorKind::Rest);

    auto perfect = makeSystemConfig(ExpConfig::PerfectHwFull);
    EXPECT_TRUE(perfect.scheme.perfectHw);
}

TEST(Experiment, OverheadPct)
{
    EXPECT_DOUBLE_EQ(overheadPct(100, 100), 0.0);
    EXPECT_DOUBLE_EQ(overheadPct(100, 140), 40.0);
    EXPECT_DOUBLE_EQ(overheadPct(200, 150), -25.0);
}

TEST(Experiment, WeightedArithmeticMeanPerPaperFootnote5)
{
    // Weighted by plain runtime: a 2x slowdown on a 900-cycle
    // benchmark dominates a 1x on a 100-cycle one.
    std::vector<Cycles> plain = {900, 100};
    std::vector<Cycles> scheme = {1800, 100};
    EXPECT_NEAR(wtdAriMeanOverheadPct(plain, scheme), 90.0, 1e-9);
}

TEST(Experiment, GeometricMeanPerPaperFootnote6)
{
    std::vector<Cycles> plain = {100, 100};
    std::vector<Cycles> scheme = {200, 50};
    // geomean(2.0, 0.5) = 1.0 -> 0% overhead.
    EXPECT_NEAR(geoMeanOverheadPct(plain, scheme), 0.0, 1e-9);
}

TEST(Experiment, MeansRejectMismatchedInputs)
{
    std::vector<Cycles> a = {1, 2};
    std::vector<Cycles> b = {1};
    EXPECT_DEATH((void)wtdAriMeanOverheadPct(a, b), "mismatched");
    EXPECT_DEATH((void)geoMeanOverheadPct(a, b), "mismatched");
}

TEST(Experiment, MeansOnEmptyVectorsAreZero)
{
    // An empty sweep has no overhead — defined, not UB.
    std::vector<Cycles> none;
    EXPECT_DOUBLE_EQ(wtdAriMeanOverheadPct(none, none), 0.0);
    EXPECT_DOUBLE_EQ(geoMeanOverheadPct(none, none), 0.0);
}

TEST(Experiment, MeansIdentityWhenSchemeEqualsPlain)
{
    // Property: scheme == plain ⇒ both means are exactly 0%.
    std::vector<Cycles> cycles = {123, 456789, 1, 99999999};
    EXPECT_NEAR(wtdAriMeanOverheadPct(cycles, cycles), 0.0, 1e-12);
    EXPECT_NEAR(geoMeanOverheadPct(cycles, cycles), 0.0, 1e-12);
}

TEST(Experiment, MeansSingleElementEqualsOverheadPct)
{
    // Property: with one benchmark, every mean collapses to the
    // per-benchmark overhead.
    for (auto [p, s] : {std::pair<Cycles, Cycles>{100, 140},
                        {1000, 1000},
                        {200, 150},
                        {7, 70000}}) {
        std::vector<Cycles> plain = {p}, scheme = {s};
        double expect = overheadPct(p, s);
        EXPECT_NEAR(wtdAriMeanOverheadPct(plain, scheme), expect,
                    1e-9);
        EXPECT_NEAR(geoMeanOverheadPct(plain, scheme), expect, 1e-9);
    }
}

TEST(Experiment, MeansScaleInvariance)
{
    // Property: scaling every runtime by the same factor changes
    // neither mean (overheads are ratios).
    std::vector<Cycles> plain = {900, 100, 5000};
    std::vector<Cycles> scheme = {1800, 140, 5100};
    std::vector<Cycles> plain10, scheme10;
    for (std::size_t i = 0; i < plain.size(); ++i) {
        plain10.push_back(plain[i] * 10);
        scheme10.push_back(scheme[i] * 10);
    }
    EXPECT_NEAR(wtdAriMeanOverheadPct(plain, scheme),
                wtdAriMeanOverheadPct(plain10, scheme10), 1e-9);
    EXPECT_NEAR(geoMeanOverheadPct(plain, scheme),
                geoMeanOverheadPct(plain10, scheme10), 1e-9);
}

TEST(Experiment, GeoMeanIsPermutationInvariant)
{
    // Property: benchmark order must not matter (log-sum commutes).
    std::vector<Cycles> plain = {100, 200, 400};
    std::vector<Cycles> scheme = {150, 180, 500};
    std::vector<Cycles> plain_r = {400, 100, 200};
    std::vector<Cycles> scheme_r = {500, 150, 180};
    EXPECT_NEAR(geoMeanOverheadPct(plain, scheme),
                geoMeanOverheadPct(plain_r, scheme_r), 1e-9);
    EXPECT_NEAR(wtdAriMeanOverheadPct(plain, scheme),
                wtdAriMeanOverheadPct(plain_r, scheme_r), 1e-9);
}

TEST(Experiment, RunBenchProducesMeasurement)
{
    auto p = workload::profileByName("sjeng");
    p.targetKiloInsts = 20;
    Measurement m = runBench(p, makeSystemConfig(ExpConfig::Plain), "plain");
    EXPECT_EQ(m.bench, "sjeng");
    EXPECT_GT(m.cycles, 0u);
    EXPECT_GT(m.ops, 10000u);
}

TEST(Experiment, RestSecureCheaperThanAsan)
{
    // The headline claim, on a small run: REST secure costs far less
    // than ASan on the same workload.
    auto p = workload::profileByName("hmmer");
    p.targetKiloInsts = 50;
    auto plain = runBench(p, makeSystemConfig(ExpConfig::Plain), "plain");
    auto secure =
        runBench(p, makeSystemConfig(ExpConfig::RestSecureFull), "secure");
    auto asan = runBench(p, makeSystemConfig(ExpConfig::Asan), "asan");
    double sec_ovh = overheadPct(plain.cycles, secure.cycles);
    double asan_ovh = overheadPct(plain.cycles, asan.cycles);
    EXPECT_LT(sec_ovh, asan_ovh / 3);
}

TEST(Experiment, DebugCostsMoreThanSecure)
{
    auto p = workload::profileByName("soplex");
    p.targetKiloInsts = 50;
    auto secure =
        runBench(p, makeSystemConfig(ExpConfig::RestSecureFull), "secure");
    auto debug =
        runBench(p, makeSystemConfig(ExpConfig::RestDebugFull), "debug");
    EXPECT_GT(debug.cycles, secure.cycles);
}

TEST(Experiment, PerfectHwTracksSecure)
{
    // §VI-B "Software vs. Hardware": the REST primitive itself is
    // nearly free; PerfectHW and secure differ by well under 5%.
    auto p = workload::profileByName("gobmk");
    p.targetKiloInsts = 50;
    auto secure =
        runBench(p, makeSystemConfig(ExpConfig::RestSecureFull), "secure");
    auto perfect =
        runBench(p, makeSystemConfig(ExpConfig::PerfectHwFull), "perfect");
    double delta = std::abs(double(secure.cycles) -
                            double(perfect.cycles)) /
        double(perfect.cycles);
    EXPECT_LT(delta, 0.05);
}

} // namespace rest::sim
