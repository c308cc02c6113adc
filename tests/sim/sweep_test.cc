/**
 * @file
 * The parallel ≡ serial contract of sim::SweepRunner: for any thread
 * count, the Measurement vector is cycle-for-cycle identical to
 * running the same jobs serially through runBench(), and
 * repeated runs with the same seeds reproduce byte-identical results.
 * A job whose run hits rest_fatal fails alone; the rest of the sweep
 * is unaffected, and the harnesses' matrix driver turns it into one
 * error cell.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <regex>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.hh"
#include "sim/results.hh"
#include "sim/sweep.hh"

namespace rest::sim
{

namespace
{

/** Fast-functional and sampled execution together are a configuration
 *  error: System's constructor rest_fatal()s on it. */
SystemConfig
contradictoryConfig()
{
    SystemConfig cfg = makeSystemConfig(ExpConfig::Plain);
    cfg.exec.fastFunctional = true;
    cfg.exec.sampling.intervalOps = 100000;
    return cfg;
}

/** The bench helpers read REST_BENCH_KILOINSTS and REST_BENCH_SEEDS
 *  once per process, so every RunMatrix case sets the same values
 *  before its first call, in whatever order the cases run. */
void
setMatrixEnv()
{
    setenv("REST_BENCH_KILOINSTS", "10", 1);
    setenv("REST_BENCH_SEEDS", "2", 1);
}

/** 3 benchmarks × 4 configs × 2 seeds, small enough for a unit test:
 *  three presets plus an edited one (LSQ-serialised Secure Full). */
std::vector<SweepJob>
testMatrix()
{
    const char *benches[] = {"sjeng", "hmmer", "xalancbmk"};
    SystemConfig serialized = makeSystemConfig(ExpConfig::RestSecureFull);
    serialized.cpuConfig.serializeRestOps = true;
    const std::pair<std::string, SystemConfig> configs[] = {
        {"Plain", makeSystemConfig(ExpConfig::Plain)},
        {"ASan", makeSystemConfig(ExpConfig::Asan)},
        {"Secure Full", makeSystemConfig(ExpConfig::RestSecureFull)},
        {"serialized", serialized},
    };
    std::vector<SweepJob> jobs;
    for (const char *bench : benches) {
        for (const auto &[label, cfg] : configs) {
            for (unsigned s = 0; s < 2; ++s) {
                auto p = workload::profileByName(bench);
                p.targetKiloInsts = 20;
                p.seed = p.seed + 0x1000 * s;
                jobs.push_back({p, cfg, label});
            }
        }
    }
    return jobs;
}

void
expectIdentical(const Measurement &a, const Measurement &b)
{
    EXPECT_EQ(a.bench, b.bench);
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ops, b.ops);
    EXPECT_EQ(a.scalars, b.scalars);
    EXPECT_EQ(a.detail.run.committedOps, b.detail.run.committedOps);
    EXPECT_EQ(a.detail.armsExecuted, b.detail.armsExecuted);
    EXPECT_EQ(a.detail.mallocCalls, b.detail.mallocCalls);
}

} // namespace

TEST(SweepRunner, MatchesSerialRunBenchAtEveryThreadCount)
{
    const auto jobs = testMatrix();

    // The serial reference: direct runBench calls, in order.
    std::vector<Measurement> reference;
    for (const auto &job : jobs)
        reference.push_back(runBench(job.profile, job.cfg, job.label));

    for (unsigned threads : {1u, 2u, 8u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        auto parallel = SweepRunner(threads).run(jobs);
        ASSERT_EQ(parallel.size(), reference.size());
        for (std::size_t i = 0; i < reference.size(); ++i) {
            SCOPED_TRACE("job=" + std::to_string(i));
            EXPECT_TRUE(parallel[i].ok);
            EXPECT_TRUE(parallel[i].error.empty());
            expectIdentical(parallel[i].measurement, reference[i]);
        }
    }
}

TEST(SweepRunner, RepeatedRunsWithSameSeedsAreIdentical)
{
    const auto jobs = testMatrix();
    SweepRunner runner(8);
    auto first = runner.run(jobs);
    auto second = runner.run(jobs);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        SCOPED_TRACE("job=" + std::to_string(i));
        expectIdentical(first[i].measurement, second[i].measurement);
    }
}

TEST(SweepRunner, SeedChangesResults)
{
    // Guard against the sweep accidentally ignoring per-job seeds.
    auto p = workload::profileByName("sjeng");
    p.targetKiloInsts = 20;
    auto p2 = p;
    p2.seed = p.seed + 0x1000;
    const SystemConfig plain = makeSystemConfig(ExpConfig::Plain);
    auto out = SweepRunner(2).run({{p, plain, "Plain"},
                                   {p2, plain, "Plain"}});
    EXPECT_EQ(out[0].measurement.seed, p.seed);
    EXPECT_EQ(out[1].measurement.seed, p2.seed);
    EXPECT_NE(out[0].measurement.cycles, out[1].measurement.cycles);
}

TEST(SweepRunner, EmptyJobListIsFine)
{
    EXPECT_TRUE(SweepRunner(4).run({}).empty());
}

TEST(SweepRunner, FatalJobFailsOnlyItsOwnCell)
{
    auto jobs = testMatrix();
    jobs.resize(5);

    const std::size_t bad = 2;
    jobs.insert(jobs.begin() + bad,
                {jobs[bad].profile, contradictoryConfig(),
                 "contradictory"});

    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ::testing::internal::CaptureStderr();
        auto out = SweepRunner(threads).run(jobs);
        const std::string log = ::testing::internal::GetCapturedStderr();
        ASSERT_EQ(out.size(), jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            SCOPED_TRACE("job=" + std::to_string(i));
            if (i == bad) {
                EXPECT_FALSE(out[i].ok);
                EXPECT_NE(out[i].error.find(
                              "fast-functional and sampled execution "
                              "are mutually exclusive"),
                          std::string::npos)
                    << out[i].error;
                // The location is relative to the source root, so the
                // message reads the same in every checkout.
                EXPECT_TRUE(std::regex_search(
                    out[i].error,
                    std::regex(" @ src/sim/multicore\\.cc:[0-9]+$")))
                    << out[i].error;
                continue;
            }
            EXPECT_TRUE(out[i].ok);
            EXPECT_TRUE(out[i].error.empty());
            expectIdentical(out[i].measurement,
                            runBench(jobs[i].profile, jobs[i].cfg,
                                     jobs[i].label));
        }
        EXPECT_NE(log.find("sweep job 2 (" + jobs[bad].profile.name +
                           ") failed"),
                  std::string::npos)
            << log;
    }
}

TEST(RunMatrix, FailedJobBecomesAnErrorCell)
{
    setMatrixEnv();
    bench::Options opt;
    opt.jobs = 2;

    ::testing::internal::CaptureStderr();
    const bench::MatrixResult mat = bench::runMatrix(
        "unit", {workload::profileByName("sjeng")},
        {{"Bad", contradictoryConfig()},
         {"ASan", makeSystemConfig(ExpConfig::Asan)}},
        opt);
    ::testing::internal::GetCapturedStderr();

    ASSERT_EQ(mat.colNames, (std::vector<std::string>{"Bad", "ASan"}));
    ASSERT_EQ(mat.baselineOk, std::vector<bool>{true});
    EXPECT_FALSE(mat.cellOk[0][0]);
    EXPECT_TRUE(mat.cellOk[1][0]);
    EXPECT_FALSE(mat.allOk());
    EXPECT_TRUE(std::isnan(mat.overheadAt(0, 0)));
    EXPECT_TRUE(std::isfinite(mat.overheadAt(1, 0)));
    // The failed column's means have no surviving row.
    EXPECT_TRUE(std::isnan(mat.sweep.wtdAriMeanPct.at("Bad")));
    EXPECT_TRUE(std::isnan(mat.sweep.geoMeanPct.at("Bad")));
    EXPECT_TRUE(std::isfinite(mat.sweep.wtdAriMeanPct.at("ASan")));

    // The failed cell keeps its error and no measurement (results.cc
    // then writes it as an {"error"} record); the others are measured.
    ASSERT_EQ(mat.sweep.cells.size(), 3u); // Plain, Bad, ASan
    for (const SweepCell &cell : mat.sweep.cells) {
        SCOPED_TRACE(cell.column);
        EXPECT_EQ(cell.ok, cell.column != "Bad");
        if (cell.ok) {
            EXPECT_GT(cell.cycles, 0u);
            EXPECT_EQ(cell.seedCycles.size(), 2u);
        } else {
            EXPECT_NE(cell.error.find("mutually exclusive"),
                      std::string::npos);
            EXPECT_EQ(cell.cycles, 0u);
            EXPECT_TRUE(cell.seedCycles.empty());
            EXPECT_TRUE(cell.scalars.empty());
        }
    }
}

TEST(RunMatrix, FastFunctionalReachesEveryColumn)
{
    // A non-detailed harness mode runs every column under it, the
    // baseline and edited presets included.
    setMatrixEnv();
    bench::Options opt;
    opt.jobs = 2;
    opt.exec.fastFunctional = true;

    SystemConfig asan_opt = makeSystemConfig(ExpConfig::Asan);
    asan_opt.scheme.elideRedundantChecks = true;
    asan_opt.scheme.hoistLoopChecks = true;
    asan_opt.scheme.coalesceChecks = true;
    const bench::MatrixResult mat = bench::runMatrix(
        "unit", {workload::profileByName("sjeng")},
        {{"ASan", makeSystemConfig(ExpConfig::Asan)},
         {"ASanOpt", asan_opt}},
        opt);

    ASSERT_EQ(mat.sweep.cells.size(), 3u); // Plain, ASan, ASanOpt
    for (const SweepCell &cell : mat.sweep.cells) {
        SCOPED_TRACE(cell.column);
        EXPECT_TRUE(cell.ok);
        EXPECT_EQ(cell.execMode, "fast-functional");
    }
}

TEST(SweepRunner, MeasurementCarriesScalars)
{
    auto p = workload::profileByName("hmmer");
    p.targetKiloInsts = 20;
    auto out = SweepRunner(1).run(
        {{p, makeSystemConfig(ExpConfig::RestSecureFull), "Secure Full"}});
    ASSERT_EQ(out.size(), 1u);
    const auto &scalars = out[0].measurement.scalars;
    EXPECT_FALSE(scalars.empty());
    // Representative counters from both the CPU and L1-D groups.
    EXPECT_TRUE(scalars.count("o3cpu.iq_full_stall_cycles"));
    EXPECT_TRUE(scalars.count("l1d.token_evictions"));
}

} // namespace rest::sim
