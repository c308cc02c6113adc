/**
 * @file
 * Determinism and isolation properties of the whole simulator:
 * identical configurations produce identical cycle counts, and the
 * (secret) token value has no timing influence on benign programs —
 * the content-based check is invisible unless tripped.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/test_util.hh"
#include "sim/results.hh"
#include "workload/spec_profiles.hh"

namespace rest
{

using sim::ExpConfig;

namespace
{

Cycles
cyclesFor(ExpConfig config, std::uint64_t token_seed,
          std::uint64_t workload_seed = 0x5eed)
{
    auto p = workload::profileByName("gobmk");
    p.targetKiloInsts = 30;
    p.seed = workload_seed;
    sim::SystemConfig cfg = sim::makeSystemConfig(config);
    cfg.tokenSeed = token_seed;
    sim::System system(workload::generate(p), cfg);
    auto r = system.run();
    EXPECT_FALSE(r.faulted());
    return r.cycles();
}

} // namespace

TEST(Determinism, IdenticalRunsIdenticalCycles)
{
    for (auto config : {ExpConfig::Plain, ExpConfig::Asan,
                        ExpConfig::RestSecureFull,
                        ExpConfig::RestDebugFull}) {
        EXPECT_EQ(cyclesFor(config, 1), cyclesFor(config, 1))
            << sim::expConfigName(config);
    }
}

TEST(Determinism, TokenValueDoesNotAffectBenignTiming)
{
    // Rotating the secret (different token seeds) must not change a
    // benign program's timing at all: content-based checks are
    // invisible until tripped.
    Cycles a = cyclesFor(ExpConfig::RestSecureFull, 111);
    Cycles b = cyclesFor(ExpConfig::RestSecureFull, 222);
    EXPECT_EQ(a, b);
}

TEST(Determinism, WorkloadSeedChangesTiming)
{
    Cycles a = cyclesFor(ExpConfig::Plain, 1, 0x1111);
    Cycles b = cyclesFor(ExpConfig::Plain, 1, 0x2222);
    EXPECT_NE(a, b);
}

TEST(Determinism, FaultReportsAreDeterministic)
{
    auto run = [] {
        return test::runUnder(workload::attacks::heartbleed(64, 256),
                              ExpConfig::RestSecureHeap);
    };
    auto a = run();
    auto b = run();
    ASSERT_TRUE(a.faulted());
    EXPECT_EQ(a.run.violation.faultAddr, b.run.violation.faultAddr);
    EXPECT_EQ(a.run.violation.seq, b.run.violation.seq);
    EXPECT_EQ(a.run.violation.reportCycle, b.run.violation.reportCycle);
}

TEST(Determinism, SchemesPreserveProgramSemantics)
{
    // The same benign program produces the same architectural result
    // under every scheme: protection must not change functionality.
    auto p = workload::profileByName("hmmer");
    p.targetKiloInsts = 20;
    std::uint64_t ref_ops = 0;
    for (auto config : {ExpConfig::Plain, ExpConfig::Asan,
                        ExpConfig::RestSecureFull}) {
        auto r = test::runUnder(workload::generate(p), config);
        EXPECT_FALSE(r.faulted()) << sim::expConfigName(config);
        // Program-source op counts are identical across schemes
        // (instrumentation adds ops under other source tags; the
        // memcpy loop is tagged Program and is scheme-independent).
        std::uint64_t program_ops =
            r.run.opsBySource[unsigned(isa::OpSource::Program)];
        if (config == ExpConfig::Plain)
            ref_ops = program_ops;
        else
            EXPECT_EQ(program_ops, ref_ops)
                << sim::expConfigName(config);
    }
}

namespace
{

/**
 * Run gobmk/30ki under a config + execution mode and serialise the
 * measurement through the results-file writer, so the determinism
 * claim covers the whole reporting path (cycles, scalars, exec-mode
 * and sampling-error fields), not just the cycle count.
 */
std::string
jsonFor(ExpConfig config, const sim::ExecutionConfig &exec)
{
    auto p = workload::profileByName("gobmk");
    p.targetKiloInsts = 30;
    sim::SystemConfig cfg = sim::makeSystemConfig(config);
    cfg.exec = exec;
    sim::Measurement m =
        sim::runBench(p, cfg, sim::expConfigName(config));

    sim::SweepCell cell;
    cell.bench = m.bench;
    cell.column = m.label;
    cell.cycles = m.cycles;
    cell.ops = m.ops;
    cell.execMode = m.execMode;
    cell.samplingErrorPct = m.samplingErrorPct;
    cell.seedCycles = {m.cycles};
    cell.scalars = m.scalars;

    sim::SweepResults sweep;
    sweep.name = "determinism";
    sweep.columns = {m.label};
    sweep.rows = {m.bench};
    sweep.cells.push_back(std::move(cell));

    sim::ResultsFile f;
    f.figure = "determinism";
    f.kiloInsts = 30;
    f.seedsPerCell = 1;
    f.jobs = 1;
    f.sweeps.push_back(std::move(sweep));

    std::ostringstream os;
    sim::writeJson(f, os);
    return os.str();
}

} // namespace

TEST(Determinism, FastFunctionalSameSeedSameJson)
{
    sim::ExecutionConfig exec;
    exec.fastFunctional = true;
    EXPECT_EQ(jsonFor(ExpConfig::RestSecureFull, exec),
              jsonFor(ExpConfig::RestSecureFull, exec));
}

TEST(Determinism, SampledSameSeedSameJson)
{
    sim::ExecutionConfig exec;
    exec.sampling.warmupOps = 500;
    exec.sampling.windowOps = 2000;
    exec.sampling.intervalOps = 5000;
    std::string a = jsonFor(ExpConfig::RestSecureFull, exec);
    EXPECT_EQ(a, jsonFor(ExpConfig::RestSecureFull, exec));
    // And the sampled record really is marked as such.
    EXPECT_NE(a.find("\"exec_mode\""), std::string::npos) << a;
    EXPECT_NE(a.find("\"sampled\""), std::string::npos) << a;
}

} // namespace rest
