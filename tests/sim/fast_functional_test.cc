/**
 * @file
 * Simulation-fidelity layer, part 1: the fast-functional driver must
 * be *detection-equivalent* to the detailed O3 pipeline. Fault
 * detection is architectural (the emulator marks the faulting DynOp);
 * the timing model only decides when the fault is reported. So for
 * every attack scenario and every protection scheme, fast-functional
 * and detailed runs must agree on: whether a violation was raised,
 * the (normalised) violation kind, the faulting PC, the faulting data
 * address, the dynamic sequence number, and the retired-op count.
 *
 * Normalisation: the detailed LSQ may refine an architectural
 * TokenAccess into TokenForward when the tripping token's arm is
 * still in flight — same op, same pc/seq/address, a strictly more
 * specific kind. The functional driver has no LSQ, so kinds compare
 * modulo TokenForward == TokenAccess.
 *
 * Registered under the `fidelity` ctest label; CI runs it under both
 * ASan and TSan.
 */

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/test_util.hh"
#include "runtime/protection_scheme.hh"
#include "workload/spec_profiles.hh"

namespace rest
{

using core::ViolationKind;
using sim::ExpConfig;

namespace
{

/** Everything two execution modes must agree on. */
struct Outcome
{
    bool faulted = false;
    ViolationKind kind = ViolationKind::None;
    Addr pc = 0;
    Addr faultAddr = invalidAddr;
    std::uint64_t seq = 0;
    std::uint64_t ops = 0;
    std::array<std::uint64_t, 5> opsBySource{};
    std::array<std::uint64_t, isa::numRegs> regs{};
};

ViolationKind
normalizeKind(ViolationKind kind)
{
    return kind == ViolationKind::TokenForward
               ? ViolationKind::TokenAccess
               : kind;
}

Outcome
runMode(isa::Program program, sim::SystemConfig cfg, bool fast_functional)
{
    cfg.exec.fastFunctional = fast_functional;
    sim::System system(std::move(program), cfg);
    sim::SystemResult r = system.run();

    Outcome o;
    o.faulted = r.faulted();
    o.kind = normalizeKind(r.run.violation.kind);
    o.pc = r.run.violation.pc;
    o.faultAddr = r.run.violation.faultAddr;
    o.seq = r.run.violation.seq;
    o.ops = r.run.committedOps;
    o.opsBySource = r.run.opsBySource;
    for (unsigned i = 0; i < isa::numRegs; ++i)
        o.regs[i] = system.emulator().reg(isa::RegId(i));
    return o;
}

void
expectEquivalent(const Outcome &detailed, const Outcome &fast,
                 const std::string &what)
{
    EXPECT_EQ(detailed.faulted, fast.faulted) << what;
    EXPECT_EQ(detailed.kind, fast.kind) << what;
    EXPECT_EQ(detailed.ops, fast.ops) << what;
    EXPECT_EQ(detailed.opsBySource, fast.opsBySource) << what;
    if (detailed.faulted && fast.faulted) {
        EXPECT_EQ(detailed.pc, fast.pc) << what;
        EXPECT_EQ(detailed.faultAddr, fast.faultAddr) << what;
        EXPECT_EQ(detailed.seq, fast.seq) << what;
    }
    // Architectural end state is the emulator's either way; identical
    // registers prove the functional path drained the same op stream.
    EXPECT_EQ(detailed.regs, fast.regs) << what;
}

struct Scenario
{
    const char *name;
    std::function<isa::Program()> build;
};

const std::vector<Scenario> &
scenarios()
{
    using namespace workload::attacks;
    static const std::vector<Scenario> cases = {
        {"heartbleed", [] { return heartbleed(64, 256); }},
        {"heap-overflow", [] { return heapOverflowWrite(64, 64); }},
        {"heap-underflow", [] { return heapUnderflowRead(64, 8); }},
        {"use-after-free", [] { return useAfterFree(128); }},
        {"double-free", [] { return doubleFree(64); }},
        {"stack-overflow", [] { return stackOverflowWrite(16, 32); }},
        {"brute-force-disarm", [] { return bruteForceDisarm(); }},
        {"strcpy-overflow", [] { return strcpyOverflow(32, 150); }},
        {"pad-overflow", [] { return stackPadOverflow(64, 4); }},
    };
    return cases;
}

const std::vector<ExpConfig> &
allConfigs()
{
    static const std::vector<ExpConfig> configs = {
        ExpConfig::Plain,          ExpConfig::Asan,
        ExpConfig::RestDebugFull,  ExpConfig::RestSecureFull,
        ExpConfig::PerfectHwFull,  ExpConfig::RestDebugHeap,
        ExpConfig::RestSecureHeap, ExpConfig::PerfectHwHeap,
    };
    return configs;
}

} // namespace

TEST(FastFunctionalFidelity, EveryAttackEveryScheme)
{
    for (const auto &sc : scenarios()) {
        for (ExpConfig config : allConfigs()) {
            const std::string what = std::string(sc.name) + " under " +
                                     sim::expConfigName(config);
            const sim::SystemConfig cfg = sim::makeSystemConfig(config);
            Outcome detailed = runMode(sc.build(), cfg, false);
            Outcome fast = runMode(sc.build(), cfg, true);
            expectEquivalent(detailed, fast, what);
        }
    }
}

TEST(FastFunctionalFidelity, BenignWorkloadsIdenticalArchState)
{
    // The presets, then the tag-checking and optimised-ASan backends
    // by their parseSchemeSpec names.
    std::vector<std::pair<std::string, sim::SystemConfig>> columns;
    for (ExpConfig config :
         {ExpConfig::Plain, ExpConfig::Asan, ExpConfig::RestSecureFull,
          ExpConfig::RestDebugHeap})
        columns.emplace_back(sim::expConfigName(config),
                             sim::makeSystemConfig(config));
    for (const char *spec : {"mte", "pauth", "asan+elide+hoist+coalesce"}) {
        sim::SystemConfig cfg;
        std::string err;
        ASSERT_TRUE(runtime::parseSchemeSpec(spec, cfg.scheme, err))
            << err;
        columns.emplace_back(spec, cfg);
    }

    for (const char *name : {"gobmk", "bzip2"}) {
        for (const auto &[column, cfg] : columns) {
            auto p = workload::profileByName(name);
            p.targetKiloInsts = 20;
            const std::string what =
                std::string(name) + " under " + column;
            Outcome detailed = runMode(workload::generate(p), cfg, false);
            Outcome fast = runMode(workload::generate(p), cfg, true);
            EXPECT_FALSE(detailed.faulted) << what;
            expectEquivalent(detailed, fast, what);
        }
    }
}

TEST(FastFunctionalFidelity, MaxOpsCapRespected)
{
    auto p = workload::profileByName("gobmk");
    p.targetKiloInsts = 20;
    sim::SystemConfig cfg =
        sim::makeSystemConfig(ExpConfig::RestSecureFull);
    cfg.exec.fastFunctional = true;
    cfg.maxOps = 1234;
    sim::System system(workload::generate(p), cfg);
    sim::SystemResult r = system.run();
    EXPECT_EQ(r.run.committedOps, 1234u);
    EXPECT_TRUE(r.fastFunctional);
    // Nominal-CPI contract: cycles == retired ops, never quotable.
    EXPECT_EQ(r.run.cycles, Cycles(1234));
}

TEST(FastFunctionalFidelity, StatsTrackRetirement)
{
    auto p = workload::profileByName("hmmer");
    p.targetKiloInsts = 10;
    sim::SystemConfig cfg = sim::makeSystemConfig(ExpConfig::Plain);
    cfg.exec.fastFunctional = true;
    sim::System system(workload::generate(p), cfg);
    sim::SystemResult r = system.run();

    std::uint64_t retired = 0, batches = 0;
    system.cpuStats().forEachScalar(
        [&](const std::string &name, std::uint64_t v) {
            if (name == "fastfunc.retired_ops")
                retired = v;
            else if (name == "fastfunc.batches")
                batches = v;
        });
    EXPECT_EQ(retired, r.run.committedOps);
    EXPECT_GT(batches, 0u);
}

} // namespace rest
