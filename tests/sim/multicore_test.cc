/**
 * @file
 * MultiCoreSystem invariants (DESIGN.md §16):
 *
 *   - an N-core run is deterministic: two fresh machines over the
 *     same config produce byte-identical results, including the full
 *     stats dump and — for the attack pairs — the same faulting core
 *     and violation record;
 *   - the round-robin quantum changes timing interleaving but never
 *     the architectural outcome of independent benign programs.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/multicore.hh"
#include "workload/attack_scenarios.hh"
#include "workload/server_mix.hh"

namespace rest::sim
{

namespace
{

/** The 4-core server mix at test size. */
std::vector<isa::Program>
mix4()
{
    workload::ServerMixConfig wl;
    wl.cores = 4;
    wl.requestsPerCore = 12;
    return workload::serverMix(wl);
}

MultiCoreConfig
machineConfig(unsigned cores, const runtime::SchemeConfig &scheme,
              bool fast = false)
{
    MultiCoreConfig mc;
    mc.base.scheme = scheme;
    mc.base.exec.fastFunctional = fast;
    mc.cores = cores;
    return mc;
}

/** Full machine state fingerprint: every component's stat dump. */
std::string
statsDump(MultiCoreSystem &sys)
{
    std::ostringstream os;
    sys.dumpStats(os);
    return os.str();
}

} // namespace

TEST(MultiCore, FourCoreServerMixIsByteIdenticallyDeterministic)
{
    const MultiCoreConfig mc =
        machineConfig(4, runtime::SchemeConfig::restFull());

    MultiCoreSystem a(mix4(), mc);
    MultiCoreResult ra = a.run();
    MultiCoreSystem b(mix4(), mc);
    MultiCoreResult rb = b.run();

    ASSERT_FALSE(ra.faulted());
    ASSERT_FALSE(rb.faulted());
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.committedOps, rb.committedOps);
    EXPECT_EQ(ra.armsExecuted, rb.armsExecuted);
    EXPECT_EQ(ra.mallocCalls, rb.mallocCalls);
    EXPECT_EQ(ra.freeCalls, rb.freeCalls);
    for (unsigned c = 0; c < 4; ++c) {
        EXPECT_EQ(ra.cores[c].cycles, rb.cores[c].cycles) << c;
        EXPECT_EQ(ra.cores[c].committedOps, rb.cores[c].committedOps)
            << c;
    }
    // The whole machine, counter for counter.
    EXPECT_EQ(statsDump(a), statsDump(b));
    // And real sharing happened: the run is a coherence workload,
    // not four isolated cores.
    EXPECT_GT(ra.committedOps, 0u);
    ASSERT_NE(nullptr, a.bus());
}

TEST(MultiCore, FaultingRunIsDeterministic)
{
    const MultiCoreConfig mc =
        machineConfig(2, runtime::SchemeConfig::restFull());

    auto run_once = [&mc] {
        MultiCoreSystem sys(
            workload::attacks::crossThreadUseAfterFree(96), mc);
        return sys.run();
    };
    MultiCoreResult ra = run_once();
    MultiCoreResult rb = run_once();

    ASSERT_TRUE(ra.faulted());
    ASSERT_TRUE(rb.faulted());
    EXPECT_EQ(ra.faultCore, rb.faultCore);
    EXPECT_EQ(ra.violation().kind, rb.violation().kind);
    EXPECT_EQ(ra.violation().faultAddr, rb.violation().faultAddr);
    EXPECT_EQ(ra.violation().pc, rb.violation().pc);
    EXPECT_EQ(ra.violation().seq, rb.violation().seq);
    EXPECT_EQ(ra.cycles, rb.cycles);
}

TEST(MultiCore, QuantumDoesNotChangeArchitecturalOutcome)
{
    // Benign independent handlers: any round-robin quantum must
    // retire the same ops and heap traffic (timing may differ — the
    // interleaving over the shared hierarchy changes — but the
    // architectural outcome may not).
    workload::ServerMixConfig wl;
    wl.cores = 2;
    wl.requestsPerCore = 8;
    wl.handoffEvery = 0; // no cross-core blocking: quanta independent

    MultiCoreResult base;
    bool first = true;
    for (std::uint64_t quantum : {std::uint64_t(512),
                                  std::uint64_t(8192)}) {
        MultiCoreConfig mc =
            machineConfig(2, runtime::SchemeConfig::restFull());
        mc.quantumOps = quantum;
        MultiCoreSystem sys(workload::serverMix(wl), mc);
        MultiCoreResult r = sys.run();
        ASSERT_FALSE(r.faulted()) << quantum;
        if (first) {
            base = r;
            first = false;
            continue;
        }
        EXPECT_EQ(base.committedOps, r.committedOps) << quantum;
        EXPECT_EQ(base.mallocCalls, r.mallocCalls) << quantum;
        EXPECT_EQ(base.freeCalls, r.freeCalls) << quantum;
        EXPECT_EQ(base.armsExecuted, r.armsExecuted) << quantum;
        for (unsigned c = 0; c < 2; ++c)
            EXPECT_EQ(base.cores[c].committedOps,
                      r.cores[c].committedOps)
                << quantum << " core " << c;
    }
}

} // namespace rest::sim
