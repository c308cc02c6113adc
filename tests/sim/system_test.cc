#include <gtest/gtest.h>

#include "common/test_util.hh"
#include "workload/spec_profiles.hh"

namespace rest::sim
{

namespace
{

isa::Program
tinyBench(const char *name = "hmmer")
{
    auto p = workload::profileByName(name);
    p.targetKiloInsts = 20;
    return workload::generate(p);
}

} // namespace

TEST(System, RunsPlainProgramToCompletion)
{
    SystemConfig cfg;
    System system(tinyBench(), cfg);
    SystemResult result = system.run();
    EXPECT_FALSE(result.faulted());
    EXPECT_GT(result.run.committedOps, 10000u);
    EXPECT_GT(result.cycles(), 0u);
    EXPECT_GT(result.mallocCalls, 0u);
}

TEST(System, SelectsAllocatorByScheme)
{
    {
        System s(tinyBench(), makeSystemConfig(ExpConfig::Plain));
        EXPECT_STREQ(s.allocator().name(), "libc");
    }
    {
        System s(tinyBench(), makeSystemConfig(ExpConfig::Asan));
        EXPECT_STREQ(s.allocator().name(), "asan");
    }
    {
        System s(tinyBench(),
                 makeSystemConfig(ExpConfig::RestSecureFull));
        EXPECT_STREQ(s.allocator().name(), "rest");
    }
}

TEST(System, RestRunsExecuteArms)
{
    System s(tinyBench(), makeSystemConfig(ExpConfig::RestSecureFull));
    SystemResult r = s.run();
    EXPECT_FALSE(r.faulted());
    EXPECT_GT(r.armsExecuted, 0u);
    EXPECT_GT(r.disarmsExecuted, 0u);
}

TEST(System, PerfectHwExecutesNoArms)
{
    System s(tinyBench(), makeSystemConfig(ExpConfig::PerfectHwFull));
    SystemResult r = s.run();
    EXPECT_FALSE(r.faulted());
    EXPECT_EQ(r.armsExecuted, 0u);
}

TEST(System, TokenWidthConfigurable)
{
    for (auto w : {core::TokenWidth::Bytes16,
                   core::TokenWidth::Bytes32,
                   core::TokenWidth::Bytes64}) {
        System s(tinyBench(),
                 makeSystemConfig(ExpConfig::RestSecureFull, w));
        EXPECT_EQ(s.tokenRegister().granule(),
                  core::tokenBytes(w));
        EXPECT_FALSE(s.run().faulted());
    }
}

TEST(System, InOrderCpuOption)
{
    SystemConfig cfg = makeSystemConfig(ExpConfig::Plain);
    cfg.useInOrderCpu = true;
    System s(tinyBench(), cfg);
    SystemResult r = s.run();
    EXPECT_FALSE(r.faulted());
    // Scalar core: cycles at least ops.
    EXPECT_GE(r.cycles(), r.run.committedOps);
}

TEST(System, InstrumentationSummaryExposed)
{
    System s(tinyBench(), makeSystemConfig(ExpConfig::Asan));
    SystemResult r = s.run();
    EXPECT_GT(r.instrumentation.accessChecksInserted, 0u);
    EXPECT_GT(r.instrumentation.stackPoisonStores, 0u);
}

TEST(System, StatsDumpIsNonEmpty)
{
    System s(tinyBench(), makeSystemConfig(ExpConfig::Plain));
    s.run();
    std::ostringstream os;
    s.dumpStats(os);
    EXPECT_NE(os.str().find("o3cpu.committed_ops"),
              std::string::npos);
    EXPECT_NE(os.str().find("l1d.hits"), std::string::npos);
    EXPECT_NE(os.str().find("dram.reads"), std::string::npos);
}

TEST(System, MaxOpsCap)
{
    SystemConfig cfg;
    cfg.maxOps = 5000;
    System s(tinyBench(), cfg);
    SystemResult r = s.run();
    EXPECT_EQ(r.run.committedOps, 5000u);
}

} // namespace rest::sim
