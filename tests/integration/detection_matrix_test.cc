/**
 * @file
 * End-to-end detection matrix: every attack scenario under every
 * protection scheme, with the paper-specified expected outcome
 * (Fig. 1, §IV, §V-C).
 */

#include <gtest/gtest.h>

#include <ostream>

#include "common/test_util.hh"

namespace rest
{

using sim::ExpConfig;
using test::runUnder;

namespace
{

struct Cell
{
    const char *attack;
    ExpConfig config;
    bool detected;
};

isa::Program
buildAttack(const std::string &name)
{
    using namespace workload::attacks;
    if (name == "heartbleed")
        return heartbleed(64, 256);
    if (name == "heap-overflow")
        return heapOverflowWrite(64, 64);
    if (name == "heap-underflow")
        return heapUnderflowRead(64, 8);
    if (name == "uaf")
        return useAfterFree(128);
    if (name == "double-free")
        return doubleFree(64);
    if (name == "stack-overflow")
        return stackOverflowWrite(16, 32);
    if (name == "strcpy-overflow")
        return strcpyOverflow(32, 150);
    rest_fatal("unknown attack ", name);
}

// Prints a cell as "<attack> under <config>". The test names shown by
// ctest carry this text; gtest's default would print the Cell's raw
// bytes, which include the (ASLR-randomised) address of its attack
// string, so every build would name the cases differently.
void
PrintTo(const Cell &cell, std::ostream *os)
{
    *os << cell.attack << " under " << sim::expConfigName(cell.config);
}

} // namespace

class DetectionMatrix : public ::testing::TestWithParam<Cell> {};

TEST_P(DetectionMatrix, OutcomeMatchesPaper)
{
    const Cell &cell = GetParam();
    auto result = runUnder(buildAttack(cell.attack), cell.config);
    EXPECT_EQ(result.faulted(), cell.detected)
        << cell.attack << " under "
        << sim::expConfigName(cell.config)
        << (result.faulted()
                ? " raised " + result.run.violation.toString()
                : " raised nothing");
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, DetectionMatrix,
    ::testing::Values(
        // Plain hardware detects nothing.
        Cell{"heartbleed", ExpConfig::Plain, false},
        Cell{"heap-overflow", ExpConfig::Plain, false},
        Cell{"heap-underflow", ExpConfig::Plain, false},
        Cell{"uaf", ExpConfig::Plain, false},
        Cell{"stack-overflow", ExpConfig::Plain, false},
        // ASan detects all of these.
        Cell{"strcpy-overflow", ExpConfig::Plain, false},
        Cell{"strcpy-overflow", ExpConfig::Asan, true},
        Cell{"strcpy-overflow", ExpConfig::RestSecureHeap, true},
        Cell{"heartbleed", ExpConfig::Asan, true},
        Cell{"heap-overflow", ExpConfig::Asan, true},
        Cell{"heap-underflow", ExpConfig::Asan, true},
        Cell{"uaf", ExpConfig::Asan, true},
        Cell{"double-free", ExpConfig::Asan, true},
        Cell{"stack-overflow", ExpConfig::Asan, true},
        // REST secure, full protection: everything.
        Cell{"heartbleed", ExpConfig::RestSecureFull, true},
        Cell{"heap-overflow", ExpConfig::RestSecureFull, true},
        Cell{"heap-underflow", ExpConfig::RestSecureFull, true},
        Cell{"uaf", ExpConfig::RestSecureFull, true},
        Cell{"double-free", ExpConfig::RestSecureFull, true},
        Cell{"stack-overflow", ExpConfig::RestSecureFull, true},
        // REST heap-only (legacy binaries): heap yes, stack no.
        Cell{"heartbleed", ExpConfig::RestSecureHeap, true},
        Cell{"heap-overflow", ExpConfig::RestSecureHeap, true},
        Cell{"uaf", ExpConfig::RestSecureHeap, true},
        Cell{"double-free", ExpConfig::RestSecureHeap, true},
        Cell{"stack-overflow", ExpConfig::RestSecureHeap, false},
        // Debug mode has identical coverage to secure.
        Cell{"heartbleed", ExpConfig::RestDebugFull, true},
        Cell{"uaf", ExpConfig::RestDebugFull, true},
        Cell{"stack-overflow", ExpConfig::RestDebugFull, true},
        // PerfectHW is a cost model only: no protection at all.
        Cell{"heartbleed", ExpConfig::PerfectHwFull, false},
        Cell{"uaf", ExpConfig::PerfectHwFull, false}));

TEST(DetectionSideEffects, HeartbleedLeaksOnPlainOnly)
{
    // On plain hardware, bytes beyond the 64-byte request buffer are
    // copied into the response: verify actual secret-ish bytes moved
    // (Fig. 1 (A)); under REST the copy stops at the redzone.
    {
        sim::System system(workload::attacks::heartbleed(64, 256),
                           sim::makeSystemConfig(sim::ExpConfig::Plain));
        auto r = system.run();
        ASSERT_FALSE(r.faulted());
    }
    {
        sim::System system(
            workload::attacks::heartbleed(64, 256),
            sim::makeSystemConfig(sim::ExpConfig::RestSecureHeap));
        auto r = system.run();
        ASSERT_TRUE(r.faulted());
        // The fault address is past the request buffer's end.
        EXPECT_GE(r.run.violation.faultAddr,
                  runtime::AddressMap::heapBase + 64);
    }
}

} // namespace rest
