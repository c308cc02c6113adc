/**
 * @file
 * Logging output format and the ScopedFatalThrow guard that turns
 * rest_fatal into a catchable error (which is how a sweep job's fatal
 * becomes a failed cell instead of ending the process).
 */

#include <gtest/gtest.h>

#include <string>

#include "util/logging.hh"

namespace rest
{

TEST(Logging, DefaultWarnLineIsBarePrefix)
{
    ::testing::internal::CaptureStderr();
    rest_warn("plain message");
    EXPECT_EQ(::testing::internal::GetCapturedStderr(),
              "warn: plain message\n");
}

TEST(ScopedFatalThrow, MakesRestFatalThrowWhileActive)
{
    util::ScopedFatalThrow guard;
    EXPECT_THROW(rest_fatal("converted to an exception"),
                 util::FatalError);
}

TEST(ScopedFatalThrow, NestsPerThread)
{
    util::ScopedFatalThrow outer;
    {
        util::ScopedFatalThrow inner;
        EXPECT_THROW(rest_fatal("inner"), util::FatalError);
    }
    // Still inside the outer region.
    EXPECT_THROW(rest_fatal("outer"), util::FatalError);
}

} // namespace rest
