/**
 * @file
 * Differential test of the IQ release calendar against a binary
 * min-heap over random release streams.
 */

#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <vector>

#include "cpu/iq_calendar.hh"
#include "util/random.hh"

namespace rest::cpu
{

namespace
{

/** The reference: every release in a binary min-heap. */
class HeapOracle
{
  public:
    explicit HeapOracle(unsigned entries) : entries_(entries) { reset(); }

    void
    reset()
    {
        heap_ = {};
        for (unsigned i = 0; i < entries_; ++i)
            heap_.push(0);
    }

    Cycles earliest() const { return heap_.top(); }

    void
    replaceEarliest(Cycles free_at)
    {
        heap_.pop();
        heap_.push(free_at);
    }

  private:
    unsigned entries_;
    std::priority_queue<Cycles, std::vector<Cycles>,
                        std::greater<Cycles>> heap_;
};

/**
 * Replace the earliest release 'steps' times with random later ones
 * and compare the two after every step. Releases are equal to the
 * earliest, a few cycles after it, past the ring's end (the overflow
 * path) or far past it (the ring empties and jumps), and the calendar
 * is reset now and then.
 */
void
compareOnStream(unsigned entries, std::uint64_t seed, unsigned steps)
{
    IqCalendar cal(entries);
    HeapOracle oracle(entries);
    Xoshiro256ss rng(seed);
    unsigned overflowed = 0, resets = 0, equal = 0;
    for (unsigned i = 0; i < steps; ++i) {
        if (rng.chance(0.002)) {
            cal.reset();
            oracle.reset();
            ++resets;
        }
        const Cycles now = oracle.earliest();
        ASSERT_EQ(cal.earliest(), now)
            << "entries " << entries << " seed " << seed << " step " << i;
        Cycles free_at;
        switch (rng.below(10)) {
          case 0:
            free_at = now;
            ++equal;
            break;
          case 1:
            free_at = now + IqCalendar::ringSize - 1 + rng.below(3);
            overflowed += free_at - now >= IqCalendar::ringSize;
            break;
          case 2:
            free_at = now + IqCalendar::ringSize + rng.below(4000);
            ++overflowed;
            break;
          case 3:
            free_at = now + 100000 + rng.below(100000);
            ++overflowed;
            break;
          default:
            free_at = now + 1 + rng.below(40);
            break;
        }
        cal.replaceEarliest(free_at);
        oracle.replaceEarliest(free_at);
    }
    EXPECT_GT(overflowed, 0u);
    EXPECT_GT(resets, 0u);
    EXPECT_GT(equal, 0u);
}

} // namespace

TEST(IqCalendar, StartsWithEverySlotFreeAtZero)
{
    IqCalendar cal(4);
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_EQ(cal.earliest(), 0u);
        cal.replaceEarliest(10 + i);
    }
    EXPECT_EQ(cal.earliest(), 10u);
}

TEST(IqCalendar, OverflowReleaseComesBackInOrder)
{
    IqCalendar cal(2);
    cal.replaceEarliest(5 * IqCalendar::ringSize);
    cal.replaceEarliest(3);
    EXPECT_EQ(cal.earliest(), 3u);
    cal.replaceEarliest(7 * IqCalendar::ringSize);
    EXPECT_EQ(cal.earliest(), 5 * IqCalendar::ringSize);
    cal.replaceEarliest(5 * IqCalendar::ringSize + 1);
    EXPECT_EQ(cal.earliest(), 5 * IqCalendar::ringSize + 1);
    cal.replaceEarliest(6 * IqCalendar::ringSize);
    EXPECT_EQ(cal.earliest(), 6 * IqCalendar::ringSize);
    cal.reset();
    EXPECT_EQ(cal.earliest(), 0u);
}

TEST(IqCalendar, MatchesHeapOracleOnRandomStreams)
{
    for (unsigned entries : {1u, 2u, 7u, 64u, 200u}) {
        for (std::uint64_t seed = 1; seed <= 8; ++seed)
            compareOnStream(entries, seed, 20000);
    }
}

} // namespace rest::cpu
