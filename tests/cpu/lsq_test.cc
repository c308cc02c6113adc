/**
 * @file
 * Tests of the REST LSQ matching logic (paper Fig. 5 and Table I's
 * "LSQ" column).
 */

#include <gtest/gtest.h>

#include "cpu/lsq.hh"

namespace rest::cpu
{

namespace
{

Lsq::StoreEntry
entry(std::uint64_t seq, Addr addr, unsigned size, bool arm = false,
      bool disarm = false, Cycles done = 1000)
{
    return {seq, addr, size, arm, disarm, done};
}

} // namespace

TEST(Lsq, ForwardFromCoveringStore)
{
    Lsq lsq;
    lsq.insert(entry(1, 0x1000, 8));
    LoadLsqCheck chk = lsq.checkLoad(2, 0x1000, 8);
    EXPECT_TRUE(chk.forwarded);
    EXPECT_EQ(chk.violation, core::ViolationKind::None);
}

TEST(Lsq, ForwardSubsetOfStore)
{
    Lsq lsq;
    lsq.insert(entry(1, 0x1000, 8));
    LoadLsqCheck chk = lsq.checkLoad(2, 0x1004, 4);
    EXPECT_TRUE(chk.forwarded);
}

TEST(Lsq, PartialOverlapWaitsForWrite)
{
    Lsq lsq;
    lsq.insert(entry(1, 0x1000, 4, false, false, 777));
    LoadLsqCheck chk = lsq.checkLoad(2, 0x1002, 8);
    EXPECT_FALSE(chk.forwarded);
    EXPECT_EQ(chk.mustWaitUntil, 777u);
}

TEST(Lsq, NoMatchNoForward)
{
    Lsq lsq;
    lsq.insert(entry(1, 0x1000, 8));
    LoadLsqCheck chk = lsq.checkLoad(2, 0x2000, 8);
    EXPECT_FALSE(chk.forwarded);
    EXPECT_EQ(chk.mustWaitUntil, 0u);
}

// Paper Fig. 5 / §III-B: a load that would forward from an in-flight
// arm raises a privileged REST exception (the token is secret).
TEST(Lsq, LoadHittingInflightArmFaults)
{
    Lsq lsq;
    lsq.insert(entry(1, 0x1000, 64, /*arm=*/true));
    LoadLsqCheck chk = lsq.checkLoad(2, 0x1010, 8);
    EXPECT_EQ(chk.violation, core::ViolationKind::TokenForward);
}

TEST(Lsq, LoadNextToInflightArmOk)
{
    Lsq lsq;
    lsq.insert(entry(1, 0x1000, 64, /*arm=*/true));
    LoadLsqCheck chk = lsq.checkLoad(2, 0x1040, 8);
    EXPECT_EQ(chk.violation, core::ViolationKind::None);
}

// Younger entries must not affect older loads.
TEST(Lsq, OnlyOlderEntriesConsidered)
{
    Lsq lsq;
    lsq.insert(entry(10, 0x1000, 64, /*arm=*/true));
    LoadLsqCheck chk = lsq.checkLoad(5, 0x1000, 8);
    EXPECT_EQ(chk.violation, core::ViolationKind::None);
    EXPECT_FALSE(chk.forwarded);
}

// Table I "Store": raise exception if SQ has arm for same location.
TEST(Lsq, StoreOverlappingInflightArmFaults)
{
    Lsq lsq;
    lsq.insert(entry(1, 0x1000, 64, /*arm=*/true));
    EXPECT_EQ(lsq.checkInsert(0x1020, 8, false, false),
              core::ViolationKind::TokenForward);
    EXPECT_EQ(lsq.checkInsert(0x1040, 8, false, false),
              core::ViolationKind::None);
}

// Table I "Disarm": raise exception if SQ has disarm for the same
// location.
TEST(Lsq, DisarmOverlappingInflightDisarmFaults)
{
    Lsq lsq;
    lsq.insert(entry(1, 0x1000, 64, false, /*disarm=*/true));
    EXPECT_EQ(lsq.checkInsert(0x1000, 64, false, true),
              core::ViolationKind::DisarmUnarmed);
    EXPECT_EQ(lsq.checkInsert(0x1040, 64, false, true),
              core::ViolationKind::None);
}

// An arm may be inserted over anything (Table I: "create entry").
TEST(Lsq, ArmInsertNeverFaults)
{
    Lsq lsq;
    lsq.insert(entry(1, 0x1000, 64, true));
    lsq.insert(entry(2, 0x1000, 64, false, true));
    EXPECT_EQ(lsq.checkInsert(0x1000, 64, true, false),
              core::ViolationKind::None);
}

// Loads overlapping an in-flight disarm wait for its write (the zero
// value is implicit; no data to forward).
TEST(Lsq, LoadOverlappingDisarmWaits)
{
    Lsq lsq;
    lsq.insert(entry(1, 0x1000, 64, false, true, 555));
    LoadLsqCheck chk = lsq.checkLoad(2, 0x1008, 8);
    EXPECT_FALSE(chk.forwarded);
    EXPECT_EQ(chk.mustWaitUntil, 555u);
    EXPECT_EQ(chk.violation, core::ViolationKind::None);
}

TEST(Lsq, YoungestMatchingEntryDecides)
{
    Lsq lsq;
    lsq.insert(entry(1, 0x1000, 8, false, false, 100));
    lsq.insert(entry(3, 0x1000, 8, false, false, 300));
    LoadLsqCheck chk = lsq.checkLoad(5, 0x1000, 8);
    EXPECT_TRUE(chk.forwarded); // from seq 3, the youngest older
}

TEST(Lsq, PruneDropsCompletedWrites)
{
    Lsq lsq;
    lsq.insert(entry(1, 0x1000, 8, false, false, 100));
    lsq.insert(entry(2, 0x2000, 8, false, false, 200));
    EXPECT_EQ(lsq.occupancy(), 2u);
    lsq.prune(150);
    EXPECT_EQ(lsq.occupancy(), 1u);
    lsq.prune(250);
    EXPECT_EQ(lsq.occupancy(), 0u);
}

// In-order drain: completion times are monotone, so a long-latency
// elder holds its juniors in the queue (and earliestFree is the
// front's completion).
TEST(Lsq, InOrderDrainMonotoneCompletion)
{
    Lsq lsq;
    lsq.insert(entry(1, 0x1000, 8, false, false, 500));
    lsq.insert(entry(2, 0x2000, 8, false, false, 100));
    lsq.prune(200);
    EXPECT_EQ(lsq.occupancy(), 2u); // junior cannot leave early
    EXPECT_EQ(lsq.earliestFree(), 500u);
    lsq.prune(500);
    EXPECT_EQ(lsq.occupancy(), 0u);
}

TEST(Lsq, FullAndCapacity)
{
    Lsq lsq(4);
    for (std::uint64_t i = 0; i < 4; ++i)
        lsq.insert(entry(i, 0x1000 + 64 * i, 8, false, false,
                         1000 + i));
    EXPECT_TRUE(lsq.full());
    EXPECT_EQ(lsq.earliestFree(), 1000u);
    lsq.prune(1000);
    EXPECT_FALSE(lsq.full());
}

// Unit tests insert without pruning, past the configured capacity: the
// queue must keep every entry and still search youngest-first.
TEST(Lsq, GrowsPastCapacityWithoutPrune)
{
    Lsq lsq(32);
    for (std::uint64_t i = 0; i < 100; ++i)
        lsq.insert(entry(i, 0x1000 + 8 * (i % 10), 8, false, false,
                         1000 + i));
    EXPECT_EQ(lsq.occupancy(), 100u);
    EXPECT_TRUE(lsq.full());
    EXPECT_EQ(lsq.earliestFree(), 1000u);
    // Seq 99 (the youngest) and seq 89 wrote 0x1048; only the
    // youngest older than the load decides.
    LoadLsqCheck chk = lsq.checkLoad(95, 0x1048, 8);
    EXPECT_TRUE(chk.forwarded);
    lsq.insert(entry(100, 0x1048, 4, false, false, 5000));
    chk = lsq.checkLoad(101, 0x1048, 8);
    EXPECT_FALSE(chk.forwarded);
    EXPECT_EQ(chk.mustWaitUntil, 5000u);
    lsq.prune(1049);
    EXPECT_EQ(lsq.occupancy(), 51u);
    EXPECT_EQ(lsq.earliestFree(), 1050u);
}

// Steady state: prune and insert cycle the queue through its storage
// many times over; forwarding stays youngest-first across the wrap.
TEST(Lsq, WrapAroundKeepsYoungestFirst)
{
    Lsq lsq(4);
    for (std::uint64_t i = 0; i < 50; ++i) {
        lsq.prune(i);
        lsq.insert(entry(i, 0x2000, 8, false, false, i + 3));
    }
    EXPECT_EQ(lsq.occupancy(), 3u);
    EXPECT_EQ(lsq.earliestFree(), 50u);
    EXPECT_FALSE(lsq.full());
    // The youngest older store (seq 49) is a partial write; an older
    // covering store must not be used.
    lsq.insert(entry(50, 0x2004, 4, false, false, 60));
    EXPECT_TRUE(lsq.full());
    LoadLsqCheck chk = lsq.checkLoad(51, 0x2000, 8);
    EXPECT_FALSE(chk.forwarded);
    EXPECT_EQ(chk.mustWaitUntil, 60u);
    chk = lsq.checkLoad(50, 0x2000, 8);
    EXPECT_TRUE(chk.forwarded);
    lsq.insert(entry(51, 0x3000, 64, /*arm=*/true, false, 61));
    EXPECT_EQ(lsq.checkInsert(0x3008, 8, false, false),
              core::ViolationKind::TokenForward);
    lsq.prune(51);
    EXPECT_EQ(lsq.occupancy(), 3u);
    EXPECT_EQ(lsq.earliestFree(), 52u);
    lsq.prune(61);
    EXPECT_EQ(lsq.occupancy(), 0u);
    EXPECT_EQ(lsq.earliestFree(), 0u);
}

} // namespace rest::cpu
