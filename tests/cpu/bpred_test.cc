#include <gtest/gtest.h>

#include "cpu/bpred.hh"
#include "util/random.hh"

namespace rest::cpu
{

TEST(Tage, LearnsAlwaysTaken)
{
    TagePredictor tage;
    int correct = 0;
    for (int i = 0; i < 200; ++i)
        correct += tage.update(0x1000, true);
    // After warmup, should predict essentially perfectly.
    EXPECT_GT(correct, 190);
}

TEST(Tage, LearnsAlwaysNotTaken)
{
    TagePredictor tage;
    int correct = 0;
    for (int i = 0; i < 200; ++i)
        correct += tage.update(0x2000, false);
    EXPECT_GT(correct, 190);
}

TEST(Tage, LearnsShortAlternation)
{
    // T N T N ... needs one bit of history: tagged tables handle it.
    TagePredictor tage;
    int correct = 0;
    for (int i = 0; i < 2000; ++i)
        correct += tage.update(0x3000, i % 2 == 0);
    EXPECT_GT(correct, 1800);
}

TEST(Tage, LearnsLoopExitPattern)
{
    // Taken 7 times, not-taken once (loop with 8 trips): a classic
    // pattern the long-history tables pick up.
    TagePredictor tage;
    int correct = 0;
    const int total = 4000;
    for (int i = 0; i < total; ++i)
        correct += tage.update(0x4000, i % 8 != 7);
    EXPECT_GT(correct, total * 9 / 10);
}

TEST(Tage, RandomPatternNearChance)
{
    TagePredictor tage;
    Xoshiro256ss rng(5);
    int correct = 0;
    const int total = 4000;
    for (int i = 0; i < total; ++i)
        correct += tage.update(0x5000, rng.chance(0.5));
    // Unpredictable stream: accuracy must be near 50%, definitely
    // not above 65%.
    EXPECT_LT(correct, total * 65 / 100);
    EXPECT_GT(correct, total * 35 / 100);
}

TEST(Tage, DistinguishesBranchPcs)
{
    TagePredictor tage;
    int correct = 0;
    for (int i = 0; i < 1000; ++i) {
        correct += tage.update(0x6000, true);
        correct += tage.update(0x6004, false);
    }
    EXPECT_GT(correct, 1900);
}

TEST(BranchPredictor, RasPredictsReturns)
{
    BranchPredictor bp;
    bp.pushReturn(0x1004);
    bp.pushReturn(0x2004);
    EXPECT_TRUE(bp.predictReturn(0x2004));
    EXPECT_TRUE(bp.predictReturn(0x1004));
    EXPECT_EQ(bp.mispredicts(), 0u);
}

TEST(BranchPredictor, RasUnderflowMispredicts)
{
    BranchPredictor bp;
    EXPECT_FALSE(bp.predictReturn(0x1234));
    EXPECT_EQ(bp.mispredicts(), 1u);
}

TEST(BranchPredictor, RasWrongTargetMispredicts)
{
    BranchPredictor bp;
    bp.pushReturn(0x1004);
    EXPECT_FALSE(bp.predictReturn(0x9999));
    EXPECT_EQ(bp.mispredicts(), 1u);
}

TEST(BranchPredictor, DeepCallChains)
{
    BranchPredictor bp;
    for (Addr a = 0; a < 20; ++a)
        bp.pushReturn(0x1000 + 4 * a);
    int correct = 0;
    for (Addr a = 20; a-- > 0;)
        correct += bp.predictReturn(0x1000 + 4 * a);
    EXPECT_EQ(correct, 20);
}

TEST(BranchPredictor, CountsAccumulate)
{
    BranchPredictor bp;
    for (int i = 0; i < 100; ++i)
        bp.resolveConditional(0x100, true);
    EXPECT_EQ(bp.corrects() + bp.mispredicts(), 100u);
    EXPECT_GT(bp.corrects(), 90u);
}

// Exact mispredict count over a fixed mix of biased, patterned and
// random branches at several PCs: any change to how the predictor
// indexes its history must leave every prediction unchanged.
TEST(Tage, MispredictCountPinned)
{
    TagePredictor tage;
    Xoshiro256ss rng(11);
    int mispredicts = 0;
    for (int i = 0; i < 5000; ++i) {
        Addr pc = 0x8000 + 4 * rng.below(16);
        bool taken;
        switch ((pc >> 2) % 4) {
          case 0: taken = rng.chance(0.9); break;
          case 1: taken = i % 3 != 0; break;
          case 2: taken = rng.chance(0.5); break;
          default: taken = (i / 7) % 2 == 0; break;
        }
        mispredicts += !tage.update(pc, taken);
    }
    EXPECT_EQ(mispredicts, 1809);
}

// Calls and returns push their targets into the global history between
// conditional branches; over 20k steps the history runs far past the
// longest table (640 branches), so every table's out-bit position and
// folded registers are exercised.
TEST(Tage, MispredictCountWithCallsAndReturnsPinned)
{
    TagePredictor tage;
    Xoshiro256ss rng(17);
    int mispredicts = 0;
    for (int i = 0; i < 20000; ++i) {
        const unsigned kind = static_cast<unsigned>(rng.below(8));
        if (kind == 0) {
            tage.recordUnconditional(0x40000 + 4 * rng.below(64));
            continue;
        }
        if (kind == 1) {
            tage.recordUnconditional(0x50000 + 8 * rng.below(64),
                                     rng.chance(0.5));
            continue;
        }
        Addr pc = 0x8000 + 4 * rng.below(32);
        bool taken;
        switch ((pc >> 2) % 4) {
          case 0: taken = rng.chance(0.95); break;
          case 1: taken = i % 5 != 0; break;
          case 2: taken = rng.chance(0.5); break;
          default: taken = (i / 11) % 2 == 0; break;
        }
        mispredicts += !tage.update(pc, taken);
    }
    EXPECT_EQ(mispredicts, 4600);
}

} // namespace rest::cpu
