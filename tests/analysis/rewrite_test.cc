/**
 * @file
 * Tests of the shared instruction-vector rewriting helpers: deletion
 * with branch-target remapping (including the trailing-run rescue
 * that keeps a branch target from dangling past the function end)
 * and insertion of one or many splices with per-branch splice-point
 * retargeting.
 */

#include <gtest/gtest.h>

#include "analysis/rewrite.hh"

namespace rest::analysis
{

namespace
{

using isa::FuncBuilder;
using isa::Opcode;

constexpr isa::RegId r1 = 1, r2 = 2, r3 = 3;

/** 'len' distinguishable stand-ins for a preheader body. */
std::vector<isa::Inst>
block(int len)
{
    std::vector<isa::Inst> insts;
    for (int k = 0; k < len; ++k)
        insts.push_back({Opcode::MovImm, r3, isa::noReg, isa::noReg, 8,
                         100 + k, -1, -1});
    return insts;
}

} // namespace

TEST(DeleteInstructions, RemapsBackwardBranchOverDeletion)
{
    // 0: movi; 1: addi; 2: addi (deleted); 3: bne ->1; 4: ret
    FuncBuilder b("f");
    b.movImm(r2, 10);
    b.addI(r2, r2, -1);
    b.addI(r3, r3, 1);
    b.branch(Opcode::Bne, r2, isa::regZero, 1);
    b.ret();
    isa::Function fn = std::move(b).take();

    std::vector<bool> marked(fn.insts.size(), false);
    marked[2] = true;
    RewriteMap map = deleteInstructions(fn, marked);

    EXPECT_EQ(map.removed, 1u);
    ASSERT_EQ(fn.insts.size(), 4u);
    EXPECT_EQ(fn.insts[2].op, Opcode::Bne);
    EXPECT_EQ(fn.insts[2].target, 1);
    // Deleted indices map forward to the first survivor.
    EXPECT_EQ(map.translate(1), 1);
    EXPECT_EQ(map.translate(2), 2);
    EXPECT_EQ(map.translate(3), 2);
    EXPECT_EQ(map.translate(4), 3);
}

TEST(DeleteInstructions, DeletedBranchTargetMovesToNextSurvivor)
{
    // 0: beq ->2; 1: addi; 2: addi (deleted target); 3: ret
    FuncBuilder b("f");
    b.branch(Opcode::Beq, r1, isa::regZero, 2);
    b.addI(r2, r2, 1);
    b.addI(r3, r3, 1);
    b.ret();
    isa::Function fn = std::move(b).take();

    std::vector<bool> marked(fn.insts.size(), false);
    marked[2] = true;
    RewriteMap map = deleteInstructions(fn, marked);

    EXPECT_EQ(map.removed, 1u);
    ASSERT_EQ(fn.insts.size(), 3u);
    // The branch lands on what followed the deleted instruction.
    EXPECT_EQ(fn.insts[0].target, 2);
    EXPECT_EQ(fn.insts[2].op, Opcode::Ret);
}

TEST(DeleteInstructions, TrailingRunWithBranchTargetIsRescued)
{
    // 0: beq ->2; 1: addi; 2: addi (marked); 3: halt (marked).
    // Deleting [2..3] would leave the branch with no survivor at or
    // after its target — the run must be unmarked and kept instead.
    FuncBuilder b("f");
    b.branch(Opcode::Beq, r1, isa::regZero, 2);
    b.addI(r2, r2, 1);
    b.addI(r3, r3, 1);
    b.halt();
    isa::Function fn = std::move(b).take();

    std::vector<bool> marked(fn.insts.size(), false);
    marked[2] = true;
    marked[3] = true;
    RewriteMap map = deleteInstructions(fn, marked);

    EXPECT_EQ(map.removed, 0u);
    EXPECT_EQ(fn.insts.size(), 4u);
    EXPECT_EQ(fn.insts[0].target, 2);
    // The in-place mark vector reflects that nothing was deleted.
    EXPECT_EQ(marked, std::vector<bool>(4, false));
}

TEST(DeleteInstructions, TrailingRunWithoutTargetStillDeletes)
{
    // Same trailing run, but no branch targets it: deletion proceeds.
    FuncBuilder b("f");
    b.branch(Opcode::Beq, r1, isa::regZero, 1);
    b.addI(r2, r2, 1);
    b.addI(r3, r3, 1);
    b.halt();
    isa::Function fn = std::move(b).take();

    std::vector<bool> marked(fn.insts.size(), false);
    marked[2] = true;
    marked[3] = true;
    RewriteMap map = deleteInstructions(fn, marked);

    EXPECT_EQ(map.removed, 2u);
    EXPECT_EQ(fn.insts.size(), 2u);
}

TEST(InsertInstructions, SplicePointChoosesPerBranch)
{
    /*
     * 0: beq ->2   (loop-entry edge: must fall into the splice)
     * 1: addi
     * 2: addi      <- splice point (header)
     * 3: bne ->2   (back edge: must skip the splice)
     * 4: ret
     */
    FuncBuilder b("f");
    b.branch(Opcode::Beq, r1, isa::regZero, 2);
    b.addI(r3, r3, 1);
    b.addI(r2, r2, -1);
    b.branch(Opcode::Bne, r2, isa::regZero, 2);
    b.ret();
    isa::Function fn = std::move(b).take();

    std::vector<isa::Inst> pre;
    pre.push_back({Opcode::MovImm, r3, isa::noReg, isa::noReg, 8, 7,
                   -1, -1});
    RewriteMap map = insertInstructions(
        fn, {{2, pre, [](int branch_idx) { return branch_idx == 3; }}});

    ASSERT_EQ(fn.insts.size(), 6u);
    EXPECT_EQ(fn.insts[2].op, Opcode::MovImm);
    // Entry edge enters the inserted code; back edge skips it.
    EXPECT_EQ(fn.insts[0].target, 2);
    EXPECT_EQ(fn.insts[4].op, Opcode::Bne);
    EXPECT_EQ(fn.insts[4].target, 3);
    // Pre-edit indices at or beyond the splice shift by its length.
    EXPECT_EQ(map.translate(1), 1);
    EXPECT_EQ(map.translate(2), 3);
    EXPECT_EQ(map.translate(4), 5);
}

TEST(InsertInstructions, TargetsBeyondSpliceAlwaysShift)
{
    // 0: beq ->3; 1: addi; 2: addi; 3: ret — insert at 1.
    FuncBuilder b("f");
    b.branch(Opcode::Beq, r1, isa::regZero, 3);
    b.addI(r2, r2, 1);
    b.addI(r3, r3, 1);
    b.ret();
    isa::Function fn = std::move(b).take();

    std::vector<isa::Inst> pre;
    pre.push_back({Opcode::MovImm, r3, isa::noReg, isa::noReg, 8, 7,
                   -1, -1});
    insertInstructions(fn, {{1, pre, [](int) { return false; }}});

    ASSERT_EQ(fn.insts.size(), 5u);
    EXPECT_EQ(fn.insts[0].target, 4);
}

TEST(InsertInstructions, TwoSplicesEachBackEdgeSkipsOnlyItsOwn)
{
    /*
     * 0: beq ->2   (entry edge of loop A)
     * 1: beq ->4   (entry edge of loop B)
     * 2: addi      <- splice A (1 inst), header of A
     * 3: bne ->2   (back edge of A)
     * 4: addi      <- splice B (2 insts), header of B
     * 5: bne ->4   (back edge of B)
     * 6: ret
     */
    FuncBuilder b("f");
    b.branch(Opcode::Beq, r1, isa::regZero, 2);
    b.branch(Opcode::Beq, r3, isa::regZero, 4);
    b.addI(r2, r2, -1);
    b.branch(Opcode::Bne, r2, isa::regZero, 2);
    b.addI(r3, r3, -1);
    b.branch(Opcode::Bne, r3, isa::regZero, 4);
    b.ret();
    isa::Function fn = std::move(b).take();

    RewriteMap map = insertInstructions(
        fn, {{2, block(1), [](int i) { return i == 3; }},
             {4, block(2), [](int i) { return i == 5; }}});

    ASSERT_EQ(fn.insts.size(), 10u);
    EXPECT_EQ(fn.insts[2].imm, 100);
    EXPECT_EQ(fn.insts[5].imm, 100);
    EXPECT_EQ(fn.insts[6].imm, 101);
    // Entry edges fall into their preheaders...
    EXPECT_EQ(fn.insts[0].target, 2);
    EXPECT_EQ(fn.insts[1].target, 5);
    // ...and each back edge skips only its own.
    EXPECT_EQ(fn.insts[4].op, Opcode::Bne);
    EXPECT_EQ(fn.insts[4].target, 3);
    EXPECT_EQ(fn.insts[8].op, Opcode::Bne);
    EXPECT_EQ(fn.insts[8].target, 7);
    EXPECT_EQ(map.oldToNew, (std::vector<int>{0, 1, 3, 4, 7, 8, 9}));
}

TEST(InsertInstructions, ThreeSplicesMapEveryPreEditIndex)
{
    /*
     * 0: beq ->3   (entry edge of loop Y)
     * 1: addi      <- splice X (1 inst), header of X
     * 2: bne ->1   (back edge of X)
     * 3: addi      <- splice Y (2 insts), header of Y
     * 4: bne ->3   (back edge of Y)
     * 5: beq ->7   (entry edge of loop Z)
     * 6: addi
     * 7: addi      <- splice Z (3 insts), header of Z
     * 8: bne ->7   (back edge of Z)
     * 9: ret
     */
    FuncBuilder b("f");
    b.branch(Opcode::Beq, r1, isa::regZero, 3);
    b.addI(r2, r2, -1);
    b.branch(Opcode::Bne, r2, isa::regZero, 1);
    b.addI(r3, r3, -1);
    b.branch(Opcode::Bne, r3, isa::regZero, 3);
    b.branch(Opcode::Beq, r1, isa::regZero, 7);
    b.addI(r1, r1, 1);
    b.addI(r2, r2, -1);
    b.branch(Opcode::Bne, r2, isa::regZero, 7);
    b.ret();
    isa::Function fn = std::move(b).take();
    const isa::Function before = fn;

    RewriteMap map = insertInstructions(
        fn, {{1, block(1), [](int i) { return i == 2; }},
             {3, block(2), [](int i) { return i == 4; }},
             {7, block(3), [](int i) { return i == 8; }}});

    ASSERT_EQ(fn.insts.size(), 16u);
    const std::vector<int> expected = {0, 2, 3, 6, 7, 8, 9, 13, 14, 15};
    EXPECT_EQ(map.oldToNew, expected);
    // Every pre-edit instruction sits where the map says.
    for (std::size_t i = 0; i < before.insts.size(); ++i) {
        const isa::Inst &now =
            fn.insts[static_cast<std::size_t>(map.translate(
                static_cast<int>(i)))];
        EXPECT_EQ(now.op, before.insts[i].op) << i;
        EXPECT_EQ(now.rd, before.insts[i].rd) << i;
        EXPECT_EQ(now.imm, before.insts[i].imm) << i;
    }
    // The inserted blocks fill the gaps.
    for (int at : {1, 4, 5, 10, 11, 12})
        EXPECT_EQ(fn.insts[static_cast<std::size_t>(at)].op,
                  Opcode::MovImm) << at;
    EXPECT_EQ(fn.insts[0].target, 4);   // enters Y's preheader
    EXPECT_EQ(fn.insts[3].target, 2);   // X's back edge skips X's
    EXPECT_EQ(fn.insts[7].target, 6);   // Y's back edge skips Y's
    EXPECT_EQ(fn.insts[8].target, 10);  // enters Z's preheader
    EXPECT_EQ(fn.insts[14].target, 13); // Z's back edge skips Z's
}

TEST(InsertInstructions, TargetBetweenSplicesShiftsByEarlierOnly)
{
    // 0: beq ->2; 1: beq ->4; 2: addi; 3: addi; 4: ret — splices of
    // 2 insts at 1 and 3 insts at 3.
    FuncBuilder b("f");
    b.branch(Opcode::Beq, r1, isa::regZero, 2);
    b.branch(Opcode::Beq, r1, isa::regZero, 4);
    b.addI(r2, r2, 1);
    b.addI(r3, r3, 1);
    b.ret();
    isa::Function fn = std::move(b).take();

    auto never = [](int) { return false; };
    insertInstructions(fn, {{1, block(2), never}, {3, block(3), never}});

    ASSERT_EQ(fn.insts.size(), 10u);
    EXPECT_EQ(fn.insts[0].target, 4); // 2 + the first splice only
    EXPECT_EQ(fn.insts[3].op, Opcode::Beq);
    EXPECT_EQ(fn.insts[3].target, 9); // beyond both: 4 + 2 + 3
    EXPECT_EQ(fn.insts[9].op, Opcode::Ret);
}

} // namespace rest::analysis
