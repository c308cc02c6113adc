/**
 * @file
 * Shared instruction-vector rewriting for the check-optimizer passes.
 *
 * Both the redundant-check elision pass and the loop hoisting pass
 * delete whole shadow-check groups, and hoisting additionally splices
 * a synthesized preheader into the middle of a function. Every such
 * edit invalidates branch targets (targets are instruction indices),
 * so the remapping rules live here once:
 *
 *  - deleteInstructions(): drop every marked instruction and remap
 *    branch targets forward to the first survivor. A target whose
 *    entire suffix is marked (a deleted group at the very end of the
 *    function) is *rescued*: the marked run containing the target is
 *    kept instead of crashing, so callers may mark trailing groups
 *    freely.
 *
 *  - insertInstructions(): splice blocks of instructions in front of
 *    any number of indices in one pass. Branches that target a splice
 *    point choose, per branch site, whether to enter the inserted code
 *    (loop-entry edges fall into a preheader) or skip it (back edges
 *    re-enter the loop header behind the preheader).
 *
 * Both return an old-index -> new-index map so callers can translate
 * any instruction indices they recorded before the edit (the hoist
 * pass threads its audit records through each round's edit this way).
 */

#ifndef REST_ANALYSIS_REWRITE_HH
#define REST_ANALYSIS_REWRITE_HH

#include <functional>
#include <vector>

#include "isa/program.hh"

namespace rest::analysis
{

/** Result of one in-place instruction-vector edit. */
struct RewriteMap
{
    /**
     * oldToNew[i] is the post-edit index of pre-edit instruction i.
     * For a deleted instruction it is the post-edit index of the
     * first survivor at or after i (how branch targets were remapped);
     * every pre-edit index therefore maps to a valid post-edit index.
     */
    std::vector<int> oldToNew;

    /** Number of instructions actually removed (deletions only). */
    std::size_t removed = 0;

    int translate(int old_idx) const { return oldToNew.at(old_idx); }
};

/**
 * Remove every instruction whose 'marked' bit is set, remapping
 * branch targets forward to the first survivor. Marked runs that
 * would leave a branch target with no survivor after it (a marked
 * group ending the function) are unmarked and kept; 'marked' is
 * updated in place to reflect what was really deleted.
 */
RewriteMap deleteInstructions(isa::Function &fn,
                              std::vector<bool> &marked);

/** One block of instructions for insertInstructions() to splice in. */
struct Splice
{
    /** Pre-edit index the block goes in front of (0..size). */
    int pos = 0;
    std::vector<isa::Inst> insts;
    /**
     * Consulted for each branch whose target is exactly 'pos', with
     * the branch's pre-edit index: true retargets it past the block
     * (back edges), false leaves it entering the block (loop-entry
     * edges).
     */
    std::function<bool(int)> skipInserted;
};

/**
 * Insert every splice's block in front of its 'pos'; 'splices' must
 * be sorted by strictly ascending position. A branch target shifts by
 * the length of every block spliced at a lower index, and by the block
 * spliced at the target itself only when that splice's
 * skipInserted(branch) says so.
 * Targets of the inserted instructions themselves are taken as
 * already-final post-edit indices. The returned map reports where
 * each *pre-edit* instruction landed.
 */
RewriteMap insertInstructions(isa::Function &fn,
                              const std::vector<Splice> &splices);

} // namespace rest::analysis

#endif // REST_ANALYSIS_REWRITE_HH
