/**
 * @file
 * Loop-invariant shadow-check hoisting.
 *
 * The elision pass removes a check dominated by an equivalent check;
 * it cannot touch the hot case — a check with a loop-invariant base
 * executed on every iteration. hoistLoopChecks() moves such groups
 * into a synthesized preheader so they execute once per loop *entry*
 * instead of once per iteration.
 *
 * A group in loop L hoists when all of:
 *
 *  1. its base register has no definition anywhere in L (the checked
 *     address is the same on every iteration),
 *  2. no instruction in L clobbers shadow state — the kill set shared
 *     with CheckFactsDomain (calls, runtime pseudo-ops, arm/disarm,
 *     instrumentation stores) — so the window's validity cannot
 *     change while the loop runs, and
 *  3. its fact is *anticipated* at the loop header (backward must-
 *     dataflow, AnticipatedChecksDomain): on every path from the
 *     header a check proving the fact executes before anything could
 *     invalidate it.
 *
 * (1)+(2) make the per-iteration verdict loop-invariant, so one
 * preheader check reports exactly what every deleted per-iteration
 * check would have (no detection is masked); (3) guarantees the
 * original program was going to execute such a check on every path
 * anyway (no detection is invented on an early-exit path). The full
 * argument is DESIGN.md §13.
 *
 * Functions with irreducible control flow, and loops whose header is
 * entered by fall-through from inside the loop (no clean preheader
 * splice point), are conservatively skipped.
 *
 * Every hoist is recorded so the verifier can re-prove, on the
 * transformed function, that the preheader group dominates each site
 * it replaced and that the hoisted window is still available there on
 * all paths (analysis/verifier.hh, verifyHoistedChecks()).
 */

#ifndef REST_ANALYSIS_HOIST_CHECKS_HH
#define REST_ANALYSIS_HOIST_CHECKS_HH

#include <cstddef>
#include <vector>

#include "analysis/check_facts.hh"
#include "isa/program.hh"

namespace rest::analysis
{

/** Audit record of one hoisted check group (post-transform indices). */
struct HoistRecord
{
    /** The window the preheader group proves. */
    CheckFact fact;
    /** Index of the hoisted group's leading instruction. */
    int preheaderAt = -1;
    /**
     * For each deleted in-loop group: the index of the first
     * surviving instruction after it (the access it guarded).
     */
    std::vector<int> guardedSites;
};

/** What hoistLoopChecks() did to one function. */
struct HoistResult
{
    /** Check groups removed from loop bodies. */
    std::size_t hoisted = 0;
    /** One record per live preheader group. */
    std::vector<HoistRecord> records;
    /**
     * Analyses run, the final one that found nothing included;
     * DESIGN.md §13 bounds it by the loop-nesting depth plus one.
     */
    std::size_t rounds = 0;
};

/** Hoist loop-invariant check groups of 'fn' into preheaders. */
HoistResult hoistLoopChecks(isa::Function &fn);

/** Program-wide hoisting; returns the total group count hoisted. */
std::size_t hoistLoopChecks(isa::Program &program);

} // namespace rest::analysis

#endif // REST_ANALYSIS_HOIST_CHECKS_HH
