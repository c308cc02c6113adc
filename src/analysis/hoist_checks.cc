#include "analysis/hoist_checks.hh"

#include <algorithm>
#include <iterator>
#include <map>
#include <numeric>
#include <set>

#include "analysis/cfg.hh"
#include "analysis/dataflow.hh"
#include "analysis/dominators.hh"
#include "analysis/loops.hh"
#include "analysis/rewrite.hh"
#include "util/logging.hh"

namespace rest::analysis
{

using isa::Inst;

namespace
{

/**
 * True when the loop header can take a preheader spliced in front of
 * it: no in-loop predecessor may fall through into the header, or the
 * inserted code would execute on every iteration instead of once.
 */
bool
preheaderFeasible(const Cfg &cfg, const Loop &loop)
{
    const auto &blocks = cfg.blocks();
    const int hfirst = blocks[static_cast<std::size_t>(loop.header)].first;
    for (int p : blocks[static_cast<std::size_t>(loop.header)].preds) {
        if (!loop.contains(p))
            continue;
        const auto &pb = blocks[static_cast<std::size_t>(p)];
        if (pb.last + 1 == hfirst &&
            fallsThrough(cfg.function().insts[
                static_cast<std::size_t>(pb.last)].op))
            return false;
    }
    return true;
}

/**
 * What hoisting one loop's candidates moves: the in-loop groups that
 * go, and the preheader that replaces them.
 */
struct LoopHoist
{
    /** Pre-edit index of the header's first instruction. */
    int hfirst = -1;
    /** In-loop groups to delete, in instruction order. */
    std::vector<CheckGroup> cands;
    /** One preheader group per kept fact. */
    std::vector<CheckFact> kept;
    /** The preheader body. */
    std::vector<Inst> pre;
    /** Offset of each kept fact's group inside 'pre'. */
    std::vector<int> keptOffset;

    /** Index of the kept fact covering 'f', -1 if none. */
    int
    keptCovering(const CheckFact &f) const
    {
        for (std::size_t k = 0; k < kept.size(); ++k) {
            if (covers(kept[k], f))
                return static_cast<int>(k);
        }
        return -1;
    }
};

/**
 * The groups of 'loop' that may leave it: wholly inside one body
 * block, invariant base, fact anticipated at the header. Empty when
 * the loop has no clean preheader slot or clobbers shadow state.
 */
std::vector<CheckGroup>
candidates(const isa::Function &fn, const Cfg &cfg, const Loop &loop,
           const BackwardSolver<AnticipatedChecksDomain> &antic)
{
    if (!preheaderFeasible(cfg, loop))
        return {};

    // Loop-wide guards: any shadow-state clobber in the body makes
    // every verdict iteration-dependent (nothing hoists), and a
    // register defined in the body disqualifies facts based on it.
    std::set<isa::RegId> defined;
    for (int b : loop.blocks) {
        const auto &bb = cfg.blocks()[static_cast<std::size_t>(b)];
        for (int i = bb.first; i <= bb.last; ++i) {
            const Inst &inst = fn.insts[static_cast<std::size_t>(i)];
            if (clobbersShadowState(inst))
                return {};
            if (inst.rd != isa::noReg && inst.rd != isa::regZero)
                defined.insert(inst.rd);
        }
    }

    const auto &ant = antic.in(loop.header);
    if (!ant)
        return {}; // degenerate: no path from header reaches exit

    std::vector<CheckGroup> cands;
    for (int b : loop.blocks) {
        const auto &bb = cfg.blocks()[static_cast<std::size_t>(b)];
        for (int i = bb.first; i <= bb.last; ++i) {
            auto group = matchCheckGroup(fn, i);
            if (!group || group->end() > bb.last)
                continue;
            i = group->end();
            if (defined.count(group->fact.base) != 0)
                continue;
            if (!anyCovers(*ant, group->fact))
                continue;
            cands.push_back(*group);
        }
    }
    return cands;
}

/** Plan the preheader for a loop's (non-empty) candidates. */
LoopHoist
planLoop(const isa::Function &fn, int hfirst,
         std::vector<CheckGroup> cands)
{
    LoopHoist h;
    h.hfirst = hfirst;
    h.cands = std::move(cands);

    // One preheader group per fact, minus facts covered by a wider
    // kept fact (the preheader coalesces for free).
    std::set<CheckFact> facts;
    for (const CheckGroup &c : h.cands)
        facts.insert(c.fact);
    for (const CheckFact &f : facts) {
        bool covered = std::any_of(
            facts.begin(), facts.end(), [&](const CheckFact &g) {
                return !(g == f) && covers(g, f);
            });
        if (!covered)
            h.kept.push_back(f);
    }

    // The preheader body is a verbatim copy of one in-loop group per
    // kept fact (this keeps the shadow-base bias constant out of the
    // analysis layer: the copied AddI already carries it).
    for (const CheckFact &f : h.kept) {
        for (const CheckGroup &c : h.cands) {
            if (!(c.fact == f))
                continue;
            h.keptOffset.push_back(static_cast<int>(h.pre.size()));
            for (int k = 0; k < CheckGroup::length; ++k)
                h.pre.push_back(
                    fn.insts[static_cast<std::size_t>(c.at + k)]);
            break;
        }
    }
    return h;
}

/** The loops one round hoists, chosen on one analysis of 'fn'. */
struct RoundPlan
{
    std::vector<LoopHoist> hoists;
    /** For each instruction, the taken loop whose body holds it. */
    std::vector<int> loopOf;
};

/**
 * Analyze 'fn' once and take every loop that has candidates and whose
 * instruction range is disjoint from the loops already taken. No loop
 * taken means the fixpoint.
 *
 * Loops are visited outermost first, then by header, so a group
 * anticipated at an outer header leaves the whole nest in one move
 * instead of rippling through every level (and being counted once
 * per level). A nested loop always overlaps its parent, so once the
 * parent is taken the inner loop waits for a later round, which
 * analyzes the edited function afresh; the round bound is in
 * DESIGN.md §13. Disjoint loops do not interact — neither one's edit
 * touches the other's body, and the checks a preheader executes were
 * anticipated on every path through the loop anyway — so taking them
 * together gives the program that one loop per round would.
 */
RoundPlan
planRound(const isa::Function &fn)
{
    RoundPlan plan;
    Cfg cfg(fn);
    DomTree dom(cfg);
    LoopForest forest(cfg, dom);
    // Never transform irreducible control flow: a retreating edge
    // whose target does not dominate its source has no unique
    // preheader point, and guessing one could miscompile.
    if (forest.irreducible() || forest.loops().empty())
        return plan;
    BackwardSolver<AnticipatedChecksDomain> antic(
        cfg, AnticipatedChecksDomain(fn));

    std::vector<std::size_t> order(forest.loops().size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  const Loop &la = forest.loops()[a];
                  const Loop &lb = forest.loops()[b];
                  if (la.depth != lb.depth)
                      return la.depth < lb.depth;
                  return la.header < lb.header;
              });

    // The instruction ranges (first -> last) of the loops taken;
    // blocks are numbered in instruction order.
    std::map<int, int> taken;
    plan.loopOf.assign(fn.insts.size(), -1);
    const auto &blocks = cfg.blocks();
    for (std::size_t li : order) {
        const Loop &loop = forest.loops()[li];
        const int lo = blocks[static_cast<std::size_t>(
            *loop.blocks.begin())].first;
        const int hi = blocks[static_cast<std::size_t>(
            *loop.blocks.rbegin())].last;
        auto next = taken.upper_bound(hi);
        if (next != taken.begin() && std::prev(next)->second >= lo)
            continue; // overlaps a loop taken this round

        std::vector<CheckGroup> cands = candidates(fn, cfg, loop, antic);
        if (cands.empty())
            continue;
        taken.emplace(lo, hi);
        for (int b : loop.blocks) {
            const auto &bb = blocks[static_cast<std::size_t>(b)];
            std::fill(plan.loopOf.begin() + bb.first,
                      plan.loopOf.begin() + bb.last + 1,
                      static_cast<int>(plan.hoists.size()));
        }
        plan.hoists.push_back(planLoop(
            fn, blocks[static_cast<std::size_t>(loop.header)].first,
            std::move(cands)));
    }
    return plan;
}

/**
 * One round: plan it, apply every taken loop's edit as one rewrite
 * and fold it into 'res'. Returns false when nothing changed
 * (fixpoint).
 */
bool
hoistRound(isa::Function &fn, HoistResult &res)
{
    ++res.rounds;
    RoundPlan plan = planRound(fn);
    if (plan.hoists.empty())
        return false;
    std::vector<LoopHoist> &hoists = plan.hoists;
    const std::vector<int> &loopOf = plan.loopOf;
    const int old_n = static_cast<int>(fn.insts.size());

    // One deletion over every taken loop's candidates.
    std::vector<bool> marked(fn.insts.size(), false);
    for (const LoopHoist &lh : hoists) {
        for (const CheckGroup &c : lh.cands) {
            for (int k = 0; k < CheckGroup::length; ++k)
                marked[static_cast<std::size_t>(c.at + k)] = true;
        }
    }
    RewriteMap del = deleteInstructions(fn, marked);
    rest_assert(del.removed % CheckGroup::length == 0,
                "partial check group deleted in ", fn.name);

    std::vector<int> loopOfPost(fn.insts.size(), -1);
    for (int i = 0; i < old_n; ++i) {
        if (!marked[static_cast<std::size_t>(i)])
            loopOfPost[static_cast<std::size_t>(del.translate(i))] =
                loopOf[static_cast<std::size_t>(i)];
    }

    // One splice per preheader, in position order: loop-entry edges
    // fall into it, back edges (branches from inside the loop) skip
    // it. 'start' is where each preheader lands after the edit.
    std::vector<std::size_t> byPos(hoists.size());
    std::iota(byPos.begin(), byPos.end(), std::size_t{0});
    std::sort(byPos.begin(), byPos.end(),
              [&](std::size_t a, std::size_t b) {
                  return hoists[a].hfirst < hoists[b].hfirst;
              });
    std::vector<Splice> splices;
    std::vector<int> start(hoists.size());
    int inserted = 0;
    for (std::size_t h : byPos) {
        const int pos = del.translate(hoists[h].hfirst);
        start[h] = pos + inserted;
        inserted += static_cast<int>(hoists[h].pre.size());
        splices.push_back({pos, std::move(hoists[h].pre),
                           [&loopOfPost, h](int j) {
                               return loopOfPost[static_cast<
                                          std::size_t>(j)] ==
                                   static_cast<int>(h);
                           }});
    }
    RewriteMap ins = insertInstructions(fn, splices);
    auto translate = [&](int idx) {
        return ins.translate(del.translate(idx));
    };

    std::vector<std::vector<HoistRecord>> recs(hoists.size());
    for (std::size_t h = 0; h < hoists.size(); ++h) {
        const LoopHoist &lh = hoists[h];
        recs[h].resize(lh.kept.size());
        for (std::size_t k = 0; k < lh.kept.size(); ++k) {
            recs[h][k].fact = lh.kept[k];
            recs[h][k].preheaderAt = start[h] + lh.keptOffset[k];
        }
        for (const CheckGroup &c : lh.cands) {
            if (!marked[static_cast<std::size_t>(c.at)])
                continue; // rescued by the rewrite helper, not hoisted
            int k = lh.keptCovering(c.fact);
            rest_assert(k >= 0, "hoisted fact lost its preheader group "
                        "in ", fn.name);
            recs[h][static_cast<std::size_t>(k)].guardedSites.push_back(
                translate(c.at));
        }
    }

    // Re-base earlier records; a preheader group re-hoisted out of an
    // enclosing loop folds its sites into that loop's new record.
    std::vector<HoistRecord> updated;
    for (HoistRecord &old : res.records) {
        const auto at = static_cast<std::size_t>(old.preheaderAt);
        if (old.preheaderAt < old_n && marked[at]) {
            const auto h = static_cast<std::size_t>(loopOf[at]);
            int k = hoists[h].keptCovering(old.fact);
            rest_assert(k >= 0, "re-hoisted fact lost its "
                        "preheader group in ", fn.name);
            for (int s : old.guardedSites)
                recs[h][static_cast<std::size_t>(k)]
                    .guardedSites.push_back(translate(s));
            continue;
        }
        old.preheaderAt = translate(old.preheaderAt);
        for (int &s : old.guardedSites)
            s = translate(s);
        updated.push_back(std::move(old));
    }
    for (auto &loopRecs : recs) {
        for (HoistRecord &r : loopRecs)
            updated.push_back(std::move(r));
    }
    res.records = std::move(updated);
    res.hoisted += del.removed / CheckGroup::length;
    return true;
}

} // namespace

HoistResult
hoistLoopChecks(isa::Function &fn)
{
    HoistResult res;
    if (fn.insts.empty())
        return res;
    while (hoistRound(fn, res)) {
    }
    return res;
}

std::size_t
hoistLoopChecks(isa::Program &program)
{
    std::size_t count = 0;
    for (auto &fn : program.funcs)
        count += hoistLoopChecks(fn).hoisted;
    return count;
}

} // namespace rest::analysis
