#include "analysis/rewrite.hh"

#include <algorithm>
#include <iterator>

#include "analysis/cfg.hh"
#include "util/logging.hh"

namespace rest::analysis
{

using isa::Inst;

RewriteMap
deleteInstructions(isa::Function &fn, std::vector<bool> &marked)
{
    const int n = static_cast<int>(fn.insts.size());
    rest_assert(marked.size() == fn.insts.size(),
                "deletion mask size mismatch in ", fn.name);

    // Rescue branch targets that would be left with no survivor at or
    // after them: keep the contiguous marked run containing the
    // target (a whole trailing check group, when marks are
    // group-granular). Unmarking only creates survivors, so one pass
    // suffices.
    for (const Inst &inst : fn.insts) {
        if (!hasBranchTarget(inst.op) || inst.target < 0)
            continue;
        bool survivor = false;
        for (int i = inst.target; i < n; ++i) {
            if (!marked[static_cast<std::size_t>(i)]) {
                survivor = true;
                break;
            }
        }
        if (!survivor) {
            for (int i = inst.target;
                 i < n && marked[static_cast<std::size_t>(i)]; ++i)
                marked[static_cast<std::size_t>(i)] = false;
        }
    }

    // Assign post-edit slots to survivors.
    std::vector<int> direct(fn.insts.size(), -1);
    std::vector<Inst> out;
    out.reserve(fn.insts.size());
    for (int i = 0; i < n; ++i) {
        if (!marked[static_cast<std::size_t>(i)]) {
            direct[static_cast<std::size_t>(i)] =
                static_cast<int>(out.size());
            out.push_back(fn.insts[static_cast<std::size_t>(i)]);
        }
    }
    rest_assert(!out.empty(), "deleting every instruction of ", fn.name);

    RewriteMap map;
    map.removed = fn.insts.size() - out.size();
    map.oldToNew.resize(fn.insts.size());
    int next = static_cast<int>(out.size()) - 1;
    for (int i = n - 1; i >= 0; --i) {
        if (direct[static_cast<std::size_t>(i)] >= 0)
            next = direct[static_cast<std::size_t>(i)];
        map.oldToNew[static_cast<std::size_t>(i)] = next;
    }

    for (Inst &inst : out) {
        if (hasBranchTarget(inst.op) && inst.target >= 0)
            inst.target = map.oldToNew[
                static_cast<std::size_t>(inst.target)];
    }
    fn.insts = std::move(out);
    return map;
}

RewriteMap
insertInstructions(isa::Function &fn, const std::vector<Splice> &splices)
{
    const int n = static_cast<int>(fn.insts.size());

    // before[s]: instructions inserted by the splices ahead of s.
    std::vector<int> before(splices.size() + 1, 0);
    for (std::size_t s = 0; s < splices.size(); ++s) {
        const int pos = splices[s].pos;
        rest_assert(pos >= 0 && pos <= n &&
                        (s == 0 || pos > splices[s - 1].pos),
                    "splice position ", pos, " out of order or range in ",
                    fn.name);
        before[s + 1] =
            before[s] + static_cast<int>(splices[s].insts.size());
    }

    // A pre-edit index lands behind every block spliced at or before
    // it.
    RewriteMap map;
    map.oldToNew.resize(fn.insts.size());
    std::size_t ahead = 0;
    for (int i = 0; i < n; ++i) {
        while (ahead < splices.size() && splices[ahead].pos <= i)
            ++ahead;
        map.oldToNew[static_cast<std::size_t>(i)] = i + before[ahead];
    }

    // Fill back to front, so each instruction moves up before its old
    // slot is overwritten. A target at a splice point steps back into
    // that block unless the branch site asks to skip it.
    fn.insts.resize(static_cast<std::size_t>(n + before.back()));
    std::size_t s = splices.size();
    for (int i = n; i >= 0; --i) {
        if (i < n) {
            Inst inst = fn.insts[static_cast<std::size_t>(i)];
            if (hasBranchTarget(inst.op) && inst.target >= 0) {
                const int t = inst.target;
                auto at = std::upper_bound(
                    splices.begin(), splices.end(), t,
                    [](int v, const Splice &sp) { return v < sp.pos; });
                inst.target = map.translate(t);
                if (at != splices.begin() && std::prev(at)->pos == t &&
                    !std::prev(at)->skipInserted(i))
                    inst.target -=
                        static_cast<int>(std::prev(at)->insts.size());
            }
            fn.insts[static_cast<std::size_t>(map.translate(i))] = inst;
        }
        if (s > 0 && splices[s - 1].pos == i) {
            --s;
            std::copy(splices[s].insts.begin(), splices[s].insts.end(),
                      fn.insts.begin() + i + before[s]);
        }
    }
    return map;
}

} // namespace rest::analysis
