#include "analysis/coalesce_checks.hh"

#include <algorithm>
#include <vector>

#include "analysis/cfg.hh"
#include "analysis/check_facts.hh"
#include "analysis/rewrite.hh"

namespace rest::analysis
{

using isa::Inst;
using isa::Opcode;
using isa::OpSource;

namespace
{

/**
 * The group being grown: its location and current (union) window.
 * 'at' < 0 means no group is pending.
 */
struct Pending
{
    int at = -1;
    CheckFact original;
    CheckFact window;
};

} // namespace

std::size_t
coalesceChecks(isa::Function &fn, const CoalesceOptions &opts)
{
    if (fn.insts.empty())
        return 0;
    Cfg cfg(fn);

    std::vector<bool> marked(fn.insts.size(), false);
    struct Widen
    {
        int at;
        CheckFact window;
    };
    std::vector<Widen> widens;
    std::size_t merged = 0;

    for (int b : cfg.rpo()) {
        const auto &bb = cfg.blocks()[static_cast<std::size_t>(b)];
        Pending pending;
        auto flush = [&]() {
            if (pending.at >= 0 && !(pending.window == pending.original))
                widens.push_back({pending.at, pending.window});
            pending = Pending{};
        };

        for (int i = bb.first; i <= bb.last; ++i) {
            auto group = matchCheckGroup(fn, i);
            if (group && group->end() <= bb.last) {
                const CheckFact &f = group->fact;
                if (pending.at >= 0 && pending.window.base == f.base) {
                    std::int64_t lo =
                        std::min(pending.window.offset, f.offset);
                    std::int64_t hi = std::max(
                        pending.window.offset + pending.window.width,
                        f.offset + f.width);
                    bool touching =
                        f.offset <=
                            pending.window.offset + pending.window.width &&
                        pending.window.offset <= f.offset + f.width;
                    if (touching && hi - lo <= 255) {
                        for (int k = 0; k < CheckGroup::length; ++k)
                            marked[static_cast<std::size_t>(
                                group->at + k)] = true;
                        pending.window.offset = lo;
                        pending.window.width =
                            static_cast<std::uint8_t>(hi - lo);
                        ++merged;
                        i = group->end();
                        continue;
                    }
                }
                flush();
                pending = Pending{group->at, f, f};
                i = group->end();
                continue;
            }

            const Inst &inst = fn.insts[static_cast<std::size_t>(i)];
            if (pending.at < 0)
                continue;
            bool base_redefined = inst.rd != isa::noReg &&
                inst.rd != isa::regZero &&
                inst.rd == pending.window.base;
            bool program_access = !opts.acrossAccesses &&
                (inst.op == Opcode::Load || inst.op == Opcode::Store) &&
                inst.tag == OpSource::Program;
            if (clobbersShadowState(inst) || base_redefined ||
                program_access)
                flush();
        }
        flush();
    }
    if (merged == 0)
        return 0;

    // Widen the surviving groups (leading AddI immediate = union
    // start, trailing AsanCheck width = union width), then drop the
    // merged-away groups through the shared rewrite helper.
    for (const Widen &w : widens) {
        fn.insts[static_cast<std::size_t>(w.at)].imm = w.window.offset;
        fn.insts[static_cast<std::size_t>(
                     w.at + CheckGroup::length - 1)]
            .width = w.window.width;
    }
    RewriteMap del = deleteInstructions(fn, marked);
    return del.removed / static_cast<std::size_t>(CheckGroup::length);
}

std::size_t
coalesceChecks(isa::Program &program, const CoalesceOptions &opts)
{
    std::size_t count = 0;
    for (auto &fn : program.funcs)
        count += coalesceChecks(fn, opts);
    return count;
}

} // namespace rest::analysis
