/**
 * @file
 * Tests of loop-invariant check hoisting: the anticipated-checks
 * backward dataflow it rests on, which groups it may and may not move,
 * the audit trail the verifier re-proves, and end-to-end runs showing
 * hoisted programs execute strictly fewer dynamic check operations
 * with a byte-identical attack-detection verdict.
 */

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "analysis/check_facts.hh"
#include "analysis/dataflow.hh"
#include "analysis/elide_checks.hh"
#include "analysis/hoist_checks.hh"
#include "analysis/verifier.hh"
#include "common/test_util.hh"
#include "runtime/instrumentation.hh"
#include "runtime/protection_scheme.hh"
#include "workload/server_mix.hh"
#include "workload/spec_profiles.hh"

namespace rest::analysis
{

namespace
{

using isa::FuncBuilder;
using isa::Opcode;

constexpr isa::RegId r1 = 1, r2 = 2, r3 = 3, r4 = 4, r5 = 5, r6 = 6,
                      r7 = 7, r9 = 9, r13 = 13;

/** Instrument a single-function program with full ASan (no elision). */
isa::Program
instrumented(FuncBuilder &&b)
{
    isa::Program prog;
    prog.funcs.push_back(std::move(b).take());
    auto scheme = runtime::SchemeConfig::asanFull();
    runtime::applyScheme(prog, scheme);
    return prog;
}

/** Instrument and hoist; returns the group count moved. */
std::size_t
hoistCount(FuncBuilder &&b)
{
    isa::Program prog = instrumented(std::move(b));
    return hoistLoopChecks(prog.funcs[0]).hoisted;
}

/** A counted loop re-checking a loop-invariant base every iteration. */
FuncBuilder
invariantLoop()
{
    FuncBuilder b("main");
    b.movImm(r4, 10);
    int top = b.here();
    b.load(r1, r2, 0, 8);
    b.addI(r4, r4, -1);
    b.branch(Opcode::Bne, r4, isa::regZero, top);
    b.halt();
    return b;
}

} // namespace

// ---------------------------------------------------------------------
// The anticipated-checks backward dataflow
// ---------------------------------------------------------------------

namespace
{

/**
 * Anticipation state immediately after the first Program-tagged
 * conditional branch of the instrumented function: the meet over
 * everything that follows on all paths.
 */
AnticipatedChecksDomain::State
stateAfterFirstBranch(const isa::Function &fn)
{
    int branch_at = -1;
    for (std::size_t i = 0; i < fn.insts.size(); ++i) {
        if (fn.insts[i].op == Opcode::Beq &&
            fn.insts[i].tag == isa::OpSource::Program) {
            branch_at = static_cast<int>(i);
            break;
        }
    }
    EXPECT_GE(branch_at, 0) << "no program branch found";

    Cfg cfg(fn);
    BackwardSolver<AnticipatedChecksDomain> solver(
        cfg, AnticipatedChecksDomain(fn));
    AnticipatedChecksDomain::State at_branch;
    solver.scan(cfg.blockOf(branch_at),
                [&](const AnticipatedChecksDomain::State &st,
                    const isa::Inst &, int idx) {
                    if (idx == branch_at)
                        at_branch = st;
                });
    return at_branch;
}

} // namespace

TEST(AnticipatedChecks, CheckOnBothArmsIsAnticipated)
{
    // 0: beq ->3; 1: load [r2+0]8; 2: jmp ->4; 3: load [r2+0]8;
    // 4: join; 5: halt — the same window is checked on every path.
    FuncBuilder b("main");
    b.branch(Opcode::Beq, r1, isa::regZero, 3);
    b.load(r3, r2, 0, 8);
    b.jmp(4);
    b.load(r4, r2, 0, 8);
    b.addI(r13, r13, 1);
    b.halt();
    isa::Program prog = instrumented(std::move(b));

    auto st = stateAfterFirstBranch(prog.funcs[0]);
    ASSERT_TRUE(st.has_value());
    EXPECT_TRUE(anyCovers(*st, CheckFact{r2, 0, 8}));
}

TEST(AnticipatedChecks, CheckOnOneArmIsNotAnticipated)
{
    // The else arm never checks r2: the meet drops the fact.
    FuncBuilder b("main");
    b.branch(Opcode::Beq, r1, isa::regZero, 3);
    b.load(r3, r2, 0, 8);
    b.jmp(4);
    b.addI(r4, r4, 1);
    b.addI(r13, r13, 1);
    b.halt();
    isa::Program prog = instrumented(std::move(b));

    auto st = stateAfterFirstBranch(prog.funcs[0]);
    ASSERT_TRUE(st.has_value());
    EXPECT_FALSE(anyCovers(*st, CheckFact{r2, 0, 8}));
}

TEST(AnticipatedChecks, BaseRedefinitionBeforeCheckKillsFact)
{
    // Both arms redefine the base before checking it: the check that
    // follows proves nothing about the branch point's r2.
    FuncBuilder b("main");
    b.branch(Opcode::Beq, r1, isa::regZero, 4);
    b.addI(r2, r2, 8);
    b.load(r3, r2, 0, 8);
    b.jmp(6);
    b.addI(r2, r2, 8);
    b.load(r4, r2, 0, 8);
    b.addI(r13, r13, 1);
    b.halt();
    isa::Program prog = instrumented(std::move(b));

    auto st = stateAfterFirstBranch(prog.funcs[0]);
    ASSERT_TRUE(st.has_value());
    EXPECT_FALSE(anyCovers(*st, CheckFact{r2, 0, 8}));
}

// ---------------------------------------------------------------------
// What hoists and what must not
// ---------------------------------------------------------------------

TEST(HoistChecks, InvariantLoopCheckHoists)
{
    isa::Program prog = instrumented(invariantLoop());
    isa::Function &fn = prog.funcs[0];
    const std::size_t groups_before = findCheckGroups(fn).size();

    HoistResult res = hoistLoopChecks(fn);
    EXPECT_EQ(res.hoisted, 1u);
    ASSERT_EQ(res.records.size(), 1u);
    EXPECT_EQ(res.records[0].fact, (CheckFact{r2, 0, 8}));
    EXPECT_EQ(res.records[0].guardedSites.size(), 1u);
    // The group moved, it did not vanish.
    EXPECT_EQ(findCheckGroups(fn).size(), groups_before);

    // The audit trail re-proves on the transformed function...
    auto hdiags = verifyHoistedChecks(fn, 0, res.records);
    EXPECT_TRUE(hdiags.empty()) << formatDiagnostics(hdiags);
    // ...and the program still satisfies the coverage invariant.
    VerifyOptions opts;
    opts.expectAsanChecks = true;
    auto diags = verify(prog, opts);
    EXPECT_TRUE(diags.empty()) << formatDiagnostics(diags);
}

TEST(HoistChecks, BaseRedefinedInLoopDoesNotHoist)
{
    FuncBuilder b("main");
    b.movImm(r4, 10);
    int top = b.here();
    b.load(r1, r2, 0, 8);
    b.addI(r2, r2, 8); // walking pointer: not invariant
    b.addI(r4, r4, -1);
    b.branch(Opcode::Bne, r4, isa::regZero, top);
    b.halt();
    EXPECT_EQ(hoistCount(std::move(b)), 0u);
}

TEST(HoistChecks, CallInLoopDoesNotHoist)
{
    // A callee may repoison shadow state mid-loop: the per-iteration
    // verdict is not invariant and the group must stay.
    isa::Program prog;
    {
        FuncBuilder b("main");
        b.movImm(r4, 10);
        int top = b.here();
        b.load(r1, r2, 0, 8);
        b.call(1);
        b.addI(r4, r4, -1);
        b.branch(Opcode::Bne, r4, isa::regZero, top);
        b.halt();
        prog.funcs.push_back(std::move(b).take());
    }
    {
        FuncBuilder b("leaf");
        b.ret();
        prog.funcs.push_back(std::move(b).take());
    }
    auto scheme = runtime::SchemeConfig::asanFull();
    runtime::applyScheme(prog, scheme);
    EXPECT_EQ(hoistLoopChecks(prog.funcs[0]).hoisted, 0u);
}

TEST(HoistChecks, EarlyExitCheckIsNotAnticipatedAndStays)
{
    // 0: movi r4, 10
    // 1: beq r4, r0, ->5   <- loop header: may exit before checking
    // 2: load [r2+0]8
    // 3: addi r4, r4, -1
    // 4: bne r4, r0, ->1
    // 5: addi; 6: halt
    // Hoisting would check r2 on the iteration that immediately
    // exits — a detection the original program never raises.
    FuncBuilder b("main");
    b.movImm(r4, 10);
    b.branch(Opcode::Beq, r4, isa::regZero, 5);
    b.load(r1, r2, 0, 8);
    b.addI(r4, r4, -1);
    b.branch(Opcode::Bne, r4, isa::regZero, 1);
    b.addI(r13, r13, 1);
    b.halt();
    EXPECT_EQ(hoistCount(std::move(b)), 0u);
}

TEST(HoistChecks, IrreducibleFunctionIsLeftAlone)
{
    // The two-entry cycle from loops_test, now with a memory access
    // inside: the hoister must refuse the whole function.
    FuncBuilder b("main");
    b.branch(Opcode::Beq, r1, isa::regZero, 4);
    b.load(r3, r2, 0, 8);
    b.jmp(4);
    b.addI(r4, r4, 1);
    b.branch(Opcode::Bne, r4, isa::regZero, 1);
    b.halt();
    isa::Program prog = instrumented(std::move(b));
    isa::Function &fn = prog.funcs[0];
    const std::size_t size_before = fn.insts.size();

    EXPECT_EQ(hoistLoopChecks(fn).hoisted, 0u);
    EXPECT_EQ(fn.insts.size(), size_before);
}

TEST(HoistChecks, FallThroughHeaderEntryHasNoPreheaderSlot)
{
    // 0: jmp ->2; 1: load [r2+0]8 (body); 2: addi (header);
    // 3: bne ->1; 4: halt — the body block falls through into the
    // header, so no preheader can be spliced before it.
    FuncBuilder b("main");
    b.jmp(2);
    b.load(r1, r2, 0, 8);
    b.addI(r4, r4, -1);
    b.branch(Opcode::Bne, r4, isa::regZero, 1);
    b.halt();
    EXPECT_EQ(hoistCount(std::move(b)), 0u);
}

TEST(HoistChecks, NestedLoopCheckHoistsPastBothLoops)
{
    // The invariant check sits in the inner loop; outermost-first
    // rounds move it all the way out of the nest.
    FuncBuilder b("main");
    b.movImm(r3, 3);
    int outer = b.here();
    b.movImm(r4, 3);
    int inner = b.here();
    b.load(r1, r2, 0, 8);
    b.addI(r4, r4, -1);
    b.branch(Opcode::Bne, r4, isa::regZero, inner);
    b.addI(r3, r3, -1);
    b.branch(Opcode::Bne, r3, isa::regZero, outer);
    b.halt();

    isa::Program prog = instrumented(std::move(b));
    isa::Function &fn = prog.funcs[0];
    HoistResult res = hoistLoopChecks(fn);
    EXPECT_GE(res.hoisted, 1u);

    auto hdiags = verifyHoistedChecks(fn, 0, res.records);
    EXPECT_TRUE(hdiags.empty()) << formatDiagnostics(hdiags);
    VerifyOptions opts;
    opts.expectAsanChecks = true;
    auto diags = verify(prog, opts);
    EXPECT_TRUE(diags.empty()) << formatDiagnostics(diags);
}

namespace
{

/**
 * A sibling loop followed by a depth-3 nest. Each nest level walks
 * one base register, so each of the three checks in the innermost
 * body is invariant up to a different level:
 *
 *   sibling: check [r2+16]       (invariant in the sibling)
 *   L1:      r5 += 8
 *    L2:     r6 += 8
 *     L3:    check [r2+0]        (invariant in the whole nest)
 *            check [r5+0]        (invariant in L2 and L3)
 *            check [r6+0]        (invariant in L3 only)
 */
FuncBuilder
siblingAndDepth3Nest()
{
    FuncBuilder b("main");
    b.movImm(r9, 4);
    int sibling = b.here();
    b.load(r1, r2, 16, 8);
    b.addI(r9, r9, -1);
    b.branch(Opcode::Bne, r9, isa::regZero, sibling);

    b.movImm(r3, 3);
    int l1 = b.here();
    b.addI(r5, r5, 8);
    b.movImm(r4, 3);
    int l2 = b.here();
    b.addI(r6, r6, 8);
    b.movImm(r7, 3);
    int l3 = b.here();
    b.load(r1, r2, 0, 8);
    b.load(r1, r5, 0, 8);
    b.load(r1, r6, 0, 8);
    b.addI(r7, r7, -1);
    b.branch(Opcode::Bne, r7, isa::regZero, l3);
    b.addI(r4, r4, -1);
    b.branch(Opcode::Bne, r4, isa::regZero, l2);
    b.addI(r3, r3, -1);
    b.branch(Opcode::Bne, r3, isa::regZero, l1);
    b.halt();
    return b;
}

/** "base+offset:width@preheader->site,site" for each record. */
std::vector<std::string>
recordStrings(const HoistResult &res)
{
    std::vector<std::string> out;
    for (const HoistRecord &r : res.records) {
        std::string s = "r" + std::to_string(r.fact.base) + "+" +
            std::to_string(r.fact.offset) + ":" +
            std::to_string(r.fact.width) + "@" +
            std::to_string(r.preheaderAt) + "->";
        for (std::size_t i = 0; i < r.guardedSites.size(); ++i)
            s += (i ? "," : "") + std::to_string(r.guardedSites[i]);
        out.push_back(s);
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace

TEST(HoistChecks, Depth3NestHoistsEachCheckToItsOwnLevel)
{
    isa::Program prog = instrumented(siblingAndDepth3Nest());
    isa::Function &fn = prog.funcs[0];
    HoistResult res = hoistLoopChecks(fn);

    // Round 1 hoists the sibling and L1's [r2+0] together; L2 and L3
    // overlap L1 and wait. Round 2 takes L2, round 3 L3, and round 4
    // finds nothing: nesting depth + 1 analyses.
    EXPECT_EQ(res.rounds, 4u);
    EXPECT_EQ(res.hoisted, 4u);
    const std::vector<std::string> expected = {
        "r2+0:8@12->31",
        "r2+16:8@3->8",
        "r5+0:8@19->32",
        "r6+0:8@26->33",
    };
    EXPECT_EQ(recordStrings(res), expected);

    auto hdiags = verifyHoistedChecks(fn, 0, res.records);
    EXPECT_TRUE(hdiags.empty()) << formatDiagnostics(hdiags);
    VerifyOptions opts;
    opts.expectAsanChecks = true;
    auto diags = verify(prog, opts);
    EXPECT_TRUE(diags.empty()) << formatDiagnostics(diags);
}

TEST(HoistChecks, ServerHandlerSpinLoopsHoistInOneRound)
{
    // A server-mix handler is one long function with a spin loop per
    // hand-off wait: 64 requests at one hand-off per 8 give 8
    // produce and 8 consume loops, all siblings. One editing round
    // takes them all and a second finds nothing.
    workload::ServerMixConfig mix;
    mix.cores = 4;
    mix.requestsPerCore = 64;
    mix.seed = 1;
    isa::Program prog = std::move(workload::serverMix(mix)[0]);
    runtime::SchemeConfig scheme;
    std::string error;
    ASSERT_TRUE(runtime::parseSchemeSpec("asan+elide", scheme, error))
        << error;
    runtime::applyScheme(prog, scheme);
    ASSERT_EQ(prog.funcs.size(), 1u);
    isa::Function &fn = prog.funcs[0];

    HoistResult res = hoistLoopChecks(fn);
    EXPECT_EQ(res.hoisted, 16u);
    EXPECT_EQ(res.records.size(), 16u);
    EXPECT_EQ(res.rounds, 2u);
    auto hdiags = verifyHoistedChecks(fn, 0, res.records);
    EXPECT_TRUE(hdiags.empty()) << formatDiagnostics(hdiags);
}

TEST(HoistChecks, ComposesWithElision)
{
    // The pipeline order used by applyScheme: elide, then hoist.
    isa::Program prog = instrumented(invariantLoop());
    isa::Function &fn = prog.funcs[0];
    elideRedundantChecks(fn);
    HoistResult res = hoistLoopChecks(fn);
    EXPECT_EQ(res.hoisted, 1u);
    VerifyOptions opts;
    opts.expectAsanChecks = true;
    auto diags = verify(prog, opts);
    EXPECT_TRUE(diags.empty()) << formatDiagnostics(diags);
}

// ---------------------------------------------------------------------
// The post-hoist verifier mode catches tampered audit trails
// ---------------------------------------------------------------------

TEST(VerifyHoistedChecks, RejectsRecordPointingAtNonGroup)
{
    isa::Program prog = instrumented(invariantLoop());
    isa::Function &fn = prog.funcs[0];
    HoistResult res = hoistLoopChecks(fn);
    ASSERT_EQ(res.records.size(), 1u);

    HoistRecord bogus = res.records[0];
    bogus.preheaderAt = 0; // the frame setup, not a check group
    auto diags = verifyHoistedChecks(fn, 0, {bogus});
    ASSERT_FALSE(diags.empty());
    EXPECT_EQ(diags[0].kind, DiagKind::HoistedGroupMalformed);
}

TEST(VerifyHoistedChecks, RejectsWrongFact)
{
    isa::Program prog = instrumented(invariantLoop());
    isa::Function &fn = prog.funcs[0];
    HoistResult res = hoistLoopChecks(fn);
    ASSERT_EQ(res.records.size(), 1u);

    HoistRecord bogus = res.records[0];
    bogus.fact.width = 16; // claims a wider window than was proven
    auto diags = verifyHoistedChecks(fn, 0, {bogus});
    ASSERT_FALSE(diags.empty());
    EXPECT_EQ(diags[0].kind, DiagKind::HoistedGroupMalformed);
}

// ---------------------------------------------------------------------
// End-to-end: fewer dynamic checks, identical verdicts
// ---------------------------------------------------------------------

namespace
{

sim::SystemConfig
asanConfig(bool elide, bool hoist, bool coalesce = false)
{
    sim::SystemConfig cfg = sim::makeSystemConfig(sim::ExpConfig::Asan);
    cfg.scheme.elideRedundantChecks = elide;
    cfg.scheme.hoistLoopChecks = hoist;
    cfg.scheme.coalesceChecks = coalesce;
    return cfg;
}

std::uint64_t
dynamicCheckOps(const sim::SystemResult &result)
{
    return result.run.opsBySource[
        static_cast<unsigned>(isa::OpSource::AccessCheck)];
}

/** A heap loop whose loads re-check a constant malloc'd base. */
isa::Program
heapLoopProgram()
{
    FuncBuilder b("main");
    b.movImm(r13, 64);
    b.emit({Opcode::RtMalloc, isa::noReg, r13, isa::noReg, 8, 0, -1,
            -1});
    b.mov(r2, isa::regRet);
    b.movImm(r4, 50);
    int top = b.here();
    b.load(r3, r2, 0, 8);
    b.addI(r4, r4, -1);
    b.branch(Opcode::Bne, r4, isa::regZero, top);
    b.halt();
    isa::Program prog;
    prog.funcs.push_back(std::move(b).take());
    return prog;
}

} // namespace

TEST(HoistEndToEnd, LoopCheckExecutesOncePerEntryNotPerIteration)
{
    auto elided = test::runProgram(heapLoopProgram(),
                                   asanConfig(true, false));
    auto hoisted = test::runProgram(heapLoopProgram(),
                                    asanConfig(true, true));
    EXPECT_EQ(test::violationOf(elided), core::ViolationKind::None);
    EXPECT_EQ(test::violationOf(hoisted), core::ViolationKind::None);

    EXPECT_GT(hoisted.instrumentation.accessChecksHoisted, 0u);
    // 50 iterations collapse to one preheader execution: the hoisted
    // run performs strictly fewer dynamic check ops.
    EXPECT_LT(dynamicCheckOps(hoisted), dynamicCheckOps(elided));
}

TEST(HoistEndToEnd, GeneratedBenchmarksExecuteStrictlyFewerChecks)
{
    // The headline acceptance criterion: on loop-heavy generated
    // benchmarks, asan+elide+hoist executes strictly fewer dynamic
    // access-check operations than asan+elide.
    for (const char *bench : {"hmmer", "libquantum", "lbm"}) {
        workload::BenchProfile profile =
            workload::profileByName(bench);
        profile.targetKiloInsts = 50;

        auto elided = test::runProgram(workload::generate(profile),
                                       asanConfig(true, false));
        auto hoisted = test::runProgram(workload::generate(profile),
                                        asanConfig(true, true));
        EXPECT_EQ(test::violationOf(elided),
                  core::ViolationKind::None) << bench;
        EXPECT_EQ(test::violationOf(hoisted),
                  core::ViolationKind::None) << bench;
        EXPECT_GT(hoisted.instrumentation.accessChecksHoisted, 0u)
            << bench;
        EXPECT_LT(dynamicCheckOps(hoisted), dynamicCheckOps(elided))
            << bench << ": hoisting must strictly reduce dynamic "
            << "check operations";
    }
}

TEST(HoistEndToEnd, DetectionMatrixIdenticalAcrossOptimizationLevels)
{
    // The tab1 guarantee: every attack scenario yields the same
    // violation verdict at every optimization level.
    struct Scenario
    {
        const char *name;
        isa::Program (*make)();
    };
    const Scenario scenarios[] = {
        {"heartbleed",
         [] { return workload::attacks::heartbleed(64, 256); }},
        {"heap-overflow",
         [] { return workload::attacks::heapOverflowWrite(64, 64); }},
        {"heap-underflow",
         [] { return workload::attacks::heapUnderflowRead(64, 8); }},
        {"uaf", [] { return workload::attacks::useAfterFree(128); }},
        {"double-free",
         [] { return workload::attacks::doubleFree(64); }},
        {"stack-overflow",
         [] { return workload::attacks::stackOverflowWrite(16, 32); }},
        {"strcpy-overflow",
         [] { return workload::attacks::strcpyOverflow(32, 150); }},
    };

    for (const Scenario &s : scenarios) {
        const auto baseline = test::violationOf(test::runProgram(
            s.make(), asanConfig(false, false)));
        EXPECT_NE(baseline, core::ViolationKind::None) << s.name;
        const auto hoist = test::violationOf(test::runProgram(
            s.make(), asanConfig(true, true)));
        const auto full = test::violationOf(test::runProgram(
            s.make(), asanConfig(true, true, true)));
        EXPECT_EQ(baseline, hoist)
            << s.name << ": hoisting changed the verdict";
        EXPECT_EQ(baseline, full)
            << s.name << ": coalescing changed the verdict";
    }
}

TEST(HoistEndToEnd, VerifierAcceptsEveryOptimizedBenchmark)
{
    for (const workload::BenchProfile &base : workload::specSuite()) {
        workload::BenchProfile profile = base;
        profile.targetKiloInsts = 20;
        isa::Program prog = workload::generate(profile);

        auto scheme = runtime::SchemeConfig::asanFull();
        scheme.elideRedundantChecks = true;
        scheme.hoistLoopChecks = true;
        scheme.coalesceChecks = true;
        runtime::applyScheme(prog, scheme);

        VerifyOptions opts;
        opts.expectAsanChecks = true;
        auto diags = verify(prog, opts);
        EXPECT_TRUE(diags.empty())
            << profile.name << ":\n" << formatDiagnostics(diags);
    }
}

// ---------------------------------------------------------------------
// The optimized programs themselves are pinned
// ---------------------------------------------------------------------

namespace
{

/** 64-bit FNV-1a, folded over successive byte strings. */
std::uint64_t
fnv1a(std::uint64_t h, const std::string &bytes)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** What one scheme spec made of one program. */
struct Pinned
{
    std::uint64_t digest;
    std::uint64_t elided;
    std::uint64_t hoisted;
    std::uint64_t coalesced;

    bool
    operator==(const Pinned &o) const
    {
        return digest == o.digest && elided == o.elided &&
            hoisted == o.hoisted && coalesced == o.coalesced;
    }
};

Pinned
optimize(isa::Program prog, const std::string &spec)
{
    runtime::SchemeConfig scheme;
    std::string error;
    EXPECT_TRUE(runtime::parseSchemeSpec(spec, scheme, error)) << error;
    runtime::InstrumentationSummary sum =
        runtime::applyScheme(prog, scheme);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const isa::Function &fn : prog.funcs) {
        h = fnv1a(h, fn.name + ":\n");
        for (const isa::Inst &inst : fn.insts)
            h = fnv1a(h, inst.toString() + "\n");
    }
    return {h, sum.accessChecksElided, sum.accessChecksHoisted,
            sum.accessChecksCoalesced};
}

} // namespace

TEST(HoistChecks, OptimizedProgramsPinned)
{
    // Every +hoist spec over every SPEC profile and two server mixes:
    // a change to the hoister (or to what it composes with) that moves
    // one instruction of one program shows up here.
    const char *specs[] = {"asan+hoist", "asan+elide+hoist",
                           "asan+elide+hoist+coalesce"};
    struct Case
    {
        std::string name;
        isa::Program prog;
    };
    std::vector<Case> cases;
    for (workload::BenchProfile profile : workload::specSuite()) {
        profile.seed = 1;
        cases.push_back({profile.name, workload::generate(profile)});
    }
    for (std::uint64_t seed : {1, 7}) {
        workload::ServerMixConfig mix;
        mix.cores = 4;
        mix.requestsPerCore = 64;
        mix.seed = seed;
        std::vector<isa::Program> handlers = workload::serverMix(mix);
        for (std::size_t c = 0; c < handlers.size(); ++c)
            cases.push_back({"server" + std::to_string(seed) + "." +
                                 std::to_string(c),
                             std::move(handlers[c])});
    }

    // {digest, elided, hoisted, coalesced} per case, one column per
    // spec in the order above.
    const std::map<std::string, std::array<Pinned, 3>> expected = {
        {"bzip2",
         {{{0x6c8ddf89108b4b4aull, 0, 8, 0},
           {0xd5d4f739e8292651ull, 11, 4, 0},
           {0xdb6920c9db7657bbull, 11, 4, 2}}}},
        {"gobmk",
         {{{0xb808400faca99875ull, 0, 12, 0},
           {0x65e4f1662fe7f2eeull, 16, 6, 0},
           {0x4998f6cddabbf2e1ull, 16, 6, 4}}}},
        {"gcc",
         {{{0x073757feec34e997ull, 0, 12, 0},
           {0x1b0dc7b7fcb29debull, 13, 6, 0},
           {0xb9f9fc0f2e93944eull, 13, 6, 11}}}},
        {"libquantum",
         {{{0x436a72bf613d2674ull, 0, 8, 0},
           {0x01beaa13877d2ce6ull, 11, 4, 0},
           {0xbaed206685d54a7dull, 11, 4, 3}}}},
        {"astar",
         {{{0x016ac445b3374c64ull, 0, 8, 0},
           {0x5fbf5df2e6281397ull, 9, 4, 0},
           {0xa038b532389e8d0dull, 9, 4, 2}}}},
        {"h264ref",
         {{{0xc8d79420dfdace82ull, 0, 8, 0},
           {0xc3c65d50b9c63276ull, 11, 4, 0},
           {0xe14331b975f3cbadull, 11, 4, 5}}}},
        {"lbm",
         {{{0x04f11dcd950dee1full, 0, 8, 0},
           {0x8ed22111852df802ull, 13, 4, 0},
           {0x31003317411677ecull, 13, 4, 4}}}},
        {"namd",
         {{{0xd31d7223b961b4e1ull, 0, 8, 0},
           {0x31f300725c0afc24ull, 9, 4, 0},
           {0x04a8c84b3cf69ebdull, 9, 4, 3}}}},
        {"sjeng",
         {{{0x8ecaead7d7df3bb4ull, 0, 12, 0},
           {0xfadcfa8c1afc5d7aull, 11, 6, 0},
           {0xda0c7f9aaafe38feull, 11, 6, 6}}}},
        {"soplex",
         {{{0x053579f3a60b2d6full, 0, 8, 0},
           {0xb164f8dededa6a2aull, 10, 4, 0},
           {0x20bb03138614e326ull, 10, 4, 5}}}},
        {"xalancbmk",
         {{{0xb4c4d0d31a92ac41ull, 0, 12, 0},
           {0x11276270239719c6ull, 17, 6, 0},
           {0x9ee33cdd1c649850ull, 17, 6, 11}}}},
        {"hmmer",
         {{{0x837fba450c121144ull, 0, 8, 0},
           {0x86a5d445dcc63292ull, 10, 4, 0},
           {0xf58f5cf1734740b1ull, 10, 4, 4}}}},
        {"server1.0",
         {{{0x9c4ae859d8272600ull, 0, 16, 0},
           {0x88e8ba53fc2c9e6cull, 80, 16, 0},
           {0x88e8ba53fc2c9e6cull, 80, 16, 0}}}},
        {"server1.1",
         {{{0x53bf6bc2c8994f0dull, 0, 16, 0},
           {0xb7362b908911a047ull, 80, 16, 0},
           {0xb7362b908911a047ull, 80, 16, 0}}}},
        {"server1.2",
         {{{0x1fafde1bcf081d4aull, 0, 16, 0},
           {0xb51f4567fbf622a1ull, 80, 16, 0},
           {0xb51f4567fbf622a1ull, 80, 16, 0}}}},
        {"server1.3",
         {{{0x6c66be784dbc6aeaull, 0, 16, 0},
           {0xfed03739b9e2a2b0ull, 80, 16, 0},
           {0xfed03739b9e2a2b0ull, 80, 16, 0}}}},
        {"server7.0",
         {{{0x945d34172d251a1cull, 0, 16, 0},
           {0x784ccb76f8a25ddfull, 80, 16, 0},
           {0x784ccb76f8a25ddfull, 80, 16, 0}}}},
        {"server7.1",
         {{{0x2c17630113c51507ull, 0, 16, 0},
           {0xf75716d32ce4fbcfull, 80, 16, 0},
           {0xf75716d32ce4fbcfull, 80, 16, 0}}}},
        {"server7.2",
         {{{0x0fb56fea0e9fa747ull, 0, 16, 0},
           {0x35aa1afa9369969cull, 80, 16, 0},
           {0x35aa1afa9369969cull, 80, 16, 0}}}},
        {"server7.3",
         {{{0x68a5582ad8d46932ull, 0, 16, 0},
           {0xaa2108c7a0db5340ull, 80, 16, 0},
           {0xaa2108c7a0db5340ull, 80, 16, 0}}}},
    };

    for (const Case &c : cases) {
        auto it = expected.find(c.name);
        for (std::size_t s = 0; s < std::size(specs); ++s) {
            const Pinned got = optimize(c.prog, specs[s]);
            const bool ok = it != expected.end() && it->second[s] == got;
            EXPECT_TRUE(ok)
                << c.name << " under " << specs[s] << ": got {0x"
                << std::hex << got.digest << "ull, " << std::dec
                << got.elided << ", " << got.hoisted << ", "
                << got.coalesced << "}";
        }
    }
}

} // namespace rest::analysis
