#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include "core/rest_engine.hh"
#include "runtime/instrumentation.hh"
#include "runtime/libc_allocator.hh"
#include "runtime/protection_scheme.hh"
#include "sim/emulator.hh"
#include "sim/system.hh"
#include "util/random.hh"
#include "workload/attack_scenarios.hh"
#include "workload/spec_profiles.hh"

namespace rest::sim
{

using isa::FuncBuilder;
using isa::Opcode;

class EmulatorTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Xoshiro256ss rng(1);
        tcr.writePrivileged(
            core::TokenValue::generate(rng,
                                       core::TokenWidth::Bytes64),
            core::RestMode::Secure);
        engine = std::make_unique<core::RestEngine>(tcr);
        allocator = std::make_unique<runtime::LibcAllocator>(memory);
    }

    /** Finalise and wrap a program in an emulator. */
    std::unique_ptr<Emulator>
    make(isa::Program prog,
         runtime::SchemeConfig scheme = runtime::SchemeConfig::plain())
    {
        runtime::applyScheme(prog, scheme, tcr.granule());
        program = std::move(prog);
        return std::make_unique<Emulator>(program, memory, *engine,
                                          *allocator, scheme);
    }

    /** Drain the op stream; return the number of ops. */
    std::uint64_t
    drain(Emulator &emu)
    {
        isa::DynOp op;
        std::uint64_t n = 0;
        while (emu.next(op))
            ++n;
        return n;
    }

    mem::GuestMemory memory;
    core::TokenConfigRegister tcr;
    std::unique_ptr<core::RestEngine> engine;
    std::unique_ptr<runtime::LibcAllocator> allocator;
    isa::Program program;
};

TEST_F(EmulatorTest, AluAndImmediates)
{
    FuncBuilder b("main");
    b.movImm(1, 40);
    b.addI(2, 1, 2);
    b.alu(Opcode::Add, 3, 1, 2);
    b.alu(Opcode::Sub, 4, 3, 1);
    b.alu(Opcode::Mul, 5, 2, 2);
    b.halt();
    isa::Program prog;
    prog.funcs.push_back(std::move(b).take());
    auto emu = make(std::move(prog));
    drain(*emu);
    EXPECT_EQ(emu->reg(1), 40u);
    EXPECT_EQ(emu->reg(2), 42u);
    EXPECT_EQ(emu->reg(3), 82u);
    EXPECT_EQ(emu->reg(4), 42u);
    EXPECT_EQ(emu->reg(5), 42u * 42u);
}

TEST_F(EmulatorTest, RegisterZeroIsHardwired)
{
    FuncBuilder b("main");
    b.movImm(0, 99);
    b.alu(Opcode::Add, 1, 0, 0);
    b.halt();
    isa::Program prog;
    prog.funcs.push_back(std::move(b).take());
    auto emu = make(std::move(prog));
    drain(*emu);
    EXPECT_EQ(emu->reg(0), 0u);
    EXPECT_EQ(emu->reg(1), 0u);
}

TEST_F(EmulatorTest, LoadsAndStores)
{
    FuncBuilder b("main");
    b.movImm(1, 0x10000000);
    b.movImm(2, 0xdead);
    b.store(2, 1, 8, 8);
    b.load(3, 1, 8, 8);
    b.load(4, 1, 8, 2);
    b.halt();
    isa::Program prog;
    prog.funcs.push_back(std::move(b).take());
    auto emu = make(std::move(prog));
    drain(*emu);
    EXPECT_EQ(emu->reg(3), 0xdeadu);
    EXPECT_EQ(emu->reg(4), 0xdeadu);
    EXPECT_EQ(memory.read(0x10000008, 8), 0xdeadu);
}

TEST_F(EmulatorTest, LoopExecutesCorrectTripCount)
{
    FuncBuilder b("main");
    b.movImm(1, 10);
    b.movImm(2, 0);
    int loop = b.here();
    b.addI(2, 2, 3);
    b.addI(1, 1, -1);
    b.branch(Opcode::Bne, 1, isa::regZero, loop);
    b.halt();
    isa::Program prog;
    prog.funcs.push_back(std::move(b).take());
    auto emu = make(std::move(prog));
    drain(*emu);
    EXPECT_EQ(emu->reg(2), 30u);
}

TEST_F(EmulatorTest, CallAndReturnPreserveFrame)
{
    isa::Program prog;
    {
        FuncBuilder b("main");
        b.movImm(1, 7);
        b.call(1);
        b.alu(Opcode::Add, 3, 1, isa::regRet);
        b.halt();
        prog.funcs.push_back(std::move(b).take());
    }
    {
        FuncBuilder b("callee");
        b.movImm(isa::regRet, 5);
        b.ret();
        prog.funcs.push_back(std::move(b).take());
    }
    auto emu = make(std::move(prog));
    drain(*emu);
    EXPECT_EQ(emu->reg(3), 12u);
}

TEST_F(EmulatorTest, MallocExpandsToInjectedOps)
{
    FuncBuilder b("main");
    b.movImm(1, 64);
    b.emit({Opcode::RtMalloc, isa::noReg, 1, isa::noReg, 8, 0, -1,
            -1});
    b.mov(2, isa::regRet);
    b.halt();
    isa::Program prog;
    prog.funcs.push_back(std::move(b).take());
    auto emu = make(std::move(prog));

    isa::DynOp op;
    bool saw_allocator_op = false;
    while (emu->next(op))
        saw_allocator_op |=
            (op.source == isa::OpSource::Allocator);
    EXPECT_TRUE(saw_allocator_op);
    EXPECT_NE(emu->reg(2), 0u);
    EXPECT_EQ(allocator->liveAllocations(), 1u);
}

TEST_F(EmulatorTest, ProgramArmDisarmUpdateEngine)
{
    FuncBuilder b("main");
    b.movImm(1, 0x10000040);
    b.emit({Opcode::Arm, isa::noReg, 1, isa::noReg, 8, 0, -1, -1});
    b.movImm(2, 1); // marker: reached past the arm
    b.emit({Opcode::Disarm, isa::noReg, 1, isa::noReg, 8, 0, -1, -1});
    b.movImm(3, 1);
    b.halt();
    isa::Program prog;
    prog.funcs.push_back(std::move(b).take());
    auto emu = make(std::move(prog));
    drain(*emu);
    EXPECT_EQ(emu->faultKind(), isa::FaultKind::None);
    EXPECT_EQ(engine->armsExecuted(), 1u);
    EXPECT_EQ(engine->disarmsExecuted(), 1u);
    EXPECT_EQ(emu->reg(3), 1u);
    // Disarm zeroed the granule.
    EXPECT_EQ(memory.read(0x10000040, 8), 0u);
}

TEST_F(EmulatorTest, MisalignedArmFaults)
{
    FuncBuilder b("main");
    b.movImm(1, 0x10000004);
    b.emit({Opcode::Arm, isa::noReg, 1, isa::noReg, 8, 0, -1, -1});
    b.halt();
    isa::Program prog;
    prog.funcs.push_back(std::move(b).take());
    auto emu = make(std::move(prog));
    drain(*emu);
    EXPECT_EQ(emu->faultKind(), isa::FaultKind::RestMisaligned);
}

TEST_F(EmulatorTest, TokenAccessFaultStopsStream)
{
    FuncBuilder b("main");
    b.movImm(1, 0x10000040);
    b.emit({Opcode::Arm, isa::noReg, 1, isa::noReg, 8, 0, -1, -1});
    b.load(2, 1, 0, 8); // touches the token
    b.movImm(3, 1);     // must never execute
    b.halt();
    isa::Program prog;
    prog.funcs.push_back(std::move(b).take());
    auto emu = make(std::move(prog));

    isa::DynOp op;
    isa::FaultKind last = isa::FaultKind::None;
    while (emu->next(op))
        last = op.fault;
    EXPECT_EQ(last, isa::FaultKind::RestTokenAccess);
    EXPECT_EQ(emu->reg(3), 0u);
}

TEST_F(EmulatorTest, PcsAreStablePerInstruction)
{
    FuncBuilder b("main");
    b.movImm(1, 3);
    int loop = b.here();
    b.addI(1, 1, -1);
    b.branch(Opcode::Bne, 1, isa::regZero, loop);
    b.halt();
    isa::Program prog;
    prog.funcs.push_back(std::move(b).take());
    auto emu = make(std::move(prog));

    isa::DynOp op;
    std::map<Addr, unsigned> pc_counts;
    while (emu->next(op))
        ++pc_counts[op.pc];
    // The loop body PC appears exactly 3 times.
    bool found_tripled = false;
    for (auto &[pc, count] : pc_counts)
        found_tripled |= (count == 3);
    EXPECT_TRUE(found_tripled);
}

TEST_F(EmulatorTest, BranchOpsCarryResolvedOutcome)
{
    FuncBuilder b("main");
    b.movImm(1, 2);
    int loop = b.here();
    b.addI(1, 1, -1);
    b.branch(Opcode::Bne, 1, isa::regZero, loop);
    b.halt();
    isa::Program prog;
    prog.funcs.push_back(std::move(b).take());
    auto emu = make(std::move(prog));

    isa::DynOp op;
    std::vector<bool> outcomes;
    while (emu->next(op)) {
        if (op.isBranch)
            outcomes.push_back(op.taken);
    }
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_TRUE(outcomes[0]);  // loop back once
    EXPECT_FALSE(outcomes[1]); // then fall through
}

namespace
{

/** Every field of a DynOp, for whole-record comparison. */
auto
fields(const isa::DynOp &o)
{
    return std::tuple(o.seq, o.pc, o.op, o.cls, o.source, o.rd, o.rs1,
                      o.rs2, o.eaddr, o.size, o.isBranch, o.taken,
                      o.nextPc, o.fault);
}

/** A record with every field off its default, so a slot the emulator
 *  leaves partly unwritten cannot pass for a fresh op. */
isa::DynOp
poisoned()
{
    isa::DynOp o;
    o.seq = 0xdead;
    o.pc = 0xbad0;
    o.op = Opcode::Halt;
    o.cls = isa::OpClass::MemWrite;
    o.source = isa::OpSource::Interceptor;
    o.rd = o.rs1 = o.rs2 = 7;
    o.eaddr = 0x1234;
    o.size = 3;
    o.isBranch = o.taken = true;
    o.nextPc = 0xbad4;
    o.fault = isa::FaultKind::PauthCheckFailed;
    return o;
}

/** The stream of a System's emulator, drained with next() alone. */
std::vector<isa::DynOp>
drainNext(Emulator &emu)
{
    std::vector<isa::DynOp> ops;
    isa::DynOp op;
    while (emu.next(op))
        ops.push_back(op);
    return ops;
}

/** The same stream, pulled by next() interleaved with nextBatch(k)
 *  for k in {1, 3, 512} (0 in the pattern stands for next()). */
std::vector<isa::DynOp>
drainMixed(Emulator &emu)
{
    static constexpr std::size_t pattern[] = {0, 1, 3, 0, 512, 3, 1};
    std::vector<isa::DynOp> ops;
    for (std::size_t i = 0;; ++i) {
        const std::size_t k = pattern[i % std::size(pattern)];
        if (k == 0) {
            isa::DynOp op = poisoned();
            if (!emu.next(op))
                break;
            ops.push_back(op);
            continue;
        }
        const std::size_t before = ops.size();
        ops.resize(before + k, poisoned());
        const std::size_t n = emu.nextBatch(ops.data() + before, k);
        ops.resize(before + n);
        if (n < k)
            break; // a short batch: halt or fault
    }
    return ops;
}

} // namespace

TEST(Emulator, NextAndNextBatchYieldIdenticalStreams)
{
    using namespace workload::attacks;
    struct Case
    {
        std::string name;
        const char *spec;
        std::function<isa::Program()> build;
        bool faults;
    };
    // Specs as parseSchemeSpec names them: one per backend, asan with
    // every optimisation pass.
    const char *specs[] = {"plain", "asan+elide+hoist+coalesce", "rest",
                           "mte", "pauth"};
    std::vector<Case> cases;
    for (const char *name : {"gobmk", "bzip2"}) {
        for (const char *spec : specs) {
            cases.push_back({name, spec, [name] {
                auto p = workload::profileByName(name);
                p.targetKiloInsts = 10;
                return workload::generate(p);
            }, false});
        }
    }
    // One attack per backend; all but plain's end in a fault, raised
    // on a program op (rest, mte) or inside a runtime expansion
    // (asan's memcpy interceptor, pauth's free).
    cases.push_back({"heartbleed", "plain",
                     [] { return heartbleed(64, 256); }, false});
    cases.push_back({"heartbleed", "asan+elide+hoist+coalesce",
                     [] { return heartbleed(64, 256); }, true});
    cases.push_back({"heap-overflow", "rest",
                     [] { return heapOverflowWrite(64, 64); }, true});
    cases.push_back({"use-after-free", "mte",
                     [] { return useAfterFree(128); }, true});
    cases.push_back({"double-free", "pauth",
                     [] { return doubleFree(64); }, true});

    for (const Case &c : cases) {
        const std::string what = c.name + " under " + c.spec;
        SystemConfig cfg;
        std::string err;
        ASSERT_TRUE(runtime::parseSchemeSpec(c.spec, cfg.scheme, err))
            << err;
        System ref_sys(c.build(), cfg);
        System mixed_sys(c.build(), cfg);
        const std::vector<isa::DynOp> ref = drainNext(ref_sys.emulator());
        const std::vector<isa::DynOp> mixed =
            drainMixed(mixed_sys.emulator());

        ASSERT_FALSE(ref.empty()) << what;
        EXPECT_TRUE(std::any_of(ref.begin(), ref.end(), [](auto &op) {
            return op.source == isa::OpSource::Allocator;
        })) << what << ": no runtime expansion";
        EXPECT_EQ(ref.back().fault != isa::FaultKind::None, c.faults)
            << what;
        EXPECT_EQ(ref_sys.emulator().faultKind(), ref.back().fault)
            << what;
        EXPECT_EQ(mixed_sys.emulator().faultKind(), ref.back().fault)
            << what;
        ASSERT_EQ(ref.size(), mixed.size()) << what;
        for (std::size_t i = 0; i < ref.size(); ++i) {
            if (fields(ref[i]) != fields(mixed[i])) {
                ADD_FAILURE() << what << ": op " << i << " differs";
                break;
            }
        }

        // Drained stays drained, whichever entry point asks.
        isa::DynOp op;
        isa::DynOp buf[3];
        EXPECT_FALSE(mixed_sys.emulator().next(op)) << what;
        EXPECT_EQ(mixed_sys.emulator().nextBatch(buf, 3), 0u) << what;
    }
}

} // namespace rest::sim
