#include <gtest/gtest.h>

#include <sstream>

#include "cpu/cpu_test_util.hh"
#include "cpu/o3_cpu.hh"

namespace rest::cpu
{

using test::MemSystem;
using test::OpStream;
using test::VectorTrace;

namespace
{

RunResult
runStream(OpStream &s, core::RestMode mode = core::RestMode::Secure,
          CpuConfig cfg = {})
{
    MemSystem ms;
    O3Cpu cpu(cfg, mode, *ms.l1i, *ms.l1d);
    VectorTrace trace(s.ops);
    return cpu.run(trace);
}

} // namespace

TEST(O3Cpu, IndependentAluThroughput)
{
    // Long enough that the one-time cold I-cache warmup (~2k cycles)
    // amortises away.
    OpStream s;
    const unsigned n = 60000;
    for (unsigned i = 0; i < n; ++i)
        s.alu(static_cast<isa::RegId>(1 + i % 8));
    RunResult r = runStream(s);
    EXPECT_EQ(r.committedOps, n);
    // 6 ALU units: IPC should be well above 3 and at most ~6.
    double ipc = double(n) / r.cycles;
    EXPECT_GT(ipc, 3.0);
    EXPECT_LE(ipc, 6.5);
}

TEST(O3Cpu, DependentChainSerializes)
{
    OpStream s;
    const unsigned n = 2000;
    for (unsigned i = 0; i < n; ++i)
        s.alu(1, 1); // r1 = r1 + ...
    RunResult r = runStream(s);
    // One op per cycle at best for a serial chain (plus the cold
    // I-cache warmup).
    EXPECT_GE(r.cycles, n);
    EXPECT_LT(r.cycles, n + 4000);
}

TEST(O3Cpu, LoadHitLatencyOnChain)
{
    OpStream s;
    // Pointer-chase style: each load's result feeds the next address
    // register (rs1 = rd), all hitting one warm line.
    s.load(0x1000, 1);
    const unsigned n = 2000;
    for (unsigned i = 0; i < n; ++i)
        s.load(0x1000, 1, 1);
    RunResult r = runStream(s);
    // Serial L1 hits: ~latency cycles each (plus cold-fetch warmup).
    EXPECT_GT(r.cycles, 2 * n);
    EXPECT_LT(r.cycles, 4 * n + 4000);
}

TEST(O3Cpu, MemPortLimitBindsIndependentLoads)
{
    OpStream s;
    const unsigned n = 20000;
    for (unsigned i = 0; i < n; ++i)
        s.load(0x1000 + 8 * (i % 8), static_cast<isa::RegId>(1 + i % 4));
    RunResult r = runStream(s);
    double ipc = double(n) / r.cycles;
    // 2 memory ports: IPC cannot exceed 2.
    EXPECT_LE(ipc, 2.1);
    EXPECT_GT(ipc, 1.0);
}

TEST(O3Cpu, StoresDoNotBlockCommitInSecureMode)
{
    OpStream a, b;
    const unsigned n = 2000;
    for (unsigned i = 0; i < n; ++i) {
        a.store(0x100000 + 64 * i); // every store a cold miss
        b.store(0x100000 + 64 * i);
    }
    RunResult secure = runStream(a, core::RestMode::Secure);
    RunResult debug = runStream(b, core::RestMode::Debug);
    // Debug holds commit until the write completes: dramatically
    // slower on a cold-store sweep (paper §III-B / §VI-B).
    EXPECT_GT(debug.cycles, secure.cycles * 3);
    MemSystem ms; // silence unused warnings in some configs
    (void)ms;
}

TEST(O3Cpu, DebugModeReportsPreciseViolations)
{
    OpStream s;
    s.alu(1);
    s.load(0x2000, 2).fault = isa::FaultKind::RestTokenAccess;
    s.alu(3);
    RunResult r = runStream(s, core::RestMode::Debug);
    ASSERT_TRUE(r.faulted());
    EXPECT_EQ(r.violation.kind, core::ViolationKind::TokenAccess);
    EXPECT_EQ(r.violation.precision, core::Precision::Precise);
    EXPECT_EQ(r.committedOps, 2u); // nothing after the fault commits
}

TEST(O3Cpu, SecureModeReportsImpreciseViolations)
{
    OpStream s;
    s.load(0x2000, 2).fault = isa::FaultKind::RestTokenAccess;
    RunResult r = runStream(s, core::RestMode::Secure);
    ASSERT_TRUE(r.faulted());
    EXPECT_EQ(r.violation.precision, core::Precision::Imprecise);
}

TEST(O3Cpu, MisalignedRestInstAlwaysPrecise)
{
    OpStream s;
    s.arm(0x1001).fault = isa::FaultKind::RestMisaligned;
    RunResult r = runStream(s, core::RestMode::Secure);
    ASSERT_TRUE(r.faulted());
    EXPECT_EQ(r.violation.kind,
              core::ViolationKind::MisalignedRestInst);
    EXPECT_EQ(r.violation.precision, core::Precision::Precise);
}

TEST(O3Cpu, LsqForwardingCounted)
{
    OpStream s;
    for (unsigned i = 0; i < 100; ++i) {
        s.store(0x3000, 2);
        s.load(0x3000, 1);
    }
    MemSystem ms;
    O3Cpu cpu({}, core::RestMode::Secure, *ms.l1i, *ms.l1d);
    VectorTrace trace(s.ops);
    cpu.run(trace);
    EXPECT_GT(cpu.statGroup().scalarValue("loads_forwarded"), 50u);
}

TEST(O3Cpu, LoadFromInflightArmRaises)
{
    OpStream s;
    s.arm(0x4000);
    s.load(0x4010, 1); // same granule, arm still in flight
    RunResult r = runStream(s);
    ASSERT_TRUE(r.faulted());
    EXPECT_EQ(r.violation.kind, core::ViolationKind::TokenForward);
}

TEST(O3Cpu, ArmThenMuchLaterLoadIsCacheProblemNotLsq)
{
    OpStream s;
    s.arm(0x5000);
    for (unsigned i = 0; i < 3000; ++i)
        s.alu(1, 1); // serial chain: the arm drains long before
    s.load(0x5010, 2); // hardware would fault via token bit; the
                       // functional fault bit is not set here, so the
                       // LSQ must NOT fire
    RunResult r = runStream(s);
    EXPECT_FALSE(r.faulted());
}

TEST(O3Cpu, BranchMispredictsCostCycles)
{
    Xoshiro256ss rng(3);
    OpStream predictable, random_stream;
    const unsigned n = 4000;
    for (unsigned i = 0; i < n; ++i) {
        predictable.branch(true);
        predictable.alu(1);
        random_stream.branch(rng.chance(0.5));
        random_stream.alu(1);
    }
    RunResult p = runStream(predictable);
    RunResult q = runStream(random_stream);
    EXPECT_GT(q.cycles, p.cycles * 2);
}

TEST(O3Cpu, OpsBySourceAttribution)
{
    OpStream s;
    s.alu(1).source = isa::OpSource::Program;
    s.alu(2).source = isa::OpSource::Allocator;
    s.alu(3).source = isa::OpSource::Allocator;
    s.alu(4).source = isa::OpSource::AccessCheck;
    RunResult r = runStream(s);
    EXPECT_EQ(r.opsBySource[unsigned(isa::OpSource::Program)], 1u);
    EXPECT_EQ(r.opsBySource[unsigned(isa::OpSource::Allocator)], 2u);
    EXPECT_EQ(r.opsBySource[unsigned(isa::OpSource::AccessCheck)], 1u);
}

TEST(O3Cpu, MaxOpsCapRespected)
{
    OpStream s;
    for (unsigned i = 0; i < 1000; ++i)
        s.alu(1);
    MemSystem ms;
    O3Cpu cpu({}, core::RestMode::Secure, *ms.l1i, *ms.l1d);
    VectorTrace trace(s.ops);
    RunResult r = cpu.run(trace, 100);
    EXPECT_EQ(r.committedOps, 100u);
}

// Pins of exact counts on stalls that exercise each occupancy
// structure at its limit: a change to how the IQ, SQ or FU buckets are
// represented must not move a single cycle.

TEST(O3Cpu, IqFullStormCountsPinned)
{
    // One DRAM-miss load feeds 200 dependents: they dispatch, sit in
    // the 64-entry IQ until the load returns, and dispatch stalls.
    // The leading ALU ops warm the I-cache so fetch keeps up.
    OpStream s;
    for (unsigned i = 0; i < 512; ++i)
        s.alu(static_cast<isa::RegId>(1 + i % 8));
    s.load(0x900000, 1);
    for (unsigned i = 0; i < 200; ++i)
        s.alu(static_cast<isa::RegId>(2 + i % 8), 1);
    MemSystem ms;
    O3Cpu cpu({}, core::RestMode::Secure, *ms.l1i, *ms.l1d);
    VectorTrace trace(s.ops);
    RunResult r = cpu.run(trace);
    EXPECT_EQ(cpu.statGroup().scalarValue("iq_full_stall_cycles"),
              539u);
    EXPECT_EQ(r.cycles, 2336u);
}

TEST(O3Cpu, SqFullStormCountsPinned)
{
    // 100 stores whose data waits on a DRAM-miss load, each to its
    // own cold line: the 32-entry SQ fills and dispatch stalls.
    OpStream s;
    for (unsigned i = 0; i < 512; ++i)
        s.alu(static_cast<isa::RegId>(1 + i % 8));
    s.load(0x900000, 1);
    for (unsigned i = 0; i < 100; ++i)
        s.store(0xa00000 + 64 * i, 1);
    MemSystem ms;
    O3Cpu cpu({}, core::RestMode::Secure, *ms.l1i, *ms.l1d);
    VectorTrace trace(s.ops);
    RunResult r = cpu.run(trace);
    EXPECT_EQ(cpu.statGroup().scalarValue("sq_full_stall_cycles"),
              791u);
    EXPECT_EQ(r.cycles, 2841u);
}

TEST(O3Cpu, BackToBackDividesHoldTheirUnit)
{
    // Dividers are not pipelined: each holds one of the two mul/div
    // units for its full latency, so independent divides issue two at
    // a time every 12 cycles.
    OpStream s;
    for (unsigned i = 0; i < 400; ++i) {
        isa::DynOp &op = s.alu(static_cast<isa::RegId>(1 + i % 8));
        op.op = isa::Opcode::Div;
        op.cls = isa::OpClass::IntDiv;
    }
    RunResult r = runStream(s);
    EXPECT_EQ(r.cycles, 3093u);
}

namespace
{

/**
 * A 20k-op stream that touches every piece of carried pipeline state:
 * store-to-load forwarding, DRAM misses, mispredicted branches,
 * dividers and in-flight arms.
 */
OpStream
mixedStream()
{
    Xoshiro256ss rng(21);
    auto reg = [&] { return static_cast<isa::RegId>(1 + rng.below(8)); };
    OpStream s;
    for (unsigned i = 0; i < 20000; ++i) {
        const unsigned kind = static_cast<unsigned>(rng.below(10));
        const isa::RegId rd = reg(), rs1 = reg(), rs2 = reg();
        const Addr slot = 8 * rng.below(4);
        switch (kind) {
          case 0:
            s.store(0x3000 + slot, rs2);
            break;
          case 1:
            s.load(0x3000 + slot, rd);
            break;
          case 2:
            s.load(0x200000 + 64 * rng.below(4096), rd, rs1);
            break;
          case 3:
            s.branch(rng.chance(0.5));
            break;
          case 4:
            if (rng.chance(0.1)) {
                isa::DynOp &op = s.alu(rd, rs1);
                op.op = isa::Opcode::Div;
                op.cls = isa::OpClass::IntDiv;
            } else {
                s.arm(0x800000 + 64 * (i % 1024));
            }
            break;
          default:
            s.alu(rd, rs1, rs2);
            break;
        }
    }
    return s;
}

/** Cycles and o3cpu stats dump of 'ops' run in slices of 'slice'. */
std::pair<Cycles, std::string>
runSliced(const OpStream &s, core::RestMode mode, std::uint64_t slice)
{
    MemSystem ms;
    O3Cpu cpu({}, mode, *ms.l1i, *ms.l1d);
    VectorTrace trace(s.ops);
    RunResult r;
    std::uint64_t done = 0;
    while (done < s.ops.size()) {
        r = cpu.run(trace, slice);
        EXPECT_FALSE(r.faulted());
        EXPECT_NE(r.committedOps, 0u);
        if (r.faulted() || r.committedOps == 0)
            break;
        done += r.committedOps;
    }
    std::ostringstream dump;
    cpu.statGroup().dump(dump);
    return {r.cycles, dump.str()};
}

} // namespace

// Multi-core machines run each core's O3 model in quanta, one run()
// call per quantum: every piece of pipeline state must carry across
// the call boundary, so slicing changes no number.
TEST(O3Cpu, SlicedRunMatchesOneRun)
{
    const OpStream s = mixedStream();
    for (core::RestMode mode :
         {core::RestMode::Secure, core::RestMode::Debug}) {
        auto whole = runSliced(s, mode, s.ops.size());
        EXPECT_GT(whole.first, 0u);
        for (std::uint64_t slice : {7u, 100u, 8192u}) {
            auto sliced = runSliced(s, mode, slice);
            EXPECT_EQ(sliced.first, whole.first) << "slice " << slice;
            EXPECT_EQ(sliced.second, whole.second) << "slice " << slice;
        }
    }
}

// The store queue outlives a run() call: a load in the next slice must
// still see an arm issued at the end of the previous one. The
// violation's seq stays local to the call that raised it.
TEST(O3Cpu, ArmInPreviousSliceStillTrapsLoad)
{
    OpStream s;
    for (unsigned i = 0; i < 10; ++i)
        s.alu(1);
    s.arm(0x4000);
    s.load(0x4010, 2);
    MemSystem ms;
    O3Cpu cpu({}, core::RestMode::Secure, *ms.l1i, *ms.l1d);
    VectorTrace trace(s.ops);
    RunResult first = cpu.run(trace, 11);
    EXPECT_FALSE(first.faulted());
    RunResult second = cpu.run(trace, 1);
    ASSERT_TRUE(second.faulted());
    EXPECT_EQ(second.violation.kind, core::ViolationKind::TokenForward);
    EXPECT_EQ(second.violation.seq, 0u);
}

// Sampled mode times every detailed window from an empty pipeline:
// resetPipeline() must restore every piece of transient state, so a
// core that ran a stream, was reset and runs it again times it exactly
// as a fresh core does. The caches are flushed and the stats cleared
// between the runs, and the stream's branches are returns with an
// empty return stack (always mispredicted, never predicted by TAGE),
// so only the pipeline state could tell the two cores apart.
TEST(O3Cpu, ResetPipelineMatchesFreshCore)
{
    OpStream s = mixedStream();
    for (isa::DynOp &op : s.ops) {
        if (op.isBranch) {
            op.op = isa::Opcode::Ret;
            op.taken = true;
            op.nextPc = 0x400000;
        }
    }
    for (core::RestMode mode :
         {core::RestMode::Secure, core::RestMode::Debug}) {
        MemSystem fresh_ms;
        O3Cpu fresh({}, mode, *fresh_ms.l1i, *fresh_ms.l1d);
        VectorTrace fresh_trace(s.ops);
        const RunResult want = fresh.run(fresh_trace);
        std::ostringstream want_dump;
        fresh.statGroup().dump(want_dump);

        MemSystem ms;
        O3Cpu cpu({}, mode, *ms.l1i, *ms.l1d);
        VectorTrace first(s.ops);
        EXPECT_EQ(cpu.run(first).cycles, want.cycles);
        cpu.resetPipeline();
        for (mem::Cache *c :
             {static_cast<mem::Cache *>(ms.l1i.get()),
              static_cast<mem::Cache *>(ms.l1d.get()), ms.l2.get()}) {
            c->flushAll();
            c->resetTiming();
        }
        cpu.statGroup().resetAll();
        VectorTrace second(s.ops);
        const RunResult got = cpu.run(second);
        std::ostringstream got_dump;
        cpu.statGroup().dump(got_dump);
        EXPECT_GT(got.cycles, 0u);
        EXPECT_EQ(got.cycles, want.cycles);
        EXPECT_EQ(got.committedOps, want.committedOps);
        EXPECT_EQ(got_dump.str(), want_dump.str());
    }
}

} // namespace rest::cpu
