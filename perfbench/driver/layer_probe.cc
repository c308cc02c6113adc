#include "layer_probe.hh"

#include <algorithm>

#include "analysis/verifier.hh"
#include "core/rest_engine.hh"
#include "cpu/bpred.hh"
#include "cpu/o3_cpu.hh"
#include "mem/cache.hh"
#include "mem/rest_l1_cache.hh"
#include "runtime/instrumentation.hh"
#include "runtime/protection_scheme.hh"
#include "sim/fast_functional.hh"

namespace perfbench
{

using namespace rest;

namespace
{

/** Replays a recorded trace; rewind() starts it over. */
class RecordedTrace : public isa::TraceSource
{
  public:
    explicit RecordedTrace(const std::vector<isa::DynOp> &ops) : ops_(ops)
    {}

    void rewind() { pos_ = 0; }

    bool
    next(isa::DynOp &out) override
    {
        if (pos_ == ops_.size())
            return false;
        out = ops_[pos_++];
        return true;
    }

    std::size_t
    nextBatch(isa::DynOp *out, std::size_t max) override
    {
        const std::size_t n = std::min(max, ops_.size() - pos_);
        std::copy_n(ops_.begin() + long(pos_), n, out);
        pos_ += n;
        return n;
    }

  private:
    const std::vector<isa::DynOp> &ops_;
    std::size_t pos_ = 0;
};

/** The token register a machine built from 'cfg' would hold. */
void
installToken(core::TokenConfigRegister &tcr, const sim::SystemConfig &cfg)
{
    Xoshiro256ss rng(cfg.tokenSeed);
    tcr.writePrivileged(core::TokenValue::generate(rng, cfg.tokenWidth),
                        cfg.mode);
}

/** A private L1-I/REST L1-D/L2/DRAM hierarchy configured like 'cfg'. */
struct Hierarchy
{
    explicit Hierarchy(const sim::SystemConfig &cfg)
        : dram(cfg.dramConfig), l2(cfg.l2Config, dram),
          l1i(cfg.l1iConfig, l2), l1d(cfg.l1dConfig, l2, memory, tcr)
    {
        installToken(tcr, cfg);
    }

    mem::GuestMemory memory;
    core::TokenConfigRegister tcr;
    mem::Dram dram;
    mem::Cache l2;
    mem::Cache l1i;
    mem::RestL1Cache l1d;
};

bool
isConditional(isa::Opcode op)
{
    using isa::Opcode;
    return op == Opcode::Beq || op == Opcode::Bne || op == Opcode::Blt ||
           op == Opcode::Bge;
}

} // namespace

void
probeStaticLayers(LayerProbe &probe,
                  const std::vector<isa::Program> &programs,
                  const sim::SystemConfig &cfg)
{
    const unsigned granule = core::tokenBytes(cfg.tokenWidth);
    analysis::VerifyOptions opts;
    opts.expectAsanChecks = cfg.scheme.asanAccessChecks;
    opts.expectArming = cfg.scheme.restStackArming;
    opts.tokenGranule = granule;

    for (const isa::Program &program : programs) {
        isa::Program copy = program;
        {
            ProbeStep s(probe, "analysis.instrument", probe.instrumentS);
            runtime::applyScheme(copy, cfg.scheme, granule);
        }
        std::vector<analysis::Diagnostic> diags;
        {
            ProbeStep s(probe, "analysis.verify", probe.verifyS);
            diags = analysis::verify(copy, opts);
        }
        if (!diags.empty())
            probe.failures.push_back("verify: " + diags.front().toString());
    }

    mem::GuestMemory memory;
    core::TokenConfigRegister tcr;
    installToken(tcr, cfg);
    core::RestEngine engine(tcr);
    ProbeStep s(probe, "runtime.instantiate", probe.instantiateS);
    runtime::SchemeParts parts = runtime::schemeForConfig(cfg.scheme)
        .instantiate({memory, engine, cfg.scheme, cfg.tokenSeed});
}

std::vector<isa::DynOp>
recordTrace(LayerProbe &probe, const std::vector<sim::Emulator *> &emulators,
            std::uint64_t quantum)
{
    // Sized up front so the timed drain writes into existing storage.
    std::vector<isa::DynOp> trace(probe.opCap);
    std::size_t n = 0;
    {
        ProbeStep s(probe, "sim.emulate", probe.emulateS);
        std::vector<bool> drained(emulators.size(), false);
        std::size_t live = emulators.size();
        while (live != 0 && n < trace.size()) {
            for (std::size_t i = 0; i < emulators.size(); ++i) {
                if (drained[i] || n == trace.size())
                    continue;
                const std::size_t want =
                    std::min<std::size_t>(quantum, trace.size() - n);
                const std::size_t got =
                    emulators[i]->nextBatch(trace.data() + n, want);
                n += got;
                if (got < want) {
                    drained[i] = true;
                    --live;
                }
            }
        }
    }
    trace.resize(n);
    probe.emulatedOps += n;
    return trace;
}

void
replayTrace(LayerProbe &probe, const std::vector<isa::DynOp> &trace,
            const sim::SystemConfig &cfg)
{
    RecordedTrace src(trace);

    {
        sim::FastFunctional ff(cfg.mode);
        cpu::RunResult r;
        {
            ProbeStep s(probe, "sim.retire", probe.retireS);
            r = ff.run(src);
        }
        probe.retiredOps += r.committedOps;
        if (r.committedOps != trace.size())
            probe.failures.push_back("fast-functional replay retired " +
                                     std::to_string(r.committedOps) +
                                     " of " +
                                     std::to_string(trace.size()));
    }

    {
        Hierarchy h(cfg);
        cpu::O3Cpu o3(cfg.cpuConfig, cfg.mode, h.l1i, h.l1d);
        src.rewind();
        cpu::RunResult r;
        {
            ProbeStep s(probe, "cpu.o3", probe.o3S);
            r = o3.run(src);
        }
        probe.o3Ops += r.committedOps;
        if (r.faulted())
            probe.failures.push_back("O3 replay faulted: " +
                                     r.violation.toString());
    }

    {
        cpu::BranchPredictor bp;
        ProbeStep s(probe, "cpu.bpred", probe.bpredS);
        for (const isa::DynOp &op : trace) {
            if (!op.isBranch)
                continue;
            if (isConditional(op.op))
                bp.resolveConditional(op.pc, op.taken);
            else if (op.op == isa::Opcode::Call)
                bp.pushReturn(op.pc + 4);
            else if (op.op == isa::Opcode::Ret)
                bp.predictReturn(op.nextPc);
        }
        probe.branches += bp.corrects() + bp.mispredicts();
    }

    {
        Hierarchy h(cfg);
        std::uint64_t accesses = 0, faults = 0;
        {
            ProbeStep s(probe, "mem.access", probe.memS);
            Cycles now = 0;
            for (const isa::DynOp &op : trace) {
                mem::RestAccess r;
                const unsigned size = std::max<unsigned>(op.size, 1);
                if (op.isLoad())
                    r = h.l1d.loadAccess(op.eaddr, size, now);
                else if (op.isStore())
                    r = h.l1d.storeAccess(op.eaddr, size, now);
                else if (op.isArm())
                    r = h.l1d.armAccess(op.eaddr, now);
                else if (op.isDisarm())
                    r = h.l1d.disarmAccess(op.eaddr, now);
                else
                    continue;
                ++accesses;
                faults += r.faulted();
                // Blocking replay: the next access issues once this
                // one completes, so MSHRs never saturate.
                now = std::max(now + 1, r.completeAt);
            }
        }
        probe.memAccesses += accesses;
        if (faults != 0)
            probe.failures.push_back("cache replay faulted " +
                                     std::to_string(faults) + " times");
    }

    {
        core::TokenConfigRegister tcr;
        installToken(tcr, cfg);
        core::RestEngine engine(tcr);
        std::uint64_t checks = 0, faults = 0;
        {
            ProbeStep s(probe, "core.check", probe.coreS);
            for (const isa::DynOp &op : trace) {
                core::RestCheck c;
                if (op.isArm())
                    c = engine.arm(op.eaddr);
                else if (op.isDisarm())
                    c = engine.disarm(op.eaddr);
                else if (op.isLoad() || op.isStore())
                    c = engine.checkAccess(op.eaddr,
                                           std::max<unsigned>(op.size, 1));
                else
                    continue;
                ++checks;
                faults += !c.ok();
            }
        }
        probe.coreChecks += checks;
        if (faults != 0)
            probe.failures.push_back("REST engine replay faulted " +
                                     std::to_string(faults) + " times");
    }
}

} // namespace perfbench
