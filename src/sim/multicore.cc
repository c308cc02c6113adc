#include "sim/multicore.hh"

#include <algorithm>
#include <map>

#include "runtime/protection_scheme.hh"
#include "util/logging.hh"

namespace rest::sim
{

MultiCoreSystem::MultiCoreSystem(std::vector<isa::Program> programs,
                                 const MultiCoreConfig &cfg)
    : cfg_(cfg), rng_(cfg.base.tokenSeed), engine_(tcr_),
      dram_(cfg.base.dramConfig), l2_(cfg.base.l2Config, dram_),
      programs_(std::move(programs))
{
    const SystemConfig &base = cfg_.base;
    rest_assert(cfg_.cores >= 1, "multicore machine needs >= 1 core");
    rest_assert(programs_.size() == cfg_.cores,
                "need exactly one program per core");
    rest_assert(cfg_.quantumOps > 0, "scheduling quantum must be > 0");
    // Stacks are carved downward from the historical single-core
    // stack top; they must not reach down into the heap segment.
    rest_assert(runtime::AddressMap::stackTop -
                        std::uint64_t(cfg_.cores) *
                            cfg_.perCoreStackBytes >
                    runtime::AddressMap::heapBase,
                "per-core stacks would overlap the heap");
    if (cfg_.cores > 1 && base.trace.active()) {
        rest_fatal("per-run tracing is not supported on the "
                   "multicore machine");
    }

    // Install a fresh random token at the configured width/mode
    // (privileged memory-mapped write, §III-A).
    tcr_.writePrivileged(
        core::TokenValue::generate(rng_, base.tokenWidth), base.mode);

    // One shared runtime: the backend's allocator and check policy
    // serve every core, exactly like one mapped libc in a
    // multi-threaded server process.
    const runtime::ProtectionScheme &ps =
        runtime::schemeForConfig(base.scheme);
    runtime::SchemeParts parts = ps.instantiate(
        {memory_, engine_, base.scheme, base.tokenSeed});
    allocator_ = std::move(parts.allocator);
    policy_ = parts.policy;

    // The snooping bus exists only when there is something to snoop;
    // a detached 1-core hierarchy is the exact historical machine.
    if (cfg_.cores > 1)
        bus_ = std::make_unique<mem::CoherenceBus>();

    cores_.resize(cfg_.cores);
    for (unsigned i = 0; i < cfg_.cores; ++i) {
        Core &c = cores_[i];
        instrumentation_.push_back(
            ps.instrument(programs_[i], base.scheme, tcr_.granule()));

        c.l1i = std::make_unique<mem::Cache>(base.l1iConfig, l2_);
        c.l1d = std::make_unique<mem::RestL1Cache>(base.l1dConfig, l2_,
                                                   memory_, tcr_);
        if (bus_) {
            c.l1d->attachBus(bus_.get());
            bus_->attach(*c.l1d);
        }

        const Addr stack_top =
            runtime::AddressMap::stackTop -
            Addr(i) * cfg_.perCoreStackBytes;
        c.emulator = std::make_unique<Emulator>(
            programs_[i], memory_, engine_, *allocator_, base.scheme,
            policy_, stack_top);

        // Fast-functional runs need no timing CPU at all.
        if (base.exec.fastFunctional) {
            c.fast = std::make_unique<FastFunctional>(base.mode);
        } else if (base.useInOrderCpu) {
            c.inorder = std::make_unique<cpu::InOrderCpu>(
                base.inorderConfig, *c.l1i, *c.l1d);
        } else {
            c.o3 = std::make_unique<cpu::O3Cpu>(
                base.cpuConfig, base.mode, *c.l1i, *c.l1d);
        }
        c.cpuStats = c.o3        ? &c.o3->statGroup()
                     : c.inorder ? &c.inorder->statGroup()
                                 : &c.fast->statGroup();
    }

    for (const Core &c : cores_) {
        statGroups_.push_back(c.cpuStats);
        statGroups_.push_back(&c.l1i->statGroup());
        statGroups_.push_back(&c.l1d->statGroup());
    }
    statGroups_.push_back(&l2_.statGroup());
    statGroups_.push_back(&dram_.statGroup());
    if (bus_)
        statGroups_.push_back(&bus_->statGroup());

    if (base.trace.active()) {
        traceSink_ = std::make_unique<trace::TraceSink>(base.trace);
        if (base.trace.statsEvery != 0) {
            for (stats::StatGroup *g : statGroups_)
                traceSink_->registerStatGroup(g);
        }
    }
}

void
MultiCoreSystem::runSlice(unsigned core, std::uint64_t ops,
                          MultiCoreResult &res)
{
    Core &c = cores_[core];
    cpu::RunResult &acc = res.cores[core];
    const std::uint64_t before = acc.committedOps;
    const std::uint64_t want =
        std::min(ops, cfg_.base.maxOps - before);
    if (want == 0)
        return;

    cpu::RunResult r;
    const bool functional = !c.o3 && !c.inorder;
    if (c.o3)
        r = c.o3->run(*c.emulator, want);
    else if (c.inorder)
        r = c.inorder->run(*c.emulator, want);
    else
        r = c.fast->run(*c.emulator, want);

    acc.committedOps += r.committedOps;
    for (unsigned s = 0; s < r.opsBySource.size(); ++s)
        acc.opsBySource[s] += r.opsBySource[s];
    // The timing models keep their pipeline state, commit clock
    // included, across run() calls, so r.cycles is already this
    // core's cumulative clock; the functional driver reports per-call
    // nominal cycles (== ops).
    acc.cycles = functional ? acc.cycles + r.cycles : r.cycles;

    if (r.faulted()) {
        acc.violation = r.violation;
        // A timing model's violation.seq is local to its run() call;
        // offsetting by the core's ops retired before the slice
        // restores the core-local sequence number. The functional
        // driver already reports the emulator's global sequence.
        if (!functional)
            acc.violation.seq += before;
        if (!res.faulted())
            res.faultCore = core;
    }
}

MultiCoreResult
MultiCoreSystem::run()
{
    MultiCoreResult res;
    res.instrumentation = instrumentation_;
    res.fastFunctional = cfg_.base.exec.fastFunctional;
    res.cores.resize(cfg_.cores);

    // Install this machine's sink thread-locally for the duration of
    // the run: parallel sweep jobs each trace into private storage.
    trace::ScopedSink scoped(traceSink_.get());
    if (cfg_.cores == 1) {
        // No peers to interleave with: one unsliced call.
        runSlice(0, cfg_.base.maxOps, res);
    } else {
        // Deterministic round-robin quanta on one host timeline. The
        // machine stops at the first fault (a REST trap halts the
        // process, not just the faulting thread) or when every core
        // has halted or hit its op cap. A spinning core still retires
        // its spin ops, so every active core makes progress and the
        // loop always terminates under a finite op cap.
        auto done = [&](unsigned c) {
            return cores_[c].emulator->halted() ||
                   res.cores[c].committedOps >= cfg_.base.maxOps;
        };
        bool active = true;
        while (active && !res.faulted()) {
            active = false;
            for (unsigned c = 0; c < cfg_.cores && !res.faulted();
                 ++c) {
                if (done(c))
                    continue;
                active = true;
                runSlice(c, cfg_.quantumOps, res);
            }
        }
    }

    for (const cpu::RunResult &r : res.cores) {
        res.committedOps += r.committedOps;
        res.cycles = std::max(res.cycles, r.cycles);
    }
    if (traceSink_) {
        const trace::TraceConfig &tc = cfg_.base.trace;
        traceSink_->flushStats(res.cycles);
        if (!tc.traceOutPath.empty())
            traceSink_->writeChromeTraceFile(tc.traceOutPath);
        if (!tc.pipeViewPath.empty())
            traceSink_->writePipeViewFile(tc.pipeViewPath);
    }
    res.armsExecuted = engine_.armsExecuted();
    res.disarmsExecuted = engine_.disarmsExecuted();
    res.mallocCalls = allocator_->heapState().mallocCalls;
    res.freeCalls = allocator_->heapState().freeCalls;
    return res;
}

const stats::StatGroup &
MultiCoreSystem::cpuStats(unsigned core) const
{
    return *cores_[core].cpuStats;
}

std::vector<stats::StatSnapshot>
MultiCoreSystem::statSnapshots() const
{
    // Every registered group snapshots on the same statsTick
    // boundaries; merge the per-group series by cycle.
    std::map<Cycles, std::map<std::string, std::uint64_t>> merged;
    for (const stats::StatGroup *g : statGroups_) {
        for (const auto &snap : g->snapshots()) {
            auto &cell = merged[snap.cycle];
            cell.insert(snap.deltas.begin(), snap.deltas.end());
        }
    }
    std::vector<stats::StatSnapshot> out;
    out.reserve(merged.size());
    for (auto &[cycle, deltas] : merged)
        out.push_back({cycle, std::move(deltas)});
    return out;
}

void
MultiCoreSystem::dumpStats(std::ostream &os) const
{
    for (const stats::StatGroup *g : statGroups_)
        g->dump(os);
}

} // namespace rest::sim
