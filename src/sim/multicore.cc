#include "sim/multicore.hh"

#include <algorithm>

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
    if (cfg_.base.exec.sampling.active()) {
        rest_fatal("sampled execution is not supported on the "
                   "multicore machine (detailed or fast-functional "
                   "only)");
    }
    if (cfg_.base.trace.active()) {
        rest_fatal("per-run tracing is not supported on the "
                   "multicore machine");
    }

    tcr_.writePrivileged(
        core::TokenValue::generate(rng_, cfg_.base.tokenWidth),
        cfg_.base.mode);

    // One shared runtime: the backend's allocator and check policy
    // serve every core, exactly like one mapped libc in a
    // multi-threaded server process.
    const runtime::ProtectionScheme &ps =
        runtime::schemeForConfig(cfg_.base.scheme);
    runtime::SchemeParts parts = ps.instantiate(
        {memory_, engine_, cfg_.base.scheme, cfg_.base.tokenSeed});
    allocator_ = std::move(parts.allocator);
    policy_ = parts.policy;

    // The snooping bus exists only when there is something to snoop;
    // a detached 1-core hierarchy is the exact historical machine.
    if (cfg_.cores > 1)
        bus_ = std::make_unique<mem::CoherenceBus>();

    for (unsigned i = 0; i < cfg_.cores; ++i) {
        instrumentation_.push_back(ps.instrument(
            programs_[i], cfg_.base.scheme, tcr_.granule()));

        l1i_.push_back(
            std::make_unique<mem::Cache>(cfg_.base.l1iConfig, l2_));
        auto l1d = std::make_unique<mem::RestL1Cache>(
            cfg_.base.l1dConfig, l2_, memory_, tcr_);
        if (bus_) {
            l1d->attachBus(bus_.get());
            bus_->attach(*l1d);
        }
        l1d_.push_back(std::move(l1d));

        const Addr stack_top =
            runtime::AddressMap::stackTop -
            Addr(i) * cfg_.perCoreStackBytes;
        emulators_.push_back(std::make_unique<Emulator>(
            programs_[i], memory_, engine_, *allocator_,
            cfg_.base.scheme, policy_, stack_top));

        if (cfg_.base.exec.fastFunctional) {
            fast_.push_back(
                std::make_unique<FastFunctional>(cfg_.base.mode));
            o3_.push_back(nullptr);
            inorder_.push_back(nullptr);
        } else if (cfg_.base.useInOrderCpu) {
            inorder_.push_back(std::make_unique<cpu::InOrderCpu>(
                cfg_.base.inorderConfig, *l1i_[i], *l1d_[i]));
            o3_.push_back(nullptr);
            fast_.push_back(nullptr);
        } else {
            o3_.push_back(std::make_unique<cpu::O3Cpu>(
                cfg_.base.cpuConfig, cfg_.base.mode, *l1i_[i],
                *l1d_[i]));
            inorder_.push_back(nullptr);
            fast_.push_back(nullptr);
        }
    }
}

void
MultiCoreSystem::runSlice(unsigned core, std::uint64_t ops,
                          MultiCoreResult &res)
{
    cpu::RunResult &acc = res.cores[core];
    const std::uint64_t before = acc.committedOps;
    const std::uint64_t want =
        std::min(ops, cfg_.base.maxOps - before);
    if (want == 0)
        return;

    cpu::RunResult r;
    bool functional = false;
    if (fast_[core]) {
        r = fast_[core]->run(*emulators_[core], want);
        functional = true;
    } else if (o3_[core]) {
        r = o3_[core]->run(*emulators_[core], want);
    } else {
        r = inorder_[core]->run(*emulators_[core], want);
    }

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

    if (cfg_.cores == 1) {
        // No peers to interleave with: one unsliced call, the exact
        // single-core System execution.
        runSlice(0, cfg_.base.maxOps, res);
    } else {
        // Deterministic round-robin quanta on one host timeline. The
        // machine stops at the first fault (a REST trap halts the
        // process, not just the faulting thread) or when every core
        // has halted or hit its op cap. A spinning core still retires
        // its spin ops, so every active core makes progress and the
        // loop always terminates under a finite op cap.
        auto done = [&](unsigned c) {
            return emulators_[c]->halted() ||
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
    res.armsExecuted = engine_.armsExecuted();
    res.disarmsExecuted = engine_.disarmsExecuted();
    res.mallocCalls = allocator_->heapState().mallocCalls;
    res.freeCalls = allocator_->heapState().freeCalls;
    return res;
}

const stats::StatGroup &
MultiCoreSystem::cpuStats(unsigned core) const
{
    if (o3_[core])
        return o3_[core]->statGroup();
    if (inorder_[core])
        return inorder_[core]->statGroup();
    return fast_[core]->statGroup();
}

void
MultiCoreSystem::dumpStats(std::ostream &os) const
{
    for (unsigned c = 0; c < cfg_.cores; ++c) {
        cpuStats(c).dump(os);
        l1i_[c]->statGroup().dump(os);
        l1d_[c]->statGroup().dump(os);
    }
    l2_.statGroup().dump(os);
    dram_.statGroup().dump(os);
    if (bus_)
        bus_->statGroup().dump(os);
}

} // namespace rest::sim
