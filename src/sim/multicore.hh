/**
 * @file
 * MultiCoreSystem: the one simulated machine — N >= 1 cores over a
 * MESI-coherent cache hierarchy. It installs the token register,
 * instantiates the protection scheme, instruments each core's program,
 * wires the hierarchy, picks the CPU model, runs and dumps stats.
 * sim::System (sim/system.hh) is a single-program view of a one-core
 * instance: the paper's evaluation machine.
 *
 * Every core gets a private L1-I/L1-D pair — the L1-D is the
 * REST-modified cache, so token detection stays a per-L1 fill-path
 * property — behind one snooping CoherenceBus (mem/coherence.hh), over
 * the shared L2 and DRAM. Guest memory, the token config register, the
 * REST engine and the allocator are shared machine-wide: core B
 * touching a granule that core A's free() armed traps exactly like a
 * local dangling access, through the coherence transfer of the
 * token-bearing line.
 *
 * Each core runs its own guest program (its "thread": a server request
 * handler, an attack victim, ...) on its own functional emulator with
 * a disjoint stack slice. Execution interleaves the cores round-robin
 * in fixed op quanta on one host thread — the per-core pipeline clocks
 * (both timing models keep their commit clock across run() calls) and
 * the shared hierarchy make the interleaving deterministic: same seed,
 * same programs, same schedule, byte-identical results.
 *
 * A 1-core machine attaches no bus and runs its program in a single
 * unsliced call. Only it supports sampled execution (sim/sampling.hh)
 * and a per-run trace sink (util/trace.hh).
 */

#ifndef REST_SIM_MULTICORE_HH
#define REST_SIM_MULTICORE_HH

#include <memory>
#include <vector>

#include "core/rest_engine.hh"
#include "core/token.hh"
#include "cpu/inorder_cpu.hh"
#include "cpu/o3_cpu.hh"
#include "isa/program.hh"
#include "mem/cache.hh"
#include "mem/coherence.hh"
#include "mem/dram.hh"
#include "mem/guest_memory.hh"
#include "mem/rest_l1_cache.hh"
#include "runtime/allocator.hh"
#include "runtime/instrumentation.hh"
#include "runtime/runtime_config.hh"
#include "sim/emulator.hh"
#include "sim/fast_functional.hh"
#include "sim/sampling.hh"
#include "util/trace.hh"

namespace rest::sim
{

/** Machine + scheme configuration; every core runs under the same one
 *  (MultiCoreConfig adds the core count and the schedule). */
struct SystemConfig
{
    runtime::SchemeConfig scheme;
    core::RestMode mode = core::RestMode::Secure;
    core::TokenWidth tokenWidth = core::TokenWidth::Bytes64;
    bool useInOrderCpu = false;

    cpu::CpuConfig cpuConfig;
    cpu::InOrderConfig inorderConfig;
    mem::CacheConfig l1iConfig = mem::CacheConfig::l1i();
    mem::CacheConfig l1dConfig = mem::CacheConfig::l1d();
    mem::CacheConfig l2Config = mem::CacheConfig::l2();
    mem::DramConfig dramConfig;

    std::uint64_t maxOps = ~std::uint64_t(0);
    std::uint64_t tokenSeed = 0xc0ffee;

    /**
     * Execution mode: detailed (default), fast-functional, or
     * sampled (see sim/sampling.hh; one core only).
     */
    ExecutionConfig exec;

    /**
     * Tracing/metrics for this run (one core only). Default-constructed
     * (inactive) means no sink is created and run() costs nothing
     * extra.
     */
    trace::TraceConfig trace;
};

/** Configuration of one machine. */
struct MultiCoreConfig
{
    /** Per-core machine + scheme configuration. `base.maxOps` caps
     *  each core individually. */
    SystemConfig base;
    /** Number of cores; must equal the number of programs. */
    unsigned cores = 1;
    /** Ops per round-robin scheduling slice (cores > 1 only). */
    std::uint64_t quantumOps = 8192;
    /** Stack bytes reserved per core below AddressMap::stackTop. */
    std::uint64_t perCoreStackBytes = std::uint64_t(1) << 20;
};

/** Outcome of one MultiCoreSystem::run(). */
struct MultiCoreResult
{
    /** Per-core timing results. cycles is that core's commit clock;
     *  committedOps its retirement count; violation.seq is core-local
     *  (the core's own retirement sequence). */
    std::vector<cpu::RunResult> cores;
    /** Index of the first faulting core in schedule order, or ~0u
     *  when the run retired cleanly. */
    unsigned faultCore = ~0u;
    /** Machine cycles: the slowest core's commit clock. */
    Cycles cycles = 0;
    /** Ops retired machine-wide (sum over cores). */
    std::uint64_t committedOps = 0;
    /** Run retired functionally (cycles are nominal, CPI == 1). */
    bool fastFunctional = false;
    /** Run was sampled; core 0's cycles are the extrapolated estimate
     *  and `sampling` carries the window/error breakdown. */
    bool sampled = false;
    SamplingEstimate sampling;
    /** Per-core instrumentation summaries (index == core). */
    std::vector<runtime::InstrumentationSummary> instrumentation;
    std::uint64_t armsExecuted = 0;
    std::uint64_t disarmsExecuted = 0;
    std::uint64_t mallocCalls = 0;
    std::uint64_t freeCalls = 0;

    bool faulted() const { return faultCore != ~0u; }

    /** The first (and only — the machine stops) violation. */
    const core::Violation &
    violation() const
    {
        return cores.at(faultCore).violation;
    }
};

/** One simulated N-core machine. */
class MultiCoreSystem
{
  public:
    /**
     * @param programs one un-instrumented program per core (each is
     *        copied, then finalised for the configured scheme).
     * @param cfg machine configuration; cfg.cores must match
     *        programs.size().
     */
    MultiCoreSystem(std::vector<isa::Program> programs,
                    const MultiCoreConfig &cfg);

    /** Run all cores to completion / first fault / per-core op cap. */
    MultiCoreResult run();

    unsigned numCores() const { return cfg_.cores; }
    mem::GuestMemory &memory() { return memory_; }
    core::RestEngine &engine() { return engine_; }
    const core::TokenConfigRegister &tokenRegister() const
    { return tcr_; }
    runtime::Allocator &allocator() { return *allocator_; }
    Emulator &emulator(unsigned core) { return *cores_[core].emulator; }
    mem::RestL1Cache &dcache(unsigned core) { return *cores_[core].l1d; }
    mem::Cache &icache(unsigned core) { return *cores_[core].l1i; }
    mem::Cache &l2cache() { return l2_; }
    mem::Dram &dram() { return dram_; }
    /** The snooping bus; nullptr on a 1-core machine. */
    mem::CoherenceBus *bus() { return bus_.get(); }
    /** One core's program as instrumented for the scheme. */
    const isa::Program &program(unsigned core) const
    { return programs_[core]; }
    const MultiCoreConfig &config() const { return cfg_; }

    /** Timing/functional stats of one core's model. */
    const stats::StatGroup &cpuStats(unsigned core) const;

    /** Dump all component stats (per-core models + shared levels). */
    void dumpStats(std::ostream &os) const;

    /** This machine's private trace sink (nullptr when tracing off). */
    trace::TraceSink *traceSink() { return traceSink_.get(); }

    /**
     * Periodic stat snapshots from every component group, merged by
     * cycle (all groups snapshot on the same statsTick boundaries).
     * Empty unless cfg.base.trace.statsEvery was set.
     */
    std::vector<stats::StatSnapshot> statSnapshots() const;

  private:
    /** One core's private hierarchy, emulator and execution model(s):
     *  one timing model unless fast-functional, plus the functional
     *  driver for fast-functional and sampled runs. */
    struct Core
    {
        std::unique_ptr<mem::Cache> l1i;
        std::unique_ptr<mem::RestL1Cache> l1d;
        std::unique_ptr<Emulator> emulator;
        std::unique_ptr<cpu::O3Cpu> o3;
        std::unique_ptr<cpu::InOrderCpu> inorder;
        std::unique_ptr<FastFunctional> fast;
        /** The stats of the model that reports (the O3 core's when a
         *  sampled core has both). */
        stats::StatGroup *cpuStats = nullptr;
    };

    /** Run up to 'ops' more ops on 'core'; fold into res.cores. */
    void runSlice(unsigned core, std::uint64_t ops,
                  MultiCoreResult &res);

    /** The sampled-mode interleave loop on core 0 (detailed windows
     *  on the O3 core, functional fast-forward between them). */
    cpu::RunResult runSampledLoop(SamplingEstimate &est);

    MultiCoreConfig cfg_;
    mem::GuestMemory memory_;
    Xoshiro256ss rng_;
    core::TokenConfigRegister tcr_;
    core::RestEngine engine_;
    mem::Dram dram_;
    mem::Cache l2_;
    std::unique_ptr<mem::CoherenceBus> bus_;
    std::unique_ptr<runtime::Allocator> allocator_;
    /** Tag-check predicate for mte/pauth; owned by allocator_. */
    const runtime::AccessPolicy *policy_ = nullptr;
    std::vector<isa::Program> programs_;
    std::vector<runtime::InstrumentationSummary> instrumentation_;
    std::vector<Core> cores_;
    /** Every component's stat group, in dump order. */
    std::vector<stats::StatGroup *> statGroups_;
    std::unique_ptr<trace::TraceSink> traceSink_;
};

} // namespace rest::sim

#endif // REST_SIM_MULTICORE_HH
