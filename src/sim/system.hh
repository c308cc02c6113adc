/**
 * @file
 * System: the paper's evaluation machine — one program on a one-core
 * MultiCoreSystem (sim/multicore.hh), which builds and runs it. This
 * class only adapts the single-program view: its run() reports core
 * 0's result as a SystemResult, and its accessors name core 0's parts.
 */

#ifndef REST_SIM_SYSTEM_HH
#define REST_SIM_SYSTEM_HH

#include "sim/multicore.hh"

namespace rest::sim
{

/** Outcome of a System::run(). */
struct SystemResult
{
    cpu::RunResult run;
    runtime::InstrumentationSummary instrumentation;
    /** Run retired functionally (cycles are nominal, CPI == 1). */
    bool fastFunctional = false;
    /** Run was sampled; `run.cycles` is the extrapolated estimate
     *  and `sampling` carries the window/error breakdown. */
    bool sampled = false;
    SamplingEstimate sampling;
    std::uint64_t armsExecuted = 0;
    std::uint64_t disarmsExecuted = 0;
    std::uint64_t mallocCalls = 0;
    std::uint64_t freeCalls = 0;

    bool faulted() const { return run.faulted(); }
    Cycles cycles() const { return run.cycles; }
};

/** One simulated single-core machine instance. */
class System
{
  public:
    /**
     * @param program un-instrumented program (copied, then finalised
     *        for the configured scheme).
     * @param cfg machine + scheme configuration.
     */
    System(isa::Program program, const SystemConfig &cfg);

    /** Run to completion / fault / op cap. */
    SystemResult run();

    // Component access for tests, examples and benches.
    mem::GuestMemory &memory() { return machine_.memory(); }
    core::RestEngine &engine() { return machine_.engine(); }
    const core::TokenConfigRegister &tokenRegister() const
    { return machine_.tokenRegister(); }
    runtime::Allocator &allocator() { return machine_.allocator(); }
    Emulator &emulator() { return machine_.emulator(0); }
    mem::RestL1Cache &dcache() { return machine_.dcache(0); }
    mem::Cache &icache() { return machine_.icache(0); }
    mem::Cache &l2cache() { return machine_.l2cache(); }
    const isa::Program &program() const { return machine_.program(0); }
    const SystemConfig &config() const { return machine_.config().base; }

    /** Timing-CPU stats (whichever model is active). */
    const stats::StatGroup &cpuStats() const
    { return machine_.cpuStats(0); }

    /** Dump all component stats. */
    void dumpStats(std::ostream &os) const { machine_.dumpStats(os); }

    /** This system's private trace sink (nullptr when tracing off). */
    trace::TraceSink *traceSink() { return machine_.traceSink(); }

    /** See MultiCoreSystem::statSnapshots(). */
    std::vector<stats::StatSnapshot> statSnapshots() const
    { return machine_.statSnapshots(); }

  private:
    MultiCoreSystem machine_;
};

} // namespace rest::sim

#endif // REST_SIM_SYSTEM_HH
