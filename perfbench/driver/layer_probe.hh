/**
 * @file
 * Traced layer decomposition: times each simulator layer on its own,
 * through its public entry points, from outside the simulator.
 *
 * A full simulation inlines every layer into one run() call, so the
 * probe splits a job apart instead. It generates, instruments and
 * verifies the job's programs, builds the machine, drains the
 * functional emulator into a recorded op trace, and then replays that
 * trace through each layer alone: fast-functional retirement, the O3
 * core over a private cache hierarchy, the branch predictor, the
 * REST L1-D/L2/DRAM access path, and the REST engine's architectural
 * checks. Every step runs inside a span named after its layer.
 */

#ifndef PERFBENCH_LAYER_PROBE_HH
#define PERFBENCH_LAYER_PROBE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/dyn_op.hh"
#include "isa/program.hh"
#include "sim/emulator.hh"
#include "sim/system.hh"
#include "spans.hh"

namespace perfbench
{

/** Host time and work done per layer, summed over probed jobs. */
struct LayerProbe
{
    explicit LayerProbe(SpanRecorder &rec, std::uint64_t op_cap)
        : spans(rec), opCap(op_cap)
    {}

    SpanRecorder &spans;
    /** Longest op trace recorded per job. */
    std::uint64_t opCap;

    double generateS = 0, instrumentS = 0, verifyS = 0;
    double instantiateS = 0, buildS = 0;
    double emulateS = 0, retireS = 0, o3S = 0, bpredS = 0;
    double memS = 0, coreS = 0;

    std::uint64_t emulatedOps = 0, retiredOps = 0, o3Ops = 0;
    std::uint64_t branches = 0;
    std::uint64_t memAccesses = 0, coreChecks = 0;

    /** Verifier diagnostics and replay mismatches (correctness). */
    std::vector<std::string> failures;
};

/** One probed step: a span, and its seconds added to an accumulator. */
class ProbeStep
{
  public:
    ProbeStep(LayerProbe &probe, const char *name, double &acc)
        : span_(probe.spans, name), acc_(acc), t0_(Clock::now())
    {}
    ~ProbeStep() { acc_ += secondsSince(t0_); }

    ProbeStep(const ProbeStep &) = delete;
    ProbeStep &operator=(const ProbeStep &) = delete;

  private:
    ScopedSpan span_;
    double &acc_;
    Clock::time_point t0_;
};

/**
 * Instrument a copy of each program for 'cfg' (runtime::applyScheme),
 * verify the result (analysis::verify), and time the backend's
 * allocator construction (ProtectionScheme::instantiate).
 */
void probeStaticLayers(LayerProbe &probe,
                       const std::vector<rest::isa::Program> &programs,
                       const rest::sim::SystemConfig &cfg);

/**
 * Drain the emulators into one recorded trace, round-robin in
 * 'quantum'-op slices (the multicore machine's interleaving; one
 * emulator drains in a single slice), up to probe.opCap ops.
 */
std::vector<rest::isa::DynOp>
recordTrace(LayerProbe &probe,
            const std::vector<rest::sim::Emulator *> &emulators,
            std::uint64_t quantum);

/** Replay a recorded trace through each timing layer on its own. */
void replayTrace(LayerProbe &probe,
                 const std::vector<rest::isa::DynOp> &trace,
                 const rest::sim::SystemConfig &cfg);

} // namespace perfbench

#endif // PERFBENCH_LAYER_PROBE_HH
