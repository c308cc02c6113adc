/**
 * @file
 * Out-of-order core timing model (Table II configuration).
 *
 * One-pass scheduling organisation: the model consumes the dynamic op
 * stream in program order and computes, per op, its fetch, dispatch,
 * issue, completion and commit cycles subject to:
 *   - fetch bandwidth, I-cache misses and branch-predictor redirects,
 *   - ROB / IQ / LQ / SQ structural occupancy,
 *   - register data dependencies (renaming assumed: no WAW/WAR),
 *   - issue-port bandwidth and functional-unit latencies,
 *   - D-cache/L2/DRAM latency with MSHR effects,
 *   - store-to-load forwarding and the REST LSQ rules (Fig. 5),
 *   - in-order commit bandwidth, with the secure/debug store-commit
 *     policies of paper §III-B.
 */

#ifndef REST_CPU_O3_CPU_HH
#define REST_CPU_O3_CPU_HH

#include <array>
#include <cstdint>
#include <vector>

#include "core/exceptions.hh"
#include "core/token.hh"
#include "cpu/bpred.hh"
#include "cpu/cpu_config.hh"
#include "cpu/iq_calendar.hh"
#include "cpu/lsq.hh"
#include "isa/dyn_op.hh"
#include "mem/cache.hh"
#include "mem/rest_l1_cache.hh"
#include "util/stats.hh"

namespace rest::cpu
{

/** Outcome of one timing run. */
struct RunResult
{
    Cycles cycles = 0;
    std::uint64_t committedOps = 0;
    /** Committed-op counts attributed to each injection source. */
    std::array<std::uint64_t, 5> opsBySource{};
    core::Violation violation;
    /** Terminated because a violation was raised. */
    bool faulted() const { return violation.valid(); }
};

/** The out-of-order CPU model. */
class O3Cpu
{
  public:
    /**
     * @param cfg core parameters.
     * @param mode secure or debug (paper §III-A): debug delays store
     *        commit until write completion and reports precisely.
     * @param icache instruction cache.
     * @param dcache REST-aware data cache.
     */
    O3Cpu(const CpuConfig &cfg, core::RestMode mode,
          mem::Cache &icache, mem::RestL1Cache &dcache);

    /**
     * Run a dynamic op stream to completion (or violation, or cap).
     * All pipeline state carries across calls, so a stream run in
     * several calls is timed exactly as in one. The result's op counts
     * and violation.seq are local to this call; its cycles are the
     * commit clock since construction or resetPipeline().
     * @param src op stream.
     * @param max_ops optional cap on committed ops.
     */
    RunResult run(isa::TraceSource &src,
                  std::uint64_t max_ops = ~std::uint64_t(0));

    /**
     * Reset the transient pipeline state (fetch and redirect, op
     * sequence, occupancy rings, issue/FU windows, scoreboard, LSQ,
     * commit clock) to the just-constructed state, so the next run()
     * starts timing from cycle 0. Long-lived predictor state (branch predictor) and the
     * accumulated stats survive — this is the window checkpoint/
     * restore the sampled execution mode is built on: each detailed
     * window warms the pipeline from empty while the predictor and
     * caches carry realistic history across fast-forward gaps.
     */
    void resetPipeline();

    const stats::StatGroup &statGroup() const { return stats_; }
    stats::StatGroup &statGroup() { return stats_; }
    const BranchPredictor &branchPredictor() const { return bpred_; }

  private:
    /** Compute fetch cycle for the next op at 'pc'. */
    Cycles fetchOp(Addr pc, Cycles earliest);

    CpuConfig cfg_;
    core::RestMode mode_;
    mem::Cache &icache_;
    mem::RestL1Cache &dcache_;
    BranchPredictor bpred_;
    Lsq lsq_;

    // Fetch state
    Cycles fetchCycle_ = 0;
    unsigned fetchedThisCycle_ = 0;
    Addr lastFetchLine_ = invalidAddr;
    /** Earliest fetch after the last mispredict (or serialized op). */
    Cycles redirectAt_ = 0;

    /**
     * Dynamic index of the next op since resetPipeline(): the program
     * order the LSQ compares, which must not restart at a run() call.
     */
    std::uint64_t seq_ = 0;

    // Structural occupancy rings (ROB, LQ): slot i holds the cycle at
    // which the previous occupant of that slot releases it; robPos_
    // and lqPos_ are the slots of the next op and the next load.
    std::vector<Cycles> robFreeAt_;
    std::vector<Cycles> lqFreeAt_;
    unsigned robPos_ = 0;
    unsigned lqPos_ = 0;

    /** IQ slot release times: dispatch waits for the earliest, issue
     *  replaces it. */
    IqCalendar iq_;

    /**
     * Issue-bandwidth and FU-occupancy tracking as per-cycle counts
     * over a sliding window, so an op whose operands were ready early
     * can claim an idle slot in the (modelled) past even though it is
     * processed later in program order -- true out-of-order issue.
     * Each bucket packs (cycle << 8) | count into one word; a bucket
     * tagged with another cycle is stale and reads as count 0.
     */
    static constexpr unsigned issueWindow = 8192;
    std::vector<std::uint64_t> issueBucket_;
    /** FU pools: 0 = mem ports, 1 = ALU, 2 = FP, 3 = mul/div. */
    std::array<std::vector<std::uint64_t>, 4> fuBucket_;
    std::array<unsigned, 4> fuPoolSize_{};

    /** Claim an issue slot + FU of 'pool' at the first cycle >= when. */
    Cycles claimIssueSlot(Cycles when, unsigned pool, Cycles fu_busy);

    // Register scoreboard (renaming assumed).
    std::array<Cycles, isa::numRegs> regReadyAt_{};

    // Serialization-ablation state: the current op must drain the
    // pipeline (set while a serialized arm/disarm is in flight).
    bool serializeUntil_ = false;

    // Commit state
    Cycles lastCommitCycle_ = 0;
    unsigned commitsThisCycle_ = 0;

    stats::StatGroup stats_;
    stats::Scalar &committedOps_;
    stats::Scalar &totalCycles_;
    stats::Scalar &iqFullStallCycles_;
    stats::Scalar &robStallCycles_;
    stats::Scalar &sqFullStallCycles_;
    stats::Scalar &robStoreBlockedCycles_;
    stats::Scalar &branchMispredicts_;
    stats::Scalar &loadsForwarded_;
    stats::Scalar &storesCommitted_;
    stats::Scalar &armsCommitted_;
    stats::Scalar &disarmsCommitted_;
};

} // namespace rest::cpu

#endif // REST_CPU_O3_CPU_HH
