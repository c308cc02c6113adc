#include "cpu/o3_cpu.hh"

#include <algorithm>

#include "util/bit_utils.hh"
#include "util/logging.hh"
#include "util/trace.hh"

namespace rest::cpu
{

namespace
{

/** An issue/FU bucket that matches no cycle. */
constexpr std::uint64_t staleBucket = ~std::uint64_t(0);

/** Count a packed bucket holds for cycle 't' (0 if stale). */
inline unsigned
bucketCount(std::uint64_t bucket, Cycles t)
{
    return (bucket >> 8) == t ? static_cast<unsigned>(bucket & 0xff) : 0;
}

} // namespace

O3Cpu::O3Cpu(const CpuConfig &cfg, core::RestMode mode,
             mem::Cache &icache, mem::RestL1Cache &dcache)
    : cfg_(cfg), mode_(mode), icache_(icache), dcache_(dcache),
      lsq_(cfg.sqEntries),
      robFreeAt_(cfg.robEntries, 0),
      lqFreeAt_(cfg.lqEntries, 0),
      iq_(cfg.iqEntries),
      issueBucket_(issueWindow, staleBucket),
      stats_("o3cpu"),
      committedOps_(stats_.addScalar("committed_ops",
          "dynamic ops committed")),
      totalCycles_(stats_.addScalar("cycles", "total cycles simulated")),
      iqFullStallCycles_(stats_.addScalar("iq_full_stall_cycles",
          "dispatch cycles lost to a full IQ")),
      robStallCycles_(stats_.addScalar("rob_full_stall_cycles",
          "dispatch cycles lost to a full ROB")),
      sqFullStallCycles_(stats_.addScalar("sq_full_stall_cycles",
          "dispatch cycles lost to a full SQ")),
      robStoreBlockedCycles_(stats_.addScalar("rob_store_blocked_cycles",
          "commit cycles the ROB head was blocked by a store write "
          "(debug mode)")),
      branchMispredicts_(stats_.addScalar("branch_mispredicts",
          "resolved branch mispredictions")),
      loadsForwarded_(stats_.addScalar("loads_forwarded",
          "loads satisfied by store-to-load forwarding")),
      storesCommitted_(stats_.addScalar("stores_committed", "")),
      armsCommitted_(stats_.addScalar("arms_committed", "")),
      disarmsCommitted_(stats_.addScalar("disarms_committed", ""))
{
    fuPoolSize_ = {cfg.memPorts, cfg.aluUnits, cfg.fpUnits,
                   cfg.mulDivUnits};
    for (auto &buckets : fuBucket_)
        buckets.assign(issueWindow, staleBucket);
}

void
O3Cpu::resetPipeline()
{
    fetchCycle_ = 0;
    fetchedThisCycle_ = 0;
    lastFetchLine_ = invalidAddr;
    std::fill(robFreeAt_.begin(), robFreeAt_.end(), 0);
    std::fill(lqFreeAt_.begin(), lqFreeAt_.end(), 0);
    iq_.reset();
    std::fill(issueBucket_.begin(), issueBucket_.end(), staleBucket);
    for (auto &buckets : fuBucket_)
        std::fill(buckets.begin(), buckets.end(), staleBucket);
    regReadyAt_.fill(0);
    serializeUntil_ = false;
    seq_ = 0;
    robPos_ = 0;
    lqPos_ = 0;
    redirectAt_ = 0;
    lastCommitCycle_ = 0;
    commitsThisCycle_ = 0;
    lsq_.clear();
}

Cycles
O3Cpu::claimIssueSlot(Cycles when, unsigned pool, Cycles fu_busy)
{
    std::vector<std::uint64_t> &fu = fuBucket_[pool];
    for (Cycles t = when;; ++t) {
        const unsigned idx = static_cast<unsigned>(t % issueWindow);
        const unsigned issued = bucketCount(issueBucket_[idx], t);
        const unsigned busy = bucketCount(fu[idx], t);
        const unsigned fits =
            issued < cfg_.issueWidth && busy < fuPoolSize_[pool];
        // Both buckets take cycle t's tag even when the op does not
        // fit, so a bucket aliased from another window is dropped.
        issueBucket_[idx] = (t << 8) | (issued + fits);
        fu[idx] = (t << 8) | (busy + fits);
        if (!fits)
            continue;
        // Non-pipelined units (dividers) stay busy past the issue
        // cycle.
        for (Cycles k = t + 1; k < t + fu_busy; ++k) {
            const unsigned j = static_cast<unsigned>(k % issueWindow);
            const unsigned held = bucketCount(fu[j], k);
            fu[j] = (k << 8) | (held < 255 ? held + 1 : held);
        }
        return t;
    }
}

Cycles
O3Cpu::fetchOp(Addr pc, Cycles earliest)
{
    if (fetchCycle_ < earliest) {
        fetchCycle_ = earliest;
        fetchedThisCycle_ = 0;
    }

    // One I-cache line feeds the fetch group; a new line probes the
    // I-cache, and only a miss stalls the (pipelined) front end.
    Addr line = alignDown(pc, icache_.blockSize());
    if (line != lastFetchLine_) {
        Cycles ready = icache_.access(pc, false, fetchCycle_);
        if (!icache_.lastWasHit()) {
            fetchCycle_ = ready;
            fetchedThisCycle_ = 0;
        }
        lastFetchLine_ = line;
    }

    if (fetchedThisCycle_ >= cfg_.fetchWidth) {
        ++fetchCycle_;
        fetchedThisCycle_ = 0;
    }
    ++fetchedThisCycle_;
    return fetchCycle_;
}

RunResult
O3Cpu::run(isa::TraceSource &src, std::uint64_t max_ops)
{
    RunResult result;
    isa::DynOp op;

    // Tracing: the sink (if any) is fixed for the whole run — hoist
    // the lookup so the disabled case costs one branch per op.
    trace::TraceSink *ts = trace::sink();
    const bool trace_pipe =
        ts && ts->flagEnabled(trace::Flag::O3Pipe);
    const std::uint32_t pipe_track =
        trace_pipe ? ts->trackFor(stats_.name()) : 0;

    const bool debug_mode = mode_ == core::RestMode::Debug;
    const bool delay_stores = debug_mode || cfg_.delayStoreCommit;
    // Cycles a load miss waits for the rest of the line after the
    // critical word arrives. Debug mode always pays it (a load is not
    // released from the MSHR while the delivered word partially
    // matches the token, SIII-B); disabling critical-word-first pays
    // it in every mode (ablation).
    const Cycles fill_tail = 4;
    const bool pay_fill_tail = debug_mode || !cfg_.criticalWordFirst;

    while (result.committedOps < max_ops && src.next(op)) {
        // ---------------- Fetch ----------------
        Cycles fetch_cycle = fetchOp(op.pc, redirectAt_);

        // ---------------- Branch prediction ----------------
        bool mispredicted = false;
        if (op.isBranch) {
            using isa::Opcode;
            switch (op.op) {
              case Opcode::Beq:
              case Opcode::Bne:
              case Opcode::Blt:
              case Opcode::Bge:
                mispredicted = !bpred_.resolveConditional(op.pc, op.taken);
                break;
              case Opcode::Call:
                bpred_.pushReturn(op.pc + 4);
                break;
              case Opcode::Ret:
                mispredicted = !bpred_.predictReturn(op.nextPc);
                break;
              default:
                break; // direct jumps: BTB assumed to hit
            }
            if (op.taken) {
                // A (predicted-)taken branch ends the fetch group.
                ++fetchCycle_;
                fetchedThisCycle_ = 0;
                lastFetchLine_ = invalidAddr;
            }
        }

        // ---------------- Dispatch ----------------
        Cycles dispatch = fetch_cycle + cfg_.frontendDepth;

        if (cfg_.serializeRestOps && (op.isArm() || op.isDisarm())) {
            // Serialization ablation (§III-B): the REST op must be
            // the only one in flight — wait for everything older to
            // commit, and hold fetch until this op is done.
            dispatch = std::max(dispatch, lastCommitCycle_ + 1);
            serializeUntil_ = true;
        }

        Cycles rob_free = robFreeAt_[robPos_];
        if (rob_free > dispatch) {
            robStallCycles_ += rob_free - dispatch;
            if (ts && ts->flagOn(trace::Flag::O3Pipe, dispatch)) {
                ts->complete(trace::Flag::O3Pipe, pipe_track,
                             "rob_full_stall", dispatch, rob_free,
                             "seq", seq_);
            }
            dispatch = rob_free;
        }
        // IQ slots free out of order (any issued entry releases its
        // slot): take the earliest-freeing one.
        const Cycles iq_free = iq_.earliest();
        if (iq_free > dispatch) {
            iqFullStallCycles_ += iq_free - dispatch;
            if (ts && ts->flagOn(trace::Flag::O3Pipe, dispatch)) {
                ts->complete(trace::Flag::O3Pipe, pipe_track,
                             "iq_full_stall", dispatch, iq_free,
                             "seq", seq_);
            }
            dispatch = iq_free;
        }
        if (op.isLoad())
            dispatch = std::max(dispatch, lqFreeAt_[lqPos_]);
        if (op.isStoreLike()) {
            lsq_.prune(dispatch);
            if (lsq_.full()) {
                Cycles free_at = lsq_.earliestFree();
                if (free_at > dispatch) {
                    sqFullStallCycles_ += free_at - dispatch;
                    dispatch = free_at;
                }
                lsq_.prune(dispatch);
            }
        }

        // Back-pressure: a stalled dispatch fills the fetch buffer and
        // halts fetch. Keep the front end within a small skid of
        // dispatch so fetch timing stays meaningful.
        constexpr Cycles fetch_skid = 2;
        if (dispatch > fetchCycle_ + cfg_.frontendDepth + fetch_skid)
            fetchCycle_ = dispatch - cfg_.frontendDepth - fetch_skid;

        // ---------------- Issue ----------------
        Cycles ready = dispatch + 1;
        if (op.rs1 != isa::noReg)
            ready = std::max(ready, regReadyAt_[op.rs1]);
        if (op.rs2 != isa::noReg)
            ready = std::max(ready, regReadyAt_[op.rs2]);

        // Pick the functional-unit pool for this op class.
        unsigned pool_idx;
        switch (op.cls) {
          case isa::OpClass::MemRead:
          case isa::OpClass::MemWrite:
          case isa::OpClass::MemArm:
          case isa::OpClass::MemDisarm:
            pool_idx = 0;
            break;
          case isa::OpClass::FloatAdd:
          case isa::OpClass::FloatMult:
          case isa::OpClass::FloatDiv:
            pool_idx = 2;
            break;
          case isa::OpClass::IntMult:
          case isa::OpClass::IntDiv:
            pool_idx = 3;
            break;
          default:
            pool_idx = 1;
            break;
        }
        // Units are pipelined except the dividers.
        Cycles fu_busy = (op.cls == isa::OpClass::IntDiv ||
                          op.cls == isa::OpClass::FloatDiv)
            ? opLatency(op.cls) : 1;
        Cycles issue = claimIssueSlot(ready, pool_idx, fu_busy);

        // IQ entry occupied from dispatch until issue.
        iq_.replaceEarliest(issue + 1);
        REST_DPRINTF(trace::Flag::O3Pipe, fetch_cycle, "o3cpu",
                     "seq=", seq_, " ", isa::mnemonic(op.op),
                     " fetch=", fetch_cycle, " dispatch=", dispatch,
                     " ready=", ready, " issue=", issue);

        // ---------------- Execute ----------------
        Cycles complete = issue + opLatency(op.cls);
        core::ViolationKind lsq_violation = core::ViolationKind::None;
        mem::RestAccess store_wr;

        if (op.isLoad()) {
            lsq_.prune(issue);
            LoadLsqCheck chk = lsq_.checkLoad(seq_, op.eaddr, op.size);
            if (chk.violation != core::ViolationKind::None) {
                lsq_violation = chk.violation;
                complete = issue + 1;
            } else if (chk.forwarded) {
                ++loadsForwarded_;
                complete = issue + 1;
            } else {
                Cycles start = std::max(issue + 1, chk.mustWaitUntil);
                mem::RestAccess acc =
                    dcache_.loadAccess(op.eaddr, op.size, start);
                complete = acc.completeAt;
                if (pay_fill_tail && !acc.hit)
                    complete += fill_tail;
            }
        } else if (op.isStoreLike()) {
            lsq_.prune(issue);
            lsq_violation = lsq_.checkInsert(op.eaddr, op.size,
                                             op.isArm(), op.isDisarm());
            complete = issue + 1; // address + data ready
        }

        // ---------------- Commit (in order) ----------------
        Cycles commit = std::max(complete + 1, lastCommitCycle_);
        if (commit == lastCommitCycle_ &&
            commitsThisCycle_ >= cfg_.commitWidth) {
            ++commit;
        }

        if (op.isStoreLike() &&
            lsq_violation == core::ViolationKind::None) {
            // Secure mode: the line fetch (store RFO) starts at
            // execute and overlaps younger work; commit is never
            // blocked. Debug mode: like gem5's O3 + classic caches,
            // the store is presented to the L1-D when it reaches the
            // ROB head, and commit waits for the write (and any line
            // fill) to complete -- this is precisely the cost of the
            // precise-exception guarantee (§III-B).
            Cycles write_start = delay_stores ? commit : issue + 1;
            if (op.fault != isa::FaultKind::RestMisaligned) {
                if (op.isArm()) {
                    store_wr = dcache_.armAccess(op.eaddr, write_start);
                    ++armsCommitted_;
                } else if (op.isDisarm()) {
                    store_wr = dcache_.disarmAccess(op.eaddr,
                                                    write_start);
                    ++disarmsCommitted_;
                } else {
                    store_wr = dcache_.storeAccess(op.eaddr, op.size,
                                                   write_start);
                    ++storesCommitted_;
                }
            }
            Cycles write_done = std::max(store_wr.completeAt,
                commit + cfg_.storeCommitAckCycles);
            if (delay_stores) {
                // Debug mode: hold commit until the write completes so
                // a REST violation arrives while the op is still in
                // the ROB (precise exceptions).
                if (write_done > commit) {
                    robStoreBlockedCycles_ += write_done - commit;
                    commit = write_done;
                }
            }
            lsq_.insert({seq_, op.eaddr, op.size, op.isArm(),
                         op.isDisarm(), write_done});
        }

        if (commit > lastCommitCycle_) {
            lastCommitCycle_ = commit;
            commitsThisCycle_ = 1;
        } else {
            ++commitsThisCycle_;
        }

        if (ts) {
            if (trace_pipe && ts->flagOn(trace::Flag::O3Pipe,
                                         fetch_cycle)) {
                // O3PipeView record. The one-pass model has no
                // explicit decode/rename stages; synthesise them
                // inside the front-end span so viewers render a
                // well-formed (monotone) pipeline.
                trace::PipeRecord rec;
                rec.seq = seq_;
                rec.pc = op.pc;
                rec.disasm = isa::mnemonic(op.op);
                rec.fetch = fetch_cycle;
                rec.decode = std::min(fetch_cycle + 1, dispatch);
                rec.rename = std::max(
                    rec.decode, std::min(fetch_cycle + 2, dispatch));
                rec.dispatch = dispatch;
                rec.issue = issue;
                rec.complete = complete;
                rec.retire = commit;
                rec.storeComplete =
                    op.isStoreLike() ? store_wr.completeAt : 0;
                ts->pipeView(rec);
            }
            ts->statsTick(commit);
        }

        // Writeback: result becomes available to consumers.
        if (op.rd != isa::noReg && op.rd != isa::regZero)
            regReadyAt_[op.rd] = complete;

        robFreeAt_[robPos_] = commit;
        if (++robPos_ == cfg_.robEntries)
            robPos_ = 0;
        if (op.isLoad()) {
            lqFreeAt_[lqPos_] = commit;
            if (++lqPos_ == cfg_.lqEntries)
                lqPos_ = 0;
        }

        if (mispredicted) {
            ++branchMispredicts_;
            redirectAt_ = complete + cfg_.mispredictPenalty;
        }
        if (serializeUntil_) {
            // The serialized REST op stalls fetch until it commits.
            redirectAt_ = std::max(redirectAt_, commit + 1);
            serializeUntil_ = false;
        }

        ++seq_;
        ++committedOps_;
        ++result.committedOps;
        ++result.opsBySource[static_cast<unsigned>(op.source)];

        // ---------------- Exceptions ----------------
        core::ViolationKind arch_fault = core::ViolationKind::None;
        switch (op.fault) {
          case isa::FaultKind::RestTokenAccess:
            arch_fault = core::ViolationKind::TokenAccess;
            break;
          case isa::FaultKind::RestDisarmUnarmed:
            arch_fault = core::ViolationKind::DisarmUnarmed;
            break;
          case isa::FaultKind::RestMisaligned:
            arch_fault = core::ViolationKind::MisalignedRestInst;
            break;
          case isa::FaultKind::AsanReport:
            arch_fault = core::ViolationKind::AsanCheckFailed;
            break;
          case isa::FaultKind::MteTagMismatch:
            arch_fault = core::ViolationKind::TagMismatch;
            break;
          case isa::FaultKind::PauthCheckFailed:
            arch_fault = core::ViolationKind::PauthCheckFailed;
            break;
          case isa::FaultKind::None:
            break;
        }
        if (lsq_violation != core::ViolationKind::None)
            arch_fault = lsq_violation;

        if (arch_fault != core::ViolationKind::None) {
            result.violation.kind = arch_fault;
            result.violation.faultAddr = op.eaddr;
            result.violation.pc = op.pc;
            // Local to this call, like committedOps.
            result.violation.seq = result.committedOps - 1;
            result.violation.reportCycle = commit;
            // Misaligned REST instructions fault precisely at decode;
            // everything else is precise only in debug mode.
            bool precise = debug_mode ||
                arch_fault == core::ViolationKind::MisalignedRestInst ||
                arch_fault == core::ViolationKind::AsanCheckFailed ||
                arch_fault == core::ViolationKind::TagMismatch ||
                arch_fault == core::ViolationKind::PauthCheckFailed;
            result.violation.precision = precise
                ? core::Precision::Precise
                : core::Precision::Imprecise;
            break;
        }
    }

    result.cycles = lastCommitCycle_;
    totalCycles_.set(lastCommitCycle_);
    return result;
}

} // namespace rest::cpu
