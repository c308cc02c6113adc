#include "sim/fast_functional.hh"

#include <algorithm>

namespace rest::sim
{

FastFunctional::FastFunctional(core::RestMode mode)
    : mode_(mode), stats_("fastfunc"),
      retiredOps_(stats_.addScalar("retired_ops",
          "dynamic ops retired functionally")),
      nominalCycles_(stats_.addScalar("nominal_cycles",
          "nominal cycles (CPI == 1; not a timing result)")),
      batches_(stats_.addScalar("batches",
          "arena batches pulled from the op stream"))
{}

cpu::RunResult
FastFunctional::run(isa::TraceSource &src, std::uint64_t max_ops)
{
    cpu::RunResult result;
    // Per-source retire counts in locals, so they stay in registers:
    // an indexed ++count[op.source] chains a load and a store from
    // one op to the next. Program ops are the remainder.
    static_assert(isa::numOpSources == 5, "count every OpSource");
    std::uint64_t checks = 0, stack_setup = 0, allocator = 0,
                  interceptor = 0;
    const bool debug_mode = mode_ == core::RestMode::Debug;
    bool stop = false;

    // One arena block of op records, constructed once and recycled
    // (overwritten in place) by every batch — the fill is a plain
    // assignment loop with no per-batch construction cost.
    isa::DynOp *block = batch_;
    if (block == nullptr)
        block = batch_ = arena_.alloc<isa::DynOp>(batchOps);

    while (!stop && result.committedOps < max_ops) {
        const std::uint64_t want = std::min<std::uint64_t>(
            batchOps, max_ops - result.committedOps);
        // A faulting op halts the source, so the fill stops right
        // after it and the batch is exact.
        const std::uint64_t filled = src.nextBatch(block, want);
        if (filled < want)
            stop = true; // stream drained (halt or fault)

        std::uint64_t retired = 0;
        for (std::uint64_t i = 0; i < filled; ++i) {
            const isa::DynOp &op = block[i];
            checks += op.source == isa::OpSource::AccessCheck;
            stack_setup += op.source == isa::OpSource::StackSetup;
            allocator += op.source == isa::OpSource::Allocator;
            interceptor += op.source == isa::OpSource::Interceptor;
            ++retired;

            if (op.fault == isa::FaultKind::None)
                continue;

            // Same FaultKind -> ViolationKind mapping and precision
            // policy as the detailed O3 commit stage; the faulting op
            // retires, nothing after it does.
            core::ViolationKind kind = core::ViolationKind::None;
            switch (op.fault) {
              case isa::FaultKind::RestTokenAccess:
                kind = core::ViolationKind::TokenAccess;
                break;
              case isa::FaultKind::RestDisarmUnarmed:
                kind = core::ViolationKind::DisarmUnarmed;
                break;
              case isa::FaultKind::RestMisaligned:
                kind = core::ViolationKind::MisalignedRestInst;
                break;
              case isa::FaultKind::AsanReport:
                kind = core::ViolationKind::AsanCheckFailed;
                break;
              case isa::FaultKind::MteTagMismatch:
                kind = core::ViolationKind::TagMismatch;
                break;
              case isa::FaultKind::PauthCheckFailed:
                kind = core::ViolationKind::PauthCheckFailed;
                break;
              case isa::FaultKind::None:
                break;
            }
            result.violation.kind = kind;
            result.violation.faultAddr = op.eaddr;
            result.violation.pc = op.pc;
            result.violation.seq = op.seq;
            result.violation.reportCycle = result.committedOps + retired;
            bool precise = debug_mode ||
                kind == core::ViolationKind::MisalignedRestInst ||
                kind == core::ViolationKind::AsanCheckFailed ||
                kind == core::ViolationKind::TagMismatch ||
                kind == core::ViolationKind::PauthCheckFailed;
            result.violation.precision = precise
                ? core::Precision::Precise
                : core::Precision::Imprecise;
            stop = true;
            break;
        }

        // Batched stat flush: one scalar update per batch.
        result.committedOps += retired;
        retiredOps_ += retired;
        ++batches_;
    }

    auto &by_source = result.opsBySource;
    by_source[unsigned(isa::OpSource::AccessCheck)] = checks;
    by_source[unsigned(isa::OpSource::StackSetup)] = stack_setup;
    by_source[unsigned(isa::OpSource::Allocator)] = allocator;
    by_source[unsigned(isa::OpSource::Interceptor)] = interceptor;
    by_source[unsigned(isa::OpSource::Program)] = result.committedOps -
        checks - stack_setup - allocator - interceptor;
    result.cycles = result.committedOps; // nominal CPI == 1
    nominalCycles_.set(result.cycles);
    return result;
}

} // namespace rest::sim
