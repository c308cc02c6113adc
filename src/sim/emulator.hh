/**
 * @file
 * The functional emulator: executes a finalised guest program against
 * guest memory, the configured allocator/runtime and the REST engine,
 * and streams dynamic ops (isa::TraceSource) to a timing CPU model.
 *
 * Faults are detected here architecturally — every load/store is
 * checked against the armed-granule set (what the L1-D token bits
 * would catch), AsanCheck ops evaluate the shadow, arm/disarm enforce
 * alignment and pairing — and are carried on the faulting DynOp for
 * the timing model to report with the configured precision.
 */

#ifndef REST_SIM_EMULATOR_HH
#define REST_SIM_EMULATOR_HH

#include <array>
#include <memory>
#include <vector>

#include "core/rest_engine.hh"
#include "isa/decode_cache.hh"
#include "isa/dyn_op.hh"
#include "isa/program.hh"
#include "mem/guest_memory.hh"
#include "runtime/access_policy.hh"
#include "runtime/allocator.hh"
#include "runtime/interceptors.hh"
#include "runtime/runtime_config.hh"
#include "runtime/shadow_memory.hh"

namespace rest::sim
{

/** Functional execution + trace generation. */
class Emulator final : public isa::TraceSource
{
  public:
    /**
     * @param program finalised (instrumented) program.
     * @param memory guest memory.
     * @param engine REST architectural referee.
     * @param allocator the linked-in allocator model.
     * @param scheme active software configuration.
     * @param policy per-access check predicate for pointer-tagging
     *        schemes (mte, pauth); null keeps the historical inline
     *        token/shadow path untouched.
     * @param stack_top initial sp/fp. The default is the historical
     *        single-core stack; the multicore machine gives every
     *        core's emulator a disjoint slice below it.
     */
    Emulator(const isa::Program &program, mem::GuestMemory &memory,
             core::RestEngine &engine, runtime::Allocator &allocator,
             const runtime::SchemeConfig &scheme,
             const runtime::AccessPolicy *policy = nullptr,
             Addr stack_top = runtime::AddressMap::stackTop);

    /** TraceSource: produce the next dynamic op (a batch of one). */
    bool next(isa::DynOp &out) override;

    /** TraceSource: batch drain — the one stepping loop. */
    std::size_t nextBatch(isa::DynOp *out, std::size_t max) override;

    /** Architectural register read (test support). */
    std::uint64_t reg(isa::RegId r) const { return regs_[r]; }

    /** Has the program halted (or faulted)? */
    bool halted() const { return halted_ && queue_.empty(); }

    /** Did execution fault, and how? */
    isa::FaultKind faultKind() const { return fault_; }

    /** Total ops produced so far. */
    std::uint64_t opsProduced() const { return seq_; }

    mem::GuestMemory &memory() { return memory_; }
    runtime::Allocator &allocator() { return allocator_; }

  private:
    struct Frame
    {
        std::size_t funcIdx;
        std::size_t retInstIdx;
        std::uint64_t savedFp;
        std::uint64_t savedSp;
    };

    /**
     * Execute one guest instruction with the op queue empty. Its op is
     * built in 'op', the consumer's slot. Returns true when that op is
     * the whole result (no runtime expansion); false when the
     * instruction queued its ops instead (runtime services) or fell
     * off the end of a function. Inlined into nextBatch(), its only
     * caller.
     */
    [[gnu::always_inline]] inline bool step(isa::DynOp &op);

    /** Mark execution faulted at the given queued op. */
    void raise(isa::DynOp &op, isa::FaultKind kind);

    /**
     * Switch the stepping state to function 'f': caches the
     * instruction array, decode-template row, length and PC base so
     * step() touches no per-function tables — they change only on
     * Call/Ret, not per instruction.
     */
    void enterFunc(std::size_t f);

    const isa::Program &program_;
    mem::GuestMemory &memory_;
    core::RestEngine &engine_;
    runtime::Allocator &allocator_;
    runtime::SchemeConfig scheme_;
    /** Non-null for tag-checking schemes; owned by the allocator. */
    const runtime::AccessPolicy *policy_;
    runtime::Interceptors interceptors_;
    /** Static-decode work (pc/class/source/regs) paid once per
     *  program; step() copies templates instead of re-deriving. */
    isa::DecodeCache decode_;
    /** Shadow view reused across AsanCheck ops (check-sequence
     *  state hoisted out of the per-op path). */
    runtime::ShadowMemory shadow_;

    std::array<std::uint64_t, isa::numRegs> regs_{};
    std::vector<Frame> callStack_;
    std::size_t funcIdx_ = 0;
    std::size_t instIdx_ = 0;
    std::vector<Addr> pcBases_;
    /** Cached view of funcs[funcIdx_] (see enterFunc()). */
    const isa::Inst *insts_ = nullptr;
    const isa::DynOp *decodeRow_ = nullptr;
    std::size_t fnInsts_ = 0;
    Addr pcBase_ = 0;

    isa::OpQueue queue_;
    std::unique_ptr<runtime::OpEmitter> emitter_;

    bool halted_ = false;
    isa::FaultKind fault_ = isa::FaultKind::None;
    std::uint64_t seq_ = 0;
};

} // namespace rest::sim

#endif // REST_SIM_EMULATOR_HH
