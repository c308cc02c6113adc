/**
 * @file
 * Dynamic-instruction record exchanged between the functional emulator
 * and the timing CPU models.
 *
 * The reproduction uses an emulate-ahead / timing-behind organisation:
 * the functional emulator executes the guest program (including runtime
 * expansion of allocator and libc-interceptor work) and streams DynOps
 * to a timing model, which charges cycles through its pipeline, branch
 * predictor and cache hierarchy. No timing-dependent functional
 * behaviour exists in the modelled system, so this split is exact.
 */

#ifndef REST_ISA_DYN_OP_HH
#define REST_ISA_DYN_OP_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "isa/inst.hh"
#include "isa/opcode.hh"
#include "util/types.hh"

namespace rest::isa
{

/** Why an op faults, determined functionally, reported by timing. */
enum class FaultKind : std::uint8_t
{
    None,
    /** Access touched a REST token (privileged REST exception). */
    RestTokenAccess,
    /** Disarm of a location that holds no token. */
    RestDisarmUnarmed,
    /** Misaligned arm/disarm (precise invalid-REST-instruction). */
    RestMisaligned,
    /** ASan shadow check failed (software-detected violation). */
    AsanReport,
    /** MTE-style lock-and-key tag check failed (pointer tag did not
     *  match the memory granule's tag). */
    MteTagMismatch,
    /** Pointer-authentication check failed (missing or revoked
     *  signature on a data pointer). */
    PauthCheckFailed,
};

/** One dynamic operation as consumed by a timing CPU model. */
struct DynOp
{
    std::uint64_t seq = 0;  ///< global dynamic sequence number
    Addr pc = 0;            ///< instruction PC (for I-cache and bpred)
    Opcode op = Opcode::Nop;
    OpClass cls = OpClass::No_OpClass;
    OpSource source = OpSource::Program;

    RegId rd = noReg;
    RegId rs1 = noReg;
    RegId rs2 = noReg;

    // Memory ops
    Addr eaddr = invalidAddr; ///< effective address
    std::uint8_t size = 0;    ///< access size in bytes

    // Control flow (resolved outcome from the functional emulator)
    bool isBranch = false;
    bool taken = false;
    Addr nextPc = 0;          ///< architecturally correct next PC

    FaultKind fault = FaultKind::None;

    bool isLoad() const { return op == Opcode::Load; }
    bool isStore() const { return op == Opcode::Store; }
    bool isArm() const { return op == Opcode::Arm; }
    bool isDisarm() const { return op == Opcode::Disarm; }
    bool isMem() const { return eaddr != invalidAddr; }
    /** Anything handled by the store queue (writes memory). */
    bool isStoreLike() const { return isStore() || isArm() || isDisarm(); }
};

/**
 * FIFO of dynamic ops between the emulator's step machinery and its
 * consumers. Vector-backed with head and tail indices instead of
 * std::deque: the queue fully drains between program instructions
 * (runtime sequences are short and bounded), so popping just advances
 * the head, and the slots are reused from the start whenever the queue
 * empties; the storage never shrinks. The explicit tail keeps empty()
 * to one compare: vector::size() divides by sizeof(DynOp).
 */
class OpQueue
{
  public:
    bool empty() const { return head_ == tail_; }
    std::size_t size() const { return tail_ - head_; }

    void
    push_back(const DynOp &op)
    {
        if (tail_ == buf_.size())
            buf_.push_back(op);
        else
            buf_[tail_] = op;
        ++tail_;
    }

    DynOp &back() { return buf_[tail_ - 1]; }
    const DynOp &front() const { return buf_[head_]; }

    void
    pop_front()
    {
        if (++head_ == tail_)
            clear();
    }

    void clear() { head_ = tail_ = 0; }

    const DynOp *begin() const { return buf_.data() + head_; }
    const DynOp *end() const { return buf_.data() + tail_; }

  private:
    /** Slots [head_, tail_) are queued; the rest are recycled. */
    std::vector<DynOp> buf_;
    std::size_t head_ = 0;
    std::size_t tail_ = 0;
};

/**
 * Pull interface for dynamic op streams. The functional emulator and
 * the directed test drivers implement this; CPU models consume it.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce the next dynamic op.
     * @param out filled with the next op on success.
     * @return false when the stream is exhausted (program halted).
     */
    virtual bool next(DynOp &out) = 0;

    /**
     * Produce up to 'max' ops into 'out'. Semantically identical to
     * calling next() 'max' times; one virtual dispatch per batch
     * instead of per op, and implementations can keep their stepping
     * state in registers across the whole batch. A short fill means
     * the stream drained (halt or fault) — exactly like next()
     * returning false.
     */
    virtual std::size_t
    nextBatch(DynOp *out, std::size_t max)
    {
        std::size_t n = 0;
        while (n < max && next(out[n]))
            ++n;
        return n;
    }
};

} // namespace rest::isa

#endif // REST_ISA_DYN_OP_HH
