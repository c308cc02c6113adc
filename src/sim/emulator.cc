#include "sim/emulator.hh"

#include "util/bit_utils.hh"
#include "util/logging.hh"

namespace rest::sim
{

using isa::DynOp;
using isa::FaultKind;
using isa::Inst;
using isa::Opcode;

Emulator::Emulator(const isa::Program &program, mem::GuestMemory &memory,
                   core::RestEngine &engine,
                   runtime::Allocator &allocator,
                   const runtime::SchemeConfig &scheme,
                   const runtime::AccessPolicy *policy, Addr stack_top)
    : program_(program), memory_(memory), engine_(engine),
      allocator_(allocator), scheme_(scheme), policy_(policy),
      interceptors_(memory, engine, scheme_, policy), shadow_(memory)
{
    rest_assert(!program.funcs.empty(), "program has no functions");
    decode_.prepare(program);
    pcBases_.reserve(program.funcs.size());
    for (std::size_t i = 0; i < program.funcs.size(); ++i)
        pcBases_.push_back(program.pcBase(i));
    regs_[isa::regSp] = stack_top;
    regs_[isa::regFp] = stack_top;
    emitter_ = std::make_unique<runtime::OpEmitter>(
        queue_, runtime::AddressMap::runtimeTextBase, scheme.perfectHw);
    enterFunc(0);
}

void
Emulator::enterFunc(std::size_t f)
{
    funcIdx_ = f;
    const auto &fn = program_.funcs[f];
    insts_ = fn.insts.data();
    fnInsts_ = fn.insts.size();
    decodeRow_ = decode_.row(f);
    pcBase_ = pcBases_[f];
}

void
Emulator::raise(DynOp &op, FaultKind kind)
{
    op.fault = kind;
    fault_ = kind;
    halted_ = true;
}

bool
Emulator::step(DynOp &op)
{
    if (instIdx_ >= fnInsts_) {
        // Fell off the end of a function without Ret: treat as halt.
        halted_ = true;
        return false;
    }
    const Inst &inst = insts_[instIdx_];
    // The op is built in the consumer's slot: one copy from the decode
    // template, zero copies afterwards. Runtime-expanding cases push it
    // into the queue ahead of their own ops instead.
    op = decodeRow_[instIdx_];

    auto reg = [&](isa::RegId r) -> std::uint64_t {
        return r == isa::noReg ? 0 : regs_[r];
    };
    auto setReg = [&](isa::RegId r, std::uint64_t v) {
        if (r != isa::noReg && r != isa::regZero)
            regs_[r] = v;
    };
    auto s64 = [](std::uint64_t v) {
        return static_cast<std::int64_t>(v);
    };

    // Architectural token check for ordinary accesses: what the L1-D
    // token bits catch in hardware.
    auto tokenCheck = [&](Addr ea, unsigned size) {
        return !scheme_.perfectHw && engine_.armedCount() != 0 &&
            engine_.overlapsArmed(ea, size);
    };

    bool advance = true;

    switch (inst.op) {
      case Opcode::Nop:
        break;
      case Opcode::Halt:
        halted_ = true;
        advance = false;
        break;

      case Opcode::Add:
        setReg(inst.rd, reg(inst.rs1) + reg(inst.rs2));
        break;
      case Opcode::Sub:
        setReg(inst.rd, reg(inst.rs1) - reg(inst.rs2));
        break;
      case Opcode::Mul:
      case Opcode::FMul:
        setReg(inst.rd, reg(inst.rs1) * reg(inst.rs2));
        break;
      case Opcode::Div:
      case Opcode::FDiv: {
        std::uint64_t d = reg(inst.rs2);
        setReg(inst.rd, d ? reg(inst.rs1) / d : 0);
        break;
      }
      case Opcode::FAdd:
        setReg(inst.rd, reg(inst.rs1) + reg(inst.rs2));
        break;
      case Opcode::And:
        setReg(inst.rd, reg(inst.rs1) & reg(inst.rs2));
        break;
      case Opcode::Or:
        setReg(inst.rd, reg(inst.rs1) | reg(inst.rs2));
        break;
      case Opcode::Xor:
        setReg(inst.rd, reg(inst.rs1) ^ reg(inst.rs2));
        break;
      case Opcode::Shl:
        setReg(inst.rd, reg(inst.rs1) << (reg(inst.rs2) & 63));
        break;
      case Opcode::Shr:
        setReg(inst.rd, reg(inst.rs1) >> (reg(inst.rs2) & 63));
        break;
      case Opcode::AddI:
        setReg(inst.rd, reg(inst.rs1) +
               static_cast<std::uint64_t>(inst.imm));
        break;
      case Opcode::AndI:
        setReg(inst.rd, reg(inst.rs1) &
               static_cast<std::uint64_t>(inst.imm));
        break;
      case Opcode::OrI:
        setReg(inst.rd, reg(inst.rs1) |
               static_cast<std::uint64_t>(inst.imm));
        break;
      case Opcode::XorI:
        setReg(inst.rd, reg(inst.rs1) ^
               static_cast<std::uint64_t>(inst.imm));
        break;
      case Opcode::ShlI:
        setReg(inst.rd, reg(inst.rs1) << (inst.imm & 63));
        break;
      case Opcode::ShrI:
        setReg(inst.rd, reg(inst.rs1) >> (inst.imm & 63));
        break;
      case Opcode::MovImm:
        setReg(inst.rd, static_cast<std::uint64_t>(inst.imm));
        break;
      case Opcode::Mov:
        setReg(inst.rd, reg(inst.rs1));
        break;
      case Opcode::Slt:
        setReg(inst.rd, s64(reg(inst.rs1)) < s64(reg(inst.rs2)));
        break;
      case Opcode::SltI:
        setReg(inst.rd, s64(reg(inst.rs1)) < inst.imm);
        break;

      case Opcode::Load: {
        Addr ea = reg(inst.rs1) + static_cast<std::uint64_t>(inst.imm);
        if (policy_) {
            // Tag-checking schemes: authenticate the raw pointer,
            // then access through the canonical (tag-stripped) form.
            const FaultKind pf = policy_->checkAccess(ea, inst.width);
            ea = policy_->canonical(ea);
            op.eaddr = ea;
            if (pf != FaultKind::None) {
                raise(op, pf);
                advance = false;
                break;
            }
        } else {
            op.eaddr = ea;
            if (tokenCheck(ea, inst.width)) {
                raise(op, FaultKind::RestTokenAccess);
                advance = false;
                break;
            }
        }
        setReg(inst.rd, memory_.read(ea, inst.width));
        break;
      }
      case Opcode::Store: {
        Addr ea = reg(inst.rs1) + static_cast<std::uint64_t>(inst.imm);
        if (policy_) {
            const FaultKind pf = policy_->checkAccess(ea, inst.width);
            ea = policy_->canonical(ea);
            op.eaddr = ea;
            if (pf != FaultKind::None) {
                raise(op, pf);
                advance = false;
                break;
            }
        } else {
            op.eaddr = ea;
            if (tokenCheck(ea, inst.width)) {
                raise(op, FaultKind::RestTokenAccess);
                advance = false;
                break;
            }
        }
        memory_.write(ea, reg(inst.rs2), inst.width);
        break;
      }

      case Opcode::Arm:
      case Opcode::Disarm: {
        Addr ea = reg(inst.rs1) + static_cast<std::uint64_t>(inst.imm);
        op.eaddr = ea;
        if (scheme_.perfectHw) {
            // PerfectHW limit study: arm/disarm become plain stores.
            op.op = Opcode::Store;
            op.cls = isa::OpClass::MemWrite;
            op.size = 8;
            memory_.write(ea, 0, 8);
            break;
        }
        const unsigned g = engine_.configRegister().granule();
        op.size = static_cast<std::uint8_t>(g);
        if (!isAligned(ea, g)) {
            raise(op, FaultKind::RestMisaligned);
            advance = false;
            break;
        }
        if (inst.op == Opcode::Arm) {
            engine_.arm(ea);
            memory_.writeBytes(
                ea, engine_.configRegister().token().bytes());
        } else {
            auto chk = engine_.disarm(ea);
            if (!chk.ok()) {
                raise(op, FaultKind::RestDisarmUnarmed);
                advance = false;
                break;
            }
            memory_.fill(ea, 0, g);
        }
        break;
      }

      case Opcode::AsanCheck: {
        Addr ea = reg(inst.rs2);
        op.eaddr = invalidAddr; // check op itself is not a memory op
        if (!shadow_.accessOk(ea, inst.width)) {
            raise(op, FaultKind::AsanReport);
            advance = false;
        }
        break;
      }

      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge: {
        bool taken = false;
        std::int64_t a = s64(reg(inst.rs1));
        std::int64_t b = s64(reg(inst.rs2));
        switch (inst.op) {
          case Opcode::Beq: taken = a == b; break;
          case Opcode::Bne: taken = a != b; break;
          case Opcode::Blt: taken = a < b; break;
          case Opcode::Bge: taken = a >= b; break;
          default: break;
        }
        op.isBranch = true;
        op.taken = taken;
        if (taken) {
            instIdx_ = static_cast<std::size_t>(inst.target);
            advance = false;
        }
        op.nextPc = pcBase_ +
            4 * (taken ? static_cast<std::size_t>(inst.target)
                       : instIdx_ + 1);
        break;
      }
      case Opcode::Jmp:
        op.isBranch = true;
        op.taken = true;
        instIdx_ = static_cast<std::size_t>(inst.target);
        op.nextPc = pcBase_ + 4 * instIdx_;
        advance = false;
        break;
      case Opcode::Call: {
        op.isBranch = true;
        op.taken = true;
        callStack_.push_back({funcIdx_, instIdx_ + 1,
                              regs_[isa::regFp], regs_[isa::regSp]});
        enterFunc(static_cast<std::size_t>(inst.target));
        instIdx_ = 0;
        op.nextPc = pcBase_;
        advance = false;
        break;
      }
      case Opcode::Ret: {
        op.isBranch = true;
        op.taken = true;
        rest_assert(!callStack_.empty(), "ret with empty call stack");
        Frame frame = callStack_.back();
        callStack_.pop_back();
        // Caller-saved frame/stack pointers are restored (models the
        // conventional pop of the saved fp).
        regs_[isa::regFp] = frame.savedFp;
        regs_[isa::regSp] = frame.savedSp;
        enterFunc(frame.funcIdx);
        instIdx_ = frame.retInstIdx;
        op.nextPc = pcBase_ + 4 * instIdx_;
        advance = false;
        break;
      }

      case Opcode::RtMalloc: {
        op.isBranch = true;
        op.taken = true;
        op.nextPc = runtime::AddressMap::runtimeTextBase;
        queue_.push_back(op);
        Addr payload = allocator_.malloc(reg(inst.rs1), *emitter_);
        setReg(isa::regRet, payload);
        ++instIdx_;
        goto check_runtime_fault;
      }
      case Opcode::RtFree: {
        op.isBranch = true;
        op.taken = true;
        op.nextPc = runtime::AddressMap::runtimeTextBase;
        queue_.push_back(op);
        allocator_.free(reg(inst.rs1), *emitter_);
        ++instIdx_;
        goto check_runtime_fault;
      }
      case Opcode::RtMemcpy: {
        op.isBranch = true;
        op.taken = true;
        op.nextPc = runtime::AddressMap::interceptTextBase;
        queue_.push_back(op);
        interceptors_.memcpy(reg(inst.rs1), reg(inst.rs2),
                             reg(inst.rd), *emitter_);
        ++instIdx_;
        goto check_runtime_fault;
      }
      case Opcode::RtMemset: {
        op.isBranch = true;
        op.taken = true;
        op.nextPc = runtime::AddressMap::interceptTextBase;
        queue_.push_back(op);
        interceptors_.memset(reg(inst.rs1),
                             static_cast<std::uint8_t>(reg(inst.rs2)),
                             reg(inst.rd), *emitter_);
        ++instIdx_;
        goto check_runtime_fault;
      }
      case Opcode::RtStrcpy: {
        op.isBranch = true;
        op.taken = true;
        op.nextPc = runtime::AddressMap::interceptTextBase;
        queue_.push_back(op);
        interceptors_.strcpy(reg(inst.rs1), reg(inst.rs2), *emitter_);
        ++instIdx_;
        goto check_runtime_fault;
      }

      default:
        rest_panic("emulator: unhandled opcode ",
                   static_cast<int>(inst.op));
    }

    // One op, no runtime expansion: it is already in the consumer's
    // slot.
    if (advance)
        ++instIdx_;
    return true;

  check_runtime_fault:
    // Runtime services mark faults on the ops they emit; surface the
    // first one.
    for (const auto &queued : queue_) {
        if (queued.fault != FaultKind::None) {
            fault_ = queued.fault;
            halted_ = true;
            break;
        }
    }
    return false;
}

bool
Emulator::next(DynOp &out)
{
    return nextBatch(&out, 1) == 1;
}

std::size_t
Emulator::nextBatch(DynOp *out, std::size_t max)
{
    // The one stepping loop, for next() and batch consumers alike:
    // step() inlines here, and the common one-op-per-step case goes
    // straight into the caller's slot with no queue traffic.
    std::size_t n = 0;
    while (n < max) {
        DynOp &slot = out[n];
        if (!queue_.empty()) {
            slot = queue_.front();
            queue_.pop_front();
        } else if (halted_) {
            break;
        } else if (!step(slot)) {
            continue; // runtime expansion queued ops, or halt
        }
        slot.seq = seq_++;
        ++n;
        if (slot.fault != FaultKind::None) {
            // Nothing after the faulting op executes.
            halted_ = true;
            fault_ = slot.fault;
            queue_.clear();
            break;
        }
    }
    return n;
}

} // namespace rest::sim
