#include "src/mcu/cpu.h"

#include "src/isa/cycles.h"
#include "src/mcu/snapshot.h"
#include "src/isa/encoding.h"
#include "src/mcu/bus-inl.h"
#include "src/mcu/memory_map.h"
#include "src/mcu/mpu.h"
#include "src/scope/flight_recorder.h"
#include "src/scope/probe.h"
#include "src/scope/profiler.h"

namespace amulet {

namespace {
constexpr uint16_t Mask(bool byte) { return byte ? 0x00FF : 0xFFFF; }
constexpr uint16_t SignBit(bool byte) { return byte ? 0x0080 : 0x8000; }
constexpr uint16_t kAluFlags = kSrCarry | kSrZero | kSrNegative | kSrOverflow;
}  // namespace

Cpu::Cpu(Bus* bus, Timer* timer, McuSignals* signals)
    : bus_(bus), timer_(timer), signals_(signals) {
  // The bus kills stale predecoded entries on every backing-memory mutation
  // (architectural writes, pokes, image loads, snapshot restore).
  bus_->SetCodeCache(&cache_);
}

void Cpu::Reset() {
  regs_.fill(0);
  halt_reason_ = HaltReason::kNone;
  signals_->nmi_pending = false;
  signals_->puc_requested = false;
  signals_->irq_pending = 0;
  signals_->stop_requested = false;
  set_reg(Reg::kPc, bus_->PeekWord(kResetVector));
}

void Cpu::SetFlag(uint16_t flag, bool set) {
  uint16_t& sr = regs_[RegIndex(Reg::kSr)];
  if (set) {
    sr |= flag;
  } else {
    sr &= static_cast<uint16_t>(~flag);
  }
}

void Cpu::SetFlagsLogical(uint16_t result, bool byte) {
  SetFlag(kSrZero, (result & Mask(byte)) == 0);
  SetFlag(kSrNegative, (result & SignBit(byte)) != 0);
  SetFlag(kSrCarry, (result & Mask(byte)) != 0);
  SetFlag(kSrOverflow, false);
}

void Cpu::PushWord(uint16_t value) {
  uint16_t sp = static_cast<uint16_t>(reg(Reg::kSp) - 2);
  set_reg(Reg::kSp, sp);
  bus_->WriteWord(sp, value, AccessKind::kWrite);
}

uint16_t Cpu::PopWord() {
  uint16_t sp = reg(Reg::kSp);
  uint16_t value = bus_->ReadWord(sp, AccessKind::kRead);
  set_reg(Reg::kSp, static_cast<uint16_t>(sp + 2));
  return value;
}

uint16_t Cpu::ReadOperand(const Operand& op, bool byte, uint16_t ext_word_addr, Loc* loc) {
  loc->is_reg = false;
  loc->writable = true;
  switch (op.mode) {
    case AddrMode::kRegister: {
      loc->is_reg = true;
      loc->reg = op.reg;
      uint16_t value = reg(op.reg);
      return static_cast<uint16_t>(value & Mask(byte));
    }
    case AddrMode::kConst:
    case AddrMode::kImmediate:
      loc->writable = false;
      return static_cast<uint16_t>(op.ext & Mask(byte));
    case AddrMode::kIndexed:
      loc->addr = static_cast<uint16_t>(reg(op.reg) + op.ext);
      break;
    case AddrMode::kSymbolic:
      loc->addr = static_cast<uint16_t>(ext_word_addr + op.ext);
      break;
    case AddrMode::kAbsolute:
      loc->addr = op.ext;
      break;
    case AddrMode::kIndirect:
      loc->addr = reg(op.reg);
      break;
    case AddrMode::kIndirectAutoInc: {
      loc->addr = reg(op.reg);
      uint16_t delta = (!byte || op.reg == Reg::kPc || op.reg == Reg::kSp) ? 2 : 1;
      set_reg(op.reg, static_cast<uint16_t>(reg(op.reg) + delta));
      break;
    }
  }
  if (byte) {
    return bus_->ReadByte(loc->addr, AccessKind::kRead);
  }
  return bus_->ReadWord(loc->addr, AccessKind::kRead);
}

void Cpu::WriteToLoc(const Loc& loc, bool byte, uint16_t value) {
  if (!loc.writable) {
    return;  // write to an immediate: architecturally meaningless, dropped
  }
  if (loc.is_reg) {
    // Byte operations clear the destination register's high byte.
    uint16_t full = byte ? static_cast<uint16_t>(value & 0xFF) : value;
    set_reg(loc.reg, full);
    return;
  }
  if (byte) {
    bus_->WriteByte(loc.addr, static_cast<uint8_t>(value & 0xFF), AccessKind::kWrite);
  } else {
    bus_->WriteWord(loc.addr, value, AccessKind::kWrite);
  }
}

void Cpu::ExecuteFormatOne(const Instruction& insn, uint16_t src_ext_addr,
                           uint16_t dst_ext_addr) {
  const bool byte = insn.byte;
  const uint16_t mask = Mask(byte);
  const uint16_t sign = SignBit(byte);

  Loc src_loc;
  uint16_t s = ReadOperand(insn.src, byte, src_ext_addr, &src_loc);

  Loc dst_loc;
  uint16_t d = 0;
  const bool needs_dst_read = insn.op != Opcode::kMov;
  if (needs_dst_read) {
    d = ReadOperand(insn.dst, byte, dst_ext_addr, &dst_loc);
  } else {
    // MOV still needs the destination location resolved (without a read).
    // Resolve manually to avoid a spurious bus read.
    switch (insn.dst.mode) {
      case AddrMode::kRegister:
        dst_loc.is_reg = true;
        dst_loc.reg = insn.dst.reg;
        dst_loc.writable = true;
        break;
      case AddrMode::kIndexed:
        dst_loc.addr = static_cast<uint16_t>(reg(insn.dst.reg) + insn.dst.ext);
        dst_loc.writable = true;
        break;
      case AddrMode::kSymbolic:
        dst_loc.addr = static_cast<uint16_t>(dst_ext_addr + insn.dst.ext);
        dst_loc.writable = true;
        break;
      case AddrMode::kAbsolute:
        dst_loc.addr = insn.dst.ext;
        dst_loc.writable = true;
        break;
      default:
        dst_loc.writable = false;
        break;
    }
  }

  auto add_like = [&](uint16_t a, uint16_t b, uint16_t carry_in) {
    uint32_t full = static_cast<uint32_t>(a) + b + carry_in;
    uint16_t r = static_cast<uint16_t>(full & mask);
    SetFlag(kSrCarry, full > mask);
    SetFlag(kSrZero, r == 0);
    SetFlag(kSrNegative, (r & sign) != 0);
    SetFlag(kSrOverflow, ((a ^ r) & (b ^ r) & sign) != 0);
    return r;
  };

  switch (insn.op) {
    case Opcode::kMov:
      WriteToLoc(dst_loc, byte, s);
      break;
    case Opcode::kAdd:
      WriteToLoc(dst_loc, byte, add_like(d, s, 0));
      break;
    case Opcode::kAddc:
      WriteToLoc(dst_loc, byte, add_like(d, s, GetFlag(kSrCarry) ? 1 : 0));
      break;
    case Opcode::kSub:
      WriteToLoc(dst_loc, byte, add_like(d, static_cast<uint16_t>(~s & mask), 1));
      break;
    case Opcode::kSubc:
      WriteToLoc(dst_loc, byte,
                 add_like(d, static_cast<uint16_t>(~s & mask), GetFlag(kSrCarry) ? 1 : 0));
      break;
    case Opcode::kCmp:
      add_like(d, static_cast<uint16_t>(~s & mask), 1);
      break;
    case Opcode::kDadd: {
      // Decimal (BCD) addition, digit by digit with carry.
      uint16_t carry = GetFlag(kSrCarry) ? 1 : 0;
      uint16_t result = 0;
      int digits = byte ? 2 : 4;
      for (int i = 0; i < digits; ++i) {
        uint16_t dn = static_cast<uint16_t>((d >> (4 * i)) & 0xF);
        uint16_t sn = static_cast<uint16_t>((s >> (4 * i)) & 0xF);
        uint16_t t = static_cast<uint16_t>(dn + sn + carry);
        if (t > 9) {
          t = static_cast<uint16_t>(t + 6);
          carry = 1;
        } else {
          carry = 0;
        }
        result |= static_cast<uint16_t>((t & 0xF) << (4 * i));
      }
      SetFlag(kSrCarry, carry != 0);
      SetFlag(kSrZero, (result & mask) == 0);
      SetFlag(kSrNegative, (result & sign) != 0);
      WriteToLoc(dst_loc, byte, result);
      break;
    }
    case Opcode::kBit: {
      uint16_t r = static_cast<uint16_t>(s & d & mask);
      SetFlagsLogical(r, byte);
      break;
    }
    case Opcode::kBic:
      WriteToLoc(dst_loc, byte, static_cast<uint16_t>(d & ~s & mask));
      break;
    case Opcode::kBis:
      WriteToLoc(dst_loc, byte, static_cast<uint16_t>((d | s) & mask));
      break;
    case Opcode::kXor: {
      uint16_t r = static_cast<uint16_t>((d ^ s) & mask);
      SetFlag(kSrZero, r == 0);
      SetFlag(kSrNegative, (r & sign) != 0);
      SetFlag(kSrCarry, r != 0);
      SetFlag(kSrOverflow, ((s & sign) != 0) && ((d & sign) != 0));
      WriteToLoc(dst_loc, byte, r);
      break;
    }
    case Opcode::kAnd: {
      uint16_t r = static_cast<uint16_t>((s & d) & mask);
      SetFlagsLogical(r, byte);
      WriteToLoc(dst_loc, byte, r);
      break;
    }
    default:
      halt_reason_ = HaltReason::kInvalidOpcode;
      break;
  }
}

void Cpu::ExecuteFormatTwo(const Instruction& insn, uint16_t ext_addr) {
  const bool byte = insn.byte;
  const uint16_t mask = Mask(byte);
  const uint16_t sign = SignBit(byte);

  if (insn.op == Opcode::kReti) {
    uint16_t sr = PopWord();
    uint16_t pc = PopWord();
    set_reg(Reg::kSr, sr);
    set_reg(Reg::kPc, pc);
    return;
  }

  Loc loc;
  uint16_t v = ReadOperand(insn.dst, byte, ext_addr, &loc);

  switch (insn.op) {
    case Opcode::kRrc: {
      bool old_c = GetFlag(kSrCarry);
      SetFlag(kSrCarry, (v & 1) != 0);
      uint16_t r = static_cast<uint16_t>((v >> 1) | (old_c ? sign : 0));
      SetFlag(kSrZero, (r & mask) == 0);
      SetFlag(kSrNegative, (r & sign) != 0);
      SetFlag(kSrOverflow, false);
      WriteToLoc(loc, byte, r);
      break;
    }
    case Opcode::kRra: {
      SetFlag(kSrCarry, (v & 1) != 0);
      uint16_t r = static_cast<uint16_t>((v >> 1) | (v & sign));
      SetFlag(kSrZero, (r & mask) == 0);
      SetFlag(kSrNegative, (r & sign) != 0);
      SetFlag(kSrOverflow, false);
      WriteToLoc(loc, byte, r);
      break;
    }
    case Opcode::kSwpb: {
      uint16_t r = static_cast<uint16_t>((v << 8) | (v >> 8));
      WriteToLoc(loc, /*byte=*/false, r);
      break;
    }
    case Opcode::kSxt: {
      uint16_t r = static_cast<uint16_t>((v & 0x80) != 0 ? (v | 0xFF00) : (v & 0x00FF));
      SetFlag(kSrZero, r == 0);
      SetFlag(kSrNegative, (r & 0x8000) != 0);
      SetFlag(kSrCarry, r != 0);
      SetFlag(kSrOverflow, false);
      WriteToLoc(loc, /*byte=*/false, r);
      break;
    }
    case Opcode::kPush: {
      // PUSH.B still decrements SP by 2 (stack stays word-aligned).
      uint16_t sp = static_cast<uint16_t>(reg(Reg::kSp) - 2);
      set_reg(Reg::kSp, sp);
      if (byte) {
        bus_->WriteByte(sp, static_cast<uint8_t>(v & 0xFF), AccessKind::kWrite);
      } else {
        bus_->WriteWord(sp, v, AccessKind::kWrite);
      }
      break;
    }
    case Opcode::kCall: {
      PushWord(reg(Reg::kPc));  // PC already advanced past the instruction
      set_reg(Reg::kPc, v);
      break;
    }
    default:
      halt_reason_ = HaltReason::kInvalidOpcode;
      break;
  }
}

void Cpu::ExecuteJump(const Instruction& insn, uint16_t insn_addr) {
  bool take = false;
  switch (insn.op) {
    case Opcode::kJnz:
      take = !GetFlag(kSrZero);
      break;
    case Opcode::kJz:
      take = GetFlag(kSrZero);
      break;
    case Opcode::kJnc:
      take = !GetFlag(kSrCarry);
      break;
    case Opcode::kJc:
      take = GetFlag(kSrCarry);
      break;
    case Opcode::kJn:
      take = GetFlag(kSrNegative);
      break;
    case Opcode::kJge:
      take = GetFlag(kSrNegative) == GetFlag(kSrOverflow);
      break;
    case Opcode::kJl:
      take = GetFlag(kSrNegative) != GetFlag(kSrOverflow);
      break;
    case Opcode::kJmp:
      take = true;
      break;
    default:
      break;
  }
  if (take) {
    set_reg(Reg::kPc,
            static_cast<uint16_t>(insn_addr + 2 + 2 * insn.jump_offset_words));
  }
}

void Cpu::AcceptInterrupt(uint16_t vector_slot) {
  uint16_t handler = bus_->ReadWord(vector_slot, AccessKind::kRead);
  if (handler == 0) {
    halt_reason_ = HaltReason::kNoVector;
    halt_pc_ = reg(Reg::kPc);
    return;
  }
  PushWord(reg(Reg::kPc));
  PushWord(reg(Reg::kSr));
  set_reg(Reg::kSr, 0);  // GIE cleared; CPUOFF cleared so the handler runs
  set_reg(Reg::kPc, handler);
  cycles_ += kInterruptAcceptCycles;
  timer_->Advance(kInterruptAcceptCycles);
  if (watchdog_ != nullptr) {
    watchdog_->Advance(kInterruptAcceptCycles);
  }
  // Attributed to the handler's region (the accept is work done on its
  // behalf); the pushes' FRAM penalties land with the next retired insn.
  AMULET_PROBE_ATTRIBUTE(profiler_, handler, kInterruptAcceptCycles);
  AMULET_PROBE_FLIGHT(flight_, FlightEventKind::kIrq, vector_slot, handler);
}

StepResult Cpu::Step() {
  if (halt_reason_ != HaltReason::kNone) {
    return StepResult::kHalted;
  }
  if (signals_->puc_requested) {
    return StepResult::kPuc;
  }
  if (signals_->stop_requested) {
    return StepResult::kStopped;
  }
  if (signals_->nmi_pending) {
    signals_->nmi_pending = false;
    AcceptInterrupt(kNmiVector);
    if (halt_reason_ != HaltReason::kNone) {
      return StepResult::kHalted;
    }
  } else if (GetFlag(kSrGie) && signals_->irq_pending != 0) {
    // Highest line number first (HOSTIO above timer, below NMI).
    for (int line = 15; line >= 0; --line) {
      if (signals_->IrqRaised(line)) {
        signals_->ClearIrq(line);
        AcceptInterrupt(line == kIrqTimer ? kTimerVector : kHostIoVector);
        break;
      }
    }
    if (halt_reason_ != HaltReason::kNone) {
      return StepResult::kHalted;
    }
  }

  if (GetFlag(kSrCpuOff)) {
    cycles_ += 1;
    timer_->Advance(1);
    if (watchdog_ != nullptr) {
      watchdog_->Advance(1);
    }
    AMULET_PROBE_ATTRIBUTE(profiler_, reg(Reg::kPc), 1);
    return StepResult::kOk;
  }

  const uint16_t insn_addr = reg(Reg::kPc);
  if (trace_ != nullptr) {
    trace_->Record(insn_addr);
  }
  if ((insn_addr & 1) != 0) {
    halt_reason_ = HaltReason::kOddPc;
    halt_pc_ = insn_addr;
    return StepResult::kHalted;
  }

  return predecode_enabled_ ? StepFast(insn_addr) : StepSlow(insn_addr);
}

StepResult Cpu::StepSlow(uint16_t insn_addr) {
  bus_->ClearFault();
  const uint16_t w0 = bus_->ReadWord(insn_addr, AccessKind::kFetch);
  if (bus_->fault() != BusFault::kNone) {
    halt_reason_ = HaltReason::kBusFault;
    halt_pc_ = insn_addr;
    return StepResult::kHalted;
  }

  const uint16_t probe[3] = {w0, 0, 0};
  Result<Instruction> decoded = Decode(probe);
  if (!decoded.ok()) {
    halt_reason_ = HaltReason::kInvalidOpcode;
    halt_pc_ = insn_addr;
    return StepResult::kHalted;
  }
  Instruction insn = std::move(decoded).value();

  // Fetch extension words in stream order, tracking their addresses (needed
  // to resolve symbolic/PC-relative operands).
  uint16_t next = static_cast<uint16_t>(insn_addr + 2);
  uint16_t src_ext_addr = 0;
  uint16_t dst_ext_addr = 0;
  if (IsFormatOne(insn.op) && ModeHasExtWord(insn.src.mode)) {
    src_ext_addr = next;
    insn.src.ext = bus_->ReadWord(next, AccessKind::kFetch);
    next = static_cast<uint16_t>(next + 2);
  }
  if (!IsJump(insn.op) && insn.op != Opcode::kReti && ModeHasExtWord(insn.dst.mode)) {
    dst_ext_addr = next;
    insn.dst.ext = bus_->ReadWord(next, AccessKind::kFetch);
    next = static_cast<uint16_t>(next + 2);
  }
  set_reg(Reg::kPc, next);

  if (IsJump(insn.op)) {
    ExecuteJump(insn, insn_addr);
  } else if (IsFormatTwo(insn.op)) {
    ExecuteFormatTwo(insn, dst_ext_addr);
  } else {
    ExecuteFormatOne(insn, src_ext_addr, dst_ext_addr);
  }

  if (bus_->fault() != BusFault::kNone) {
    halt_reason_ = HaltReason::kBusFault;
    halt_pc_ = insn_addr;
    return StepResult::kHalted;
  }
  if (halt_reason_ != HaltReason::kNone) {
    halt_pc_ = insn_addr;
    return StepResult::kHalted;
  }

  const uint64_t spent =
      static_cast<uint64_t>(InstructionCycles(insn)) + bus_->TakePenaltyCycles();
  cycles_ += spent;
  timer_->Advance(spent);
  if (watchdog_ != nullptr) {
    watchdog_->Advance(spent);
  }
  ++instructions_;
  AMULET_PROBE_ATTRIBUTE(profiler_, insn_addr, spent);
  // reg(kPc) was set to the fall-through address before execution, so any
  // difference now is a taken control transfer (jump, call, ret, PC write).
  // StepFast() hooks the same retirement point with the same predicate.
  if (reg(Reg::kPc) != next) {
    AMULET_PROBE_FLIGHT(flight_, FlightEventKind::kBranch, insn_addr, reg(Reg::kPc));
  }

  if (signals_->puc_requested) {
    return StepResult::kPuc;
  }
  if (signals_->stop_requested) {
    return StepResult::kStopped;
  }
  return StepResult::kOk;
}

template <AddrMode kMode>
uint16_t Cpu::OperandAddress(const Operand& op) {
  if constexpr (kMode == AddrMode::kIndexed) {
    return static_cast<uint16_t>(reg(op.reg) + op.ext);
  } else if constexpr (kMode == AddrMode::kAbsolute) {
    return op.ext;
  } else if constexpr (kMode == AddrMode::kIndirect) {
    return reg(op.reg);
  } else {
    static_assert(kMode == AddrMode::kIndirectAutoInc);
    const uint16_t addr = reg(op.reg);
    set_reg(op.reg, static_cast<uint16_t>(addr + 2));
    return addr;
  }
}

// Specialized Format-I execution for register destinations. With a
// register/constant/immediate source no bus access can occur; with a word
// memory source the only one is the source read, straight through
// Bus::ReadWord. Either way the generic ReadOperand/Loc/WriteToLoc machinery
// collapses into direct register-file reads and writes. The source is read
// before the destination (an @Rn+ source may step the destination
// register), and every flag computation, its ordering relative to the
// destination write (visible when the destination is SR), the byte-mode
// high-byte clear, and the PC bit-0 clear in set_reg() mirror
// ExecuteFormatOne exactly.
template <Opcode kOp, AddrMode kSrc>
void Cpu::FastAluRegDst(const PredecodedInsn& pd, uint16_t insn_addr) {
  (void)insn_addr;
  const Instruction& insn = pd.insn;
  // Memory-source slots are selected for word forms only.
  const bool byte = kSrc == AddrMode::kRegister && insn.byte;
  const uint16_t mask = Mask(byte);
  const uint16_t sign = SignBit(byte);
  uint16_t s;
  if constexpr (kSrc == AddrMode::kRegister) {
    s = static_cast<uint16_t>(
        (insn.src.mode == AddrMode::kRegister ? reg(insn.src.reg) : insn.src.ext) & mask);
  } else {
    s = bus_->ReadWord(OperandAddress<kSrc>(insn.src), AccessKind::kRead);
  }
  const Reg dst = insn.dst.reg;
  const uint16_t d = static_cast<uint16_t>(reg(dst) & mask);

  // Flags are folded into one SR read-modify-write instead of the baseline's
  // four SetFlag() calls; the final SR value is identical (and when the
  // destination IS SR, the subsequent write_dst overwrites it, exactly as
  // WriteToLoc does after ExecuteFormatOne's flag updates).
  auto set_flags = [&](uint16_t bits, uint16_t cleared = kAluFlags) {
    uint16_t& sr = regs_[RegIndex(Reg::kSr)];
    sr = static_cast<uint16_t>((sr & static_cast<uint16_t>(~cleared)) | bits);
  };
  auto add_like = [&](uint16_t a, uint16_t b, uint16_t carry_in) {
    uint32_t full = static_cast<uint32_t>(a) + b + carry_in;
    uint16_t r = static_cast<uint16_t>(full & mask);
    uint16_t bits = 0;
    if (full > mask) bits |= kSrCarry;
    if (r == 0) bits |= kSrZero;
    if ((r & sign) != 0) bits |= kSrNegative;
    if (((a ^ r) & (b ^ r) & sign) != 0) bits |= kSrOverflow;
    set_flags(bits);
    return r;
  };
  // N,Z from the result, C = !Z, V = 0 (SetFlagsLogical semantics).
  auto logical_flags = [&](uint16_t r) {
    uint16_t bits = 0;
    if (r == 0) bits |= kSrZero;
    if ((r & sign) != 0) bits |= kSrNegative;
    if (r != 0) bits |= kSrCarry;
    set_flags(bits);
  };
  // Byte operations clear the destination register's high byte (WriteToLoc
  // semantics); every result below is already masked to `mask`.
  auto write_dst = [&](uint16_t value) { set_reg(dst, value); };

  if constexpr (kOp == Opcode::kMov) {
    write_dst(s);
  } else if constexpr (kOp == Opcode::kAdd) {
    write_dst(add_like(d, s, 0));
  } else if constexpr (kOp == Opcode::kAddc) {
    write_dst(add_like(d, s, GetFlag(kSrCarry) ? 1 : 0));
  } else if constexpr (kOp == Opcode::kSubc) {
    write_dst(add_like(d, static_cast<uint16_t>(~s & mask), GetFlag(kSrCarry) ? 1 : 0));
  } else if constexpr (kOp == Opcode::kSub) {
    write_dst(add_like(d, static_cast<uint16_t>(~s & mask), 1));
  } else if constexpr (kOp == Opcode::kCmp) {
    add_like(d, static_cast<uint16_t>(~s & mask), 1);
  } else if constexpr (kOp == Opcode::kDadd) {
    uint16_t carry = GetFlag(kSrCarry) ? 1 : 0;
    uint16_t result = 0;
    int digits = byte ? 2 : 4;
    for (int i = 0; i < digits; ++i) {
      uint16_t dn = static_cast<uint16_t>((d >> (4 * i)) & 0xF);
      uint16_t sn = static_cast<uint16_t>((s >> (4 * i)) & 0xF);
      uint16_t t = static_cast<uint16_t>(dn + sn + carry);
      if (t > 9) {
        t = static_cast<uint16_t>(t + 6);
        carry = 1;
      } else {
        carry = 0;
      }
      result |= static_cast<uint16_t>((t & 0xF) << (4 * i));
    }
    // DADD leaves V untouched: clear/set only C, Z, N.
    uint16_t bits = 0;
    if (carry != 0) bits |= kSrCarry;
    if ((result & mask) == 0) bits |= kSrZero;
    if ((result & sign) != 0) bits |= kSrNegative;
    set_flags(bits, kSrCarry | kSrZero | kSrNegative);
    write_dst(static_cast<uint16_t>(result & mask));
  } else if constexpr (kOp == Opcode::kBit) {
    logical_flags(static_cast<uint16_t>(s & d & mask));
  } else if constexpr (kOp == Opcode::kBic) {
    write_dst(static_cast<uint16_t>(d & ~s & mask));
  } else if constexpr (kOp == Opcode::kBis) {
    write_dst(static_cast<uint16_t>((d | s) & mask));
  } else if constexpr (kOp == Opcode::kXor) {
    uint16_t r = static_cast<uint16_t>((d ^ s) & mask);
    uint16_t bits = 0;
    if (r == 0) bits |= kSrZero;
    if ((r & sign) != 0) bits |= kSrNegative;
    if (r != 0) bits |= kSrCarry;
    if (((s & sign) != 0) && ((d & sign) != 0)) bits |= kSrOverflow;
    set_flags(bits);
    write_dst(r);
  } else {
    static_assert(kOp == Opcode::kAnd);
    uint16_t r = static_cast<uint16_t>((s & d) & mask);
    logical_flags(r);
    write_dst(r);
  }
}

// Register-operand RRC/SWPB/RRA/SXT: single-word, no bus traffic, flag and
// write-back semantics copied from ExecuteFormatTwo with the same one-write
// SR update as FastAluRegDst.
template <Opcode kOp>
void Cpu::FastFmt2Reg(const PredecodedInsn& pd, uint16_t insn_addr) {
  (void)insn_addr;
  const Instruction& insn = pd.insn;
  const bool byte = insn.byte;
  const uint16_t mask = Mask(byte);
  const uint16_t sign = SignBit(byte);
  const Reg dst = insn.dst.reg;
  const uint16_t v = static_cast<uint16_t>(reg(dst) & mask);

  auto set_flags = [&](uint16_t bits) {
    uint16_t& sr = regs_[RegIndex(Reg::kSr)];
    sr = static_cast<uint16_t>((sr & static_cast<uint16_t>(~kAluFlags)) | bits);
  };

  if constexpr (kOp == Opcode::kRrc) {
    const bool old_c = GetFlag(kSrCarry);
    const uint16_t r = static_cast<uint16_t>((v >> 1) | (old_c ? sign : 0));
    uint16_t bits = 0;
    if ((v & 1) != 0) bits |= kSrCarry;
    if ((r & mask) == 0) bits |= kSrZero;
    if ((r & sign) != 0) bits |= kSrNegative;
    set_flags(bits);
    set_reg(dst, static_cast<uint16_t>(r & mask));
  } else if constexpr (kOp == Opcode::kRra) {
    const uint16_t r = static_cast<uint16_t>((v >> 1) | (v & sign));
    uint16_t bits = 0;
    if ((v & 1) != 0) bits |= kSrCarry;
    if ((r & mask) == 0) bits |= kSrZero;
    if ((r & sign) != 0) bits |= kSrNegative;
    set_flags(bits);
    set_reg(dst, static_cast<uint16_t>(r & mask));
  } else if constexpr (kOp == Opcode::kSwpb) {
    // No flags; always a word write (WriteToLoc byte=false in the baseline).
    set_reg(dst, static_cast<uint16_t>((v << 8) | (v >> 8)));
  } else {
    static_assert(kOp == Opcode::kSxt);
    const uint16_t r = static_cast<uint16_t>((v & 0x80) != 0 ? (v | 0xFF00) : (v & 0x00FF));
    uint16_t bits = 0;
    if (r == 0) bits |= kSrZero;
    if ((r & 0x8000) != 0) bits |= kSrNegative;
    if (r != 0) bits |= kSrCarry;
    set_flags(bits);
    set_reg(dst, r);
  }
}

// Word MOV of a register/constant/immediate into memory: the source needs
// no bus access, so the store is the instruction's only one, straight
// through Bus::WriteWord (ExecuteFormatOne's MOV resolves the destination
// without reading it, and so does this).
template <AddrMode kDst>
void Cpu::FastMovStore(const PredecodedInsn& pd, uint16_t insn_addr) {
  (void)insn_addr;
  const Instruction& insn = pd.insn;
  const uint16_t s = insn.src.mode == AddrMode::kRegister ? reg(insn.src.reg) : insn.src.ext;
  bus_->WriteWord(OperandAddress<kDst>(insn.dst), s, AccessKind::kWrite);
}

namespace {
// Trampoline turning a compile-time member-function pointer into a plain
// function the dispatch table can hold; the handler inlines into it.
template <auto kFn>
void Dispatch(Cpu& cpu, const PredecodedInsn& pd, uint16_t insn_addr) {
  (cpu.*kFn)(pd, insn_addr);
}
}  // namespace

// One row of register-destination slots for source shape `src`, in Format-I
// opcode order. DADD has no memory-source specialization, so `dadd` names
// the handler of its slot.
#define AMULET_ALU_REG_DST_ROW(src, dadd)                                   \
  &Dispatch<&Cpu::FastAluRegDst<Opcode::kMov, AddrMode::src>>,             \
      &Dispatch<&Cpu::FastAluRegDst<Opcode::kAdd, AddrMode::src>>,         \
      &Dispatch<&Cpu::FastAluRegDst<Opcode::kAddc, AddrMode::src>>,        \
      &Dispatch<&Cpu::FastAluRegDst<Opcode::kSubc, AddrMode::src>>,        \
      &Dispatch<&Cpu::FastAluRegDst<Opcode::kSub, AddrMode::src>>,         \
      &Dispatch<&Cpu::FastAluRegDst<Opcode::kCmp, AddrMode::src>>, dadd,   \
      &Dispatch<&Cpu::FastAluRegDst<Opcode::kBit, AddrMode::src>>,         \
      &Dispatch<&Cpu::FastAluRegDst<Opcode::kBic, AddrMode::src>>,         \
      &Dispatch<&Cpu::FastAluRegDst<Opcode::kBis, AddrMode::src>>,         \
      &Dispatch<&Cpu::FastAluRegDst<Opcode::kXor, AddrMode::src>>,         \
      &Dispatch<&Cpu::FastAluRegDst<Opcode::kAnd, AddrMode::src>>

// Slot layout must match FastHandlerIndex() and PredecodeInto(): Format I
// 0..11, Format II 12..18, jumps 19..26, then the specialized handlers at
// kFastAluRegDstBase + 12 * row + (op - kMov) for the source rows below,
// kFastFmt2RegBase + (op - kRrc) and kFastMovStoreBase + {x(Rn), &abs}.
const std::array<Cpu::FastHandler, kNumFastHandlers> Cpu::kFastDispatch = {{
    // MOV ADD ADDC SUBC SUB CMP DADD BIT BIC BIS XOR AND
    &Dispatch<&Cpu::FastFormatOne>, &Dispatch<&Cpu::FastFormatOne>,
    &Dispatch<&Cpu::FastFormatOne>, &Dispatch<&Cpu::FastFormatOne>,
    &Dispatch<&Cpu::FastFormatOne>, &Dispatch<&Cpu::FastFormatOne>,
    &Dispatch<&Cpu::FastFormatOne>, &Dispatch<&Cpu::FastFormatOne>,
    &Dispatch<&Cpu::FastFormatOne>, &Dispatch<&Cpu::FastFormatOne>,
    &Dispatch<&Cpu::FastFormatOne>, &Dispatch<&Cpu::FastFormatOne>,
    // RRC SWPB RRA SXT PUSH CALL RETI
    &Dispatch<&Cpu::FastFormatTwo>, &Dispatch<&Cpu::FastFormatTwo>,
    &Dispatch<&Cpu::FastFormatTwo>, &Dispatch<&Cpu::FastFormatTwo>,
    &Dispatch<&Cpu::FastFormatTwo>, &Dispatch<&Cpu::FastFormatTwo>,
    &Dispatch<&Cpu::FastFormatTwo>,
    // JNZ JZ JNC JC JN JGE JL JMP
    &Dispatch<&Cpu::FastJump>, &Dispatch<&Cpu::FastJump>, &Dispatch<&Cpu::FastJump>,
    &Dispatch<&Cpu::FastJump>, &Dispatch<&Cpu::FastJump>, &Dispatch<&Cpu::FastJump>,
    &Dispatch<&Cpu::FastJump>, &Dispatch<&Cpu::FastJump>,
    // Register destination; source rows register/constant/immediate, x(Rn),
    // &abs, @Rn, @Rn+.
    AMULET_ALU_REG_DST_ROW(kRegister,
                           (&Dispatch<&Cpu::FastAluRegDst<Opcode::kDadd, AddrMode::kRegister>>)),
    AMULET_ALU_REG_DST_ROW(kIndexed, &Dispatch<&Cpu::FastFormatOne>),
    AMULET_ALU_REG_DST_ROW(kAbsolute, &Dispatch<&Cpu::FastFormatOne>),
    AMULET_ALU_REG_DST_ROW(kIndirect, &Dispatch<&Cpu::FastFormatOne>),
    AMULET_ALU_REG_DST_ROW(kIndirectAutoInc, &Dispatch<&Cpu::FastFormatOne>),
    // Register-operand Format-II specializations: RRC SWPB RRA SXT.
    &Dispatch<&Cpu::FastFmt2Reg<Opcode::kRrc>>, &Dispatch<&Cpu::FastFmt2Reg<Opcode::kSwpb>>,
    &Dispatch<&Cpu::FastFmt2Reg<Opcode::kRra>>, &Dispatch<&Cpu::FastFmt2Reg<Opcode::kSxt>>,
    // Word MOV stores: x(Rn), &abs.
    &Dispatch<&Cpu::FastMovStore<AddrMode::kIndexed>>,
    &Dispatch<&Cpu::FastMovStore<AddrMode::kAbsolute>>,
}};
#undef AMULET_ALU_REG_DST_ROW

void Cpu::FastFormatOne(const PredecodedInsn& pd, uint16_t insn_addr) {
  (void)insn_addr;
  ExecuteFormatOne(pd.insn, pd.src_ext_addr, pd.dst_ext_addr);
}

void Cpu::FastFormatTwo(const PredecodedInsn& pd, uint16_t insn_addr) {
  (void)insn_addr;
  ExecuteFormatTwo(pd.insn, pd.dst_ext_addr);
}

void Cpu::FastJump(const PredecodedInsn& pd, uint16_t insn_addr) {
  ExecuteJump(pd.insn, insn_addr);
}

const CodeCache::Entry* Cpu::FillEntry(uint16_t addr) {
  // Only plain backed memory is cacheable: reading it has no side effects,
  // raises no fault, and the bus invalidates us when it changes. Anything
  // else (device registers, unmapped holes) takes the interpreter, uncached,
  // so its fault/side-effect behavior stays exactly the baseline's.
  if (!Bus::IsPlainMemory(addr)) {
    return nullptr;
  }
  const uint16_t words[3] = {bus_->PeekWord(addr), bus_->PeekWord(static_cast<uint16_t>(addr + 2)),
                             bus_->PeekWord(static_cast<uint16_t>(addr + 4))};
  CodeCache::Entry* entry = cache_.Claim(addr);
  PredecodeInto(addr, words, &entry->pd);
  entry->slow_only = false;
  entry->fram_words = IsAnyFram(addr) ? 1 : 0;
  for (int i = 1; i < entry->pd.length_words; ++i) {
    const uint16_t word_addr = static_cast<uint16_t>(addr + 2 * i);
    if (!Bus::IsPlainMemory(word_addr)) {
      // An extension-word fetch would hit device space or fault; the replay
      // below cannot reproduce that, so this address is permanently slow.
      entry->slow_only = true;
      break;
    }
    if (IsAnyFram(word_addr)) {
      ++entry->fram_words;
    }
  }
  cache_.MarkValid(entry);
  return entry;
}

StepResult Cpu::StepFast(uint16_t insn_addr) {
  // `entry` is used until the end of the step. Only FillEntry() can grow the
  // cache (and move its entries), and no instruction handler re-enters
  // Step(), so the pointer stays good.
  const CodeCache::Entry* entry = &cache_.Find(insn_addr);
  if (!cache_.IsValid(*entry)) {
    cache_.CountMiss();
    entry = FillEntry(insn_addr);
    if (entry == nullptr) {
      cache_.CountSlowPath();
      return StepSlow(insn_addr);
    }
  } else {
    cache_.CountHit();
  }
  if (entry->slow_only) {
    cache_.CountSlowPath();
    return StepSlow(insn_addr);
  }
  const PredecodedInsn& pd = entry->pd;
  // An invalid opcode only ever fetched its first word.
  const int fetch_words = pd.cls == InsnClass::kInvalid ? 1 : pd.length_words;

  // Fetch permission, checked word by word on every step (the OS reprograms
  // the MPU on every app/OS switch, so a cached verdict would rarely hold).
  // WouldPermit() is pure and CheckAccess() has no side effects when it
  // allows, so skipping the bus fetch is bit-identical. A refusal anywhere
  // defers to the interpreter, which replays the whole fetch sequence from
  // scratch (penalties, 0x3FFF reads, violation latching, NMI) exactly as
  // the baseline would.
  if (const Mpu* mpu = bus_->mpu()) {
    for (int i = 0; i < fetch_words; ++i) {
      if (!mpu->WouldPermit(static_cast<uint16_t>(insn_addr + 2 * i), AccessKind::kFetch)) {
        cache_.CountSlowPath();
        return StepSlow(insn_addr);
      }
    }
  }

  bus_->ClearFault();

  // Replay the fetch stream's only observable side effect without touching
  // memory: FRAM wait-state penalties into the bus accumulator (recomputed
  // per step -- the wait-state setting can change at runtime).
  const int wait_states = bus_->fram_wait_states();
  if (wait_states > 0 && entry->fram_words > 0) {
    bus_->AddPenaltyCycles(static_cast<uint64_t>(entry->fram_words) *
                           static_cast<uint64_t>(wait_states));
  }

  if (pd.cls == InsnClass::kInvalid) {
    halt_reason_ = HaltReason::kInvalidOpcode;
    halt_pc_ = insn_addr;
    return StepResult::kHalted;
  }

  set_reg(Reg::kPc, pd.next_pc);
  kFastDispatch[pd.handler](*this, pd, insn_addr);

  if (bus_->fault() != BusFault::kNone) {
    halt_reason_ = HaltReason::kBusFault;
    halt_pc_ = insn_addr;
    return StepResult::kHalted;
  }
  if (halt_reason_ != HaltReason::kNone) {
    halt_pc_ = insn_addr;
    return StepResult::kHalted;
  }

  const uint64_t spent = static_cast<uint64_t>(pd.base_cycles) + bus_->TakePenaltyCycles();
  cycles_ += spent;
  timer_->Advance(spent);
  if (watchdog_ != nullptr) {
    watchdog_->Advance(spent);
  }
  ++instructions_;
  AMULET_PROBE_ATTRIBUTE(profiler_, insn_addr, spent);
  // Same taken-transfer predicate as StepSlow(): pd.next_pc is the
  // fall-through address the dispatch handler started from.
  if (reg(Reg::kPc) != pd.next_pc) {
    AMULET_PROBE_FLIGHT(flight_, FlightEventKind::kBranch, insn_addr, reg(Reg::kPc));
  }

  if (signals_->puc_requested) {
    return StepResult::kPuc;
  }
  if (signals_->stop_requested) {
    return StepResult::kStopped;
  }
  return StepResult::kOk;
}

Cpu::RunOutcome Cpu::Run(uint64_t max_cycles) {
  RunOutcome outcome;
  const uint64_t start = cycles_;
  while (cycles_ - start < max_cycles) {
    StepResult r = Step();
    if (r != StepResult::kOk) {
      outcome.result = r;
      outcome.cycles = cycles_ - start;
      outcome.stop_code = signals_->stop_code;
      return outcome;
    }
  }
  outcome.result = StepResult::kOk;
  outcome.cycles = cycles_ - start;
  return outcome;
}

void Cpu::SaveState(SnapshotWriter& w) const {
  for (uint16_t reg : regs_) {
    w.U16(reg);
  }
  w.U64(cycles_);
  w.U64(instructions_);
  w.U8(static_cast<uint8_t>(halt_reason_));
  w.U16(halt_pc_);
}

void Cpu::LoadState(SnapshotReader& r) {
  for (uint16_t& reg : regs_) {
    reg = r.U16();
  }
  cycles_ = r.U64();
  instructions_ = r.U64();
  halt_reason_ = static_cast<HaltReason>(r.U8());
  halt_pc_ = r.U16();
}

}  // namespace amulet
