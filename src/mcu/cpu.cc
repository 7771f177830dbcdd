#include "src/mcu/cpu.h"

#include <iterator>

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

// Z and N of a result already masked to its width.
constexpr uint16_t ZnFlags(uint16_t r, uint16_t sign) {
  return static_cast<uint16_t>((r == 0 ? kSrZero : 0) | ((r & sign) != 0 ? kSrNegative : 0));
}

// CMP and BIT set flags only; every other Format-I op writes its result.
constexpr bool WritesResult(Opcode op) { return op != Opcode::kCmp && op != Opcode::kBit; }
}  // namespace

Cpu::Cpu(Bus* bus, Timer* timer, Watchdog* watchdog, McuSignals* signals)
    : bus_(bus), timer_(timer), watchdog_(watchdog), signals_(signals) {
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

// ---------------------------------------------------------------------------
// The ALU (contract in cpu.h). Both cores call these, and nothing else
// computes a result or a flag. The caller writes the destination after the
// flags, so when the destination is SR the result replaces them.
// ---------------------------------------------------------------------------

inline void Cpu::SetFlags(uint16_t bits, uint16_t changed) {
  uint16_t& sr = regs_[RegIndex(Reg::kSr)];
  sr = static_cast<uint16_t>((sr & static_cast<uint16_t>(~changed)) | bits);
}

// a + b + carry_in, with C the carry out and V the signed overflow.
inline uint16_t Cpu::AddWithCarry(uint16_t a, uint16_t b, uint16_t carry_in, bool byte) {
  const uint16_t mask = Mask(byte);
  const uint16_t sign = SignBit(byte);
  const uint32_t full = static_cast<uint32_t>(a) + b + carry_in;
  const uint16_t r = static_cast<uint16_t>(full & mask);
  uint16_t bits = ZnFlags(r, sign);
  if (full > mask) bits |= kSrCarry;
  if (((a ^ r) & (b ^ r) & sign) != 0) bits |= kSrOverflow;
  SetFlags(bits, kAluFlags);
  return r;
}

template <Opcode kOp>
uint16_t Cpu::Alu(uint16_t s, uint16_t d, bool byte) {
  const uint16_t mask = Mask(byte);
  const uint16_t sign = SignBit(byte);
  const uint16_t not_s = static_cast<uint16_t>(~s & mask);
  if constexpr (kOp == Opcode::kMov) {
    return s;
  } else if constexpr (kOp == Opcode::kAdd) {
    return AddWithCarry(d, s, 0, byte);
  } else if constexpr (kOp == Opcode::kAddc) {
    return AddWithCarry(d, s, GetFlag(kSrCarry) ? 1 : 0, byte);
  } else if constexpr (kOp == Opcode::kSubc) {
    return AddWithCarry(d, not_s, GetFlag(kSrCarry) ? 1 : 0, byte);
  } else if constexpr (kOp == Opcode::kSub || kOp == Opcode::kCmp) {
    return AddWithCarry(d, not_s, 1, byte);
  } else if constexpr (kOp == Opcode::kDadd) {
    // Decimal (BCD) addition, digit by digit with carry; V is left alone.
    uint16_t carry = GetFlag(kSrCarry) ? 1 : 0;
    uint16_t r = 0;
    for (int i = 0; i < (byte ? 2 : 4); ++i) {
      uint16_t t = static_cast<uint16_t>(((d >> (4 * i)) & 0xF) + ((s >> (4 * i)) & 0xF) + carry);
      carry = t > 9 ? 1 : 0;
      if (carry != 0) {
        t = static_cast<uint16_t>(t + 6);
      }
      r |= static_cast<uint16_t>((t & 0xF) << (4 * i));
    }
    SetFlags(static_cast<uint16_t>(ZnFlags(r, sign) | (carry != 0 ? kSrCarry : 0)),
             kSrCarry | kSrZero | kSrNegative);
    return r;
  } else if constexpr (kOp == Opcode::kBit || kOp == Opcode::kAnd) {
    // N and Z from the result, C = !Z, V = 0.
    const uint16_t r = static_cast<uint16_t>(s & d);
    SetFlags(static_cast<uint16_t>(ZnFlags(r, sign) | (r != 0 ? kSrCarry : 0)), kAluFlags);
    return r;
  } else if constexpr (kOp == Opcode::kBic) {
    return static_cast<uint16_t>(d & not_s);
  } else if constexpr (kOp == Opcode::kBis) {
    return static_cast<uint16_t>(d | s);
  } else {
    static_assert(kOp == Opcode::kXor);
    // As AND, but V is set when both operands are negative.
    const uint16_t r = static_cast<uint16_t>(d ^ s);
    uint16_t bits = static_cast<uint16_t>(ZnFlags(r, sign) | (r != 0 ? kSrCarry : 0));
    if ((s & d & sign) != 0) bits |= kSrOverflow;
    SetFlags(bits, kAluFlags);
    return r;
  }
}

template <Opcode kOp>
uint16_t Cpu::AluUnary(uint16_t v, bool byte) {
  const uint16_t sign = SignBit(byte);
  const uint16_t carry_out = (v & 1) != 0 ? kSrCarry : 0;
  if constexpr (kOp == Opcode::kRrc) {
    // The old carry rotates into the sign bit, bit 0 into the carry.
    const uint16_t r = static_cast<uint16_t>((v >> 1) | (GetFlag(kSrCarry) ? sign : 0));
    SetFlags(static_cast<uint16_t>(ZnFlags(r, sign) | carry_out), kAluFlags);
    return r;
  } else if constexpr (kOp == Opcode::kRra) {
    // Arithmetic shift: the sign bit stays.
    const uint16_t r = static_cast<uint16_t>((v >> 1) | (v & sign));
    SetFlags(static_cast<uint16_t>(ZnFlags(r, sign) | carry_out), kAluFlags);
    return r;
  } else if constexpr (kOp == Opcode::kSwpb) {
    return static_cast<uint16_t>((v << 8) | (v >> 8));  // no flags
  } else {
    static_assert(kOp == Opcode::kSxt);
    const uint16_t r = static_cast<uint16_t>((v & 0x80) != 0 ? (v | 0xFF00) : (v & 0x00FF));
    SetFlags(static_cast<uint16_t>(ZnFlags(r, 0x8000) | (r != 0 ? kSrCarry : 0)), kAluFlags);
    return r;
  }
}

// ---------------------------------------------------------------------------
// The interpreter's operand machinery and executors.
// ---------------------------------------------------------------------------

void Cpu::PushWord(uint16_t value) {
  uint16_t sp = static_cast<uint16_t>(reg(Reg::kSp) - 2);
  set_reg(Reg::kSp, sp);
  bus_->WriteWord(sp, value);
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
    return bus_->ReadByte(loc->addr);
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
    bus_->WriteByte(loc.addr, static_cast<uint8_t>(value & 0xFF));
  } else {
    bus_->WriteWord(loc.addr, value);
  }
}

void Cpu::ExecuteFormatOne(const Instruction& insn, uint16_t src_ext_addr,
                           uint16_t dst_ext_addr) {
  const bool byte = insn.byte;
  Loc src_loc;
  const uint16_t s = ReadOperand(insn.src, byte, src_ext_addr, &src_loc);

  Loc dst_loc;
  uint16_t d = 0;
  if (insn.op != Opcode::kMov) {
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

  uint16_t r = 0;
  switch (insn.op) {
    case Opcode::kMov: r = Alu<Opcode::kMov>(s, d, byte); break;
    case Opcode::kAdd: r = Alu<Opcode::kAdd>(s, d, byte); break;
    case Opcode::kAddc: r = Alu<Opcode::kAddc>(s, d, byte); break;
    case Opcode::kSubc: r = Alu<Opcode::kSubc>(s, d, byte); break;
    case Opcode::kSub: r = Alu<Opcode::kSub>(s, d, byte); break;
    case Opcode::kCmp: r = Alu<Opcode::kCmp>(s, d, byte); break;
    case Opcode::kDadd: r = Alu<Opcode::kDadd>(s, d, byte); break;
    case Opcode::kBit: r = Alu<Opcode::kBit>(s, d, byte); break;
    case Opcode::kBic: r = Alu<Opcode::kBic>(s, d, byte); break;
    case Opcode::kBis: r = Alu<Opcode::kBis>(s, d, byte); break;
    case Opcode::kXor: r = Alu<Opcode::kXor>(s, d, byte); break;
    case Opcode::kAnd: r = Alu<Opcode::kAnd>(s, d, byte); break;
    default:
      halt_reason_ = HaltReason::kInvalidOpcode;
      return;
  }
  if (WritesResult(insn.op)) {
    WriteToLoc(dst_loc, byte, r);
  }
}

void Cpu::ExecuteFormatTwo(const Instruction& insn, uint16_t ext_addr) {
  const bool byte = insn.byte;
  if (insn.op == Opcode::kReti) {
    uint16_t sr = PopWord();
    uint16_t pc = PopWord();
    set_reg(Reg::kSr, sr);
    set_reg(Reg::kPc, pc);
    return;
  }

  Loc loc;
  uint16_t v = ReadOperand(insn.dst, byte, ext_addr, &loc);

  // SWPB and SXT have no byte form (Decode() rejects one), so `byte` is
  // their word write.
  switch (insn.op) {
    case Opcode::kRrc: WriteToLoc(loc, byte, AluUnary<Opcode::kRrc>(v, byte)); break;
    case Opcode::kSwpb: WriteToLoc(loc, byte, AluUnary<Opcode::kSwpb>(v, byte)); break;
    case Opcode::kRra: WriteToLoc(loc, byte, AluUnary<Opcode::kRra>(v, byte)); break;
    case Opcode::kSxt: WriteToLoc(loc, byte, AluUnary<Opcode::kSxt>(v, byte)); break;
    case Opcode::kPush: {
      // PUSH.B still decrements SP by 2 (stack stays word-aligned).
      uint16_t sp = static_cast<uint16_t>(reg(Reg::kSp) - 2);
      set_reg(Reg::kSp, sp);
      if (byte) {
        bus_->WriteByte(sp, static_cast<uint8_t>(v & 0xFF));
      } else {
        bus_->WriteWord(sp, v);
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

// ---------------------------------------------------------------------------
// Stepping, and the one retire path. Tick() and Retire() run on every step;
// like SetFlags() and AddWithCarry() they are `inline` so every caller
// absorbs them. Left to GCC, the four stayed out of line and cost
// bench_sim's fast alu_reg ~15%.
// ---------------------------------------------------------------------------

inline void Cpu::Tick(uint16_t pc, uint64_t cycles) {
  cycles_ += cycles;
  timer_->Advance(cycles);
  watchdog_->Advance(cycles);
  AMULET_PROBE_ATTRIBUTE(profiler_, pc, cycles);
}

StepResult Cpu::Halt(HaltReason reason, uint16_t pc) {
  halt_reason_ = reason;
  halt_pc_ = pc;
  return StepResult::kHalted;
}

void Cpu::AcceptInterrupt(uint16_t vector_slot) {
  uint16_t handler = bus_->ReadWord(vector_slot, AccessKind::kRead);
  if (handler == 0) {
    Halt(HaltReason::kNoVector, reg(Reg::kPc));
    return;
  }
  PushWord(reg(Reg::kPc));
  PushWord(reg(Reg::kSr));
  set_reg(Reg::kSr, 0);  // GIE cleared; CPUOFF cleared so the handler runs
  set_reg(Reg::kPc, handler);
  // Attributed to the handler's region (the accept is work done on its
  // behalf); the pushes' FRAM penalties land with the next retired insn.
  Tick(handler, kInterruptAcceptCycles);
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
    Tick(reg(Reg::kPc), 1);
    return StepResult::kOk;
  }

  const uint16_t insn_addr = reg(Reg::kPc);
  if (trace_ != nullptr) {
    trace_->Record(insn_addr);
  }
  if ((insn_addr & 1) != 0) {
    return Halt(HaltReason::kOddPc, insn_addr);
  }

  return predecode_enabled_ ? StepFast(insn_addr) : StepSlow(insn_addr);
}

inline StepResult Cpu::Retire(uint16_t insn_addr, uint16_t fall_through, uint64_t base_cycles) {
  if (bus_->fault() != BusFault::kNone) {
    return Halt(HaltReason::kBusFault, insn_addr);
  }
  if (halt_reason_ != HaltReason::kNone) {
    return Halt(halt_reason_, insn_addr);
  }
  Tick(insn_addr, base_cycles + bus_->TakePenaltyCycles());
  ++instructions_;
  // The PC was set to the fall-through address before execution, so any
  // other PC now is a taken control transfer (jump, call, ret, PC write).
  if (reg(Reg::kPc) != fall_through) {
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

StepResult Cpu::StepSlow(uint16_t insn_addr) {
  bus_->ClearFault();
  const uint16_t w0 = bus_->ReadWord(insn_addr, AccessKind::kFetch);
  if (bus_->fault() != BusFault::kNone) {
    return Halt(HaltReason::kBusFault, insn_addr);
  }

  const uint16_t probe[3] = {w0, 0, 0};
  Result<Instruction> decoded = Decode(probe);
  if (!decoded.ok()) {
    return Halt(HaltReason::kInvalidOpcode, insn_addr);
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
  return Retire(insn_addr, next, static_cast<uint64_t>(InstructionCycles(insn)));
}

// ---------------------------------------------------------------------------
// Fast dispatch: the handlers, the table, its slot layout and the rule that
// picks a record's slot, all here.
// ---------------------------------------------------------------------------

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

// Format I with a register destination. With a register/constant/immediate
// source (kSrc = kRegister) no bus access occurs; with a word memory source
// the only one is the source read, straight through Bus::ReadWord. The
// source is read before the destination register, as ReadOperand does (an
// @Rn+ source may step the destination register).
template <Opcode kOp, AddrMode kSrc>
void Cpu::FastAluRegDst(const PredecodedInsn& pd, uint16_t insn_addr) {
  (void)insn_addr;
  const Instruction& insn = pd.insn;
  // Memory-source slots are selected for word forms only.
  const bool byte = kSrc == AddrMode::kRegister && insn.byte;
  uint16_t s;
  if constexpr (kSrc == AddrMode::kRegister) {
    s = static_cast<uint16_t>(
        (insn.src.mode == AddrMode::kRegister ? reg(insn.src.reg) : insn.src.ext) & Mask(byte));
  } else {
    s = bus_->ReadWord(OperandAddress<kSrc>(insn.src), AccessKind::kRead);
  }
  const Reg dst = insn.dst.reg;
  const uint16_t r = Alu<kOp>(s, static_cast<uint16_t>(reg(dst) & Mask(byte)), byte);
  if constexpr (WritesResult(kOp)) {
    set_reg(dst, r);
  }
}

// RRC/SWPB/RRA/SXT on a register: no bus traffic.
template <Opcode kOp>
void Cpu::FastFmt2Reg(const PredecodedInsn& pd, uint16_t insn_addr) {
  (void)insn_addr;
  const Reg dst = pd.insn.dst.reg;
  const bool byte = pd.insn.byte;
  set_reg(dst, AluUnary<kOp>(static_cast<uint16_t>(reg(dst) & Mask(byte)), byte));
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
  bus_->WriteWord(OperandAddress<kDst>(insn.dst), s);
}

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

namespace {
// Dispatch slots: one generic slot per format, running the interpreter's
// operand machinery, then the operand shapes that dominate compiled code,
// each with its addressing mode fixed when the record is cached:
//   * a register destination, one row of twelve Format-I slots (in opcode
//     order) per source shape: row 0 a register, constant or immediate
//     (byte or word), rows 1..4 the word memory sources x(Rn), &abs, @Rn
//     and @Rn+;
//   * RRC/SWPB/RRA/SXT on a register;
//   * a word MOV of a register, constant or immediate into x(Rn) or &abs.
// Byte memory operands, symbolic operands and the other memory
// destinations take the generic slots.
constexpr int kSlotFormatOne = 0;
constexpr int kSlotFormatTwo = 1;
constexpr int kSlotJump = 2;
constexpr int kSlotAluRegDst = 3;                      // + 12 * row + (op - kMov)
constexpr int kSlotFmt2Reg = kSlotAluRegDst + 12 * 5;  // + (op - kRrc)
constexpr int kSlotMovStore = kSlotFmt2Reg + 4;        // + {x(Rn), &abs}
constexpr int kNumSlots = kSlotMovStore + 2;

// Row of the register-destination slots for a source operand, or -1 when
// it has none (a symbolic source, or a byte memory source).
int SourceRow(const Operand& src, bool byte) {
  switch (src.mode) {
    case AddrMode::kRegister:
    case AddrMode::kConst:
    case AddrMode::kImmediate:
      return 0;
    case AddrMode::kIndexed:
      return byte ? -1 : 1;
    case AddrMode::kAbsolute:
      return byte ? -1 : 2;
    case AddrMode::kIndirect:
      return byte ? -1 : 3;
    case AddrMode::kIndirectAutoInc:
      return byte ? -1 : 4;
    case AddrMode::kSymbolic:
      break;
  }
  return -1;
}

// Decode() normalizes constant-generator sources into kConst with the value
// in `ext`, so row 0 reads without a bus access, and a kRegister
// destination writes without one.
uint8_t DispatchSlot(const Instruction& insn) {
  const int op = static_cast<int>(insn.op);
  const AddrMode dst = insn.dst.mode;
  if (IsJump(insn.op)) {
    return kSlotJump;
  }
  if (IsFormatTwo(insn.op)) {
    return insn.op <= Opcode::kSxt && dst == AddrMode::kRegister
               ? static_cast<uint8_t>(kSlotFmt2Reg + op - static_cast<int>(Opcode::kRrc))
               : kSlotFormatTwo;
  }
  const int row = SourceRow(insn.src, insn.byte);
  if (dst == AddrMode::kRegister && row >= 0) {
    return static_cast<uint8_t>(kSlotAluRegDst + 12 * row + op - static_cast<int>(Opcode::kMov));
  }
  if (insn.op == Opcode::kMov && !insn.byte && row == 0 &&
      (dst == AddrMode::kIndexed || dst == AddrMode::kAbsolute)) {
    return static_cast<uint8_t>(kSlotMovStore + (dst == AddrMode::kIndexed ? 0 : 1));
  }
  return kSlotFormatOne;
}

// Trampoline turning a compile-time member-function pointer into a plain
// function the dispatch table can hold; the handler inlines into it.
template <auto kFn>
void Dispatch(Cpu& cpu, const PredecodedInsn& pd, uint16_t insn_addr) {
  (cpu.*kFn)(pd, insn_addr);
}
}  // namespace

// One row of register-destination slots for source shape `src`.
#define AMULET_ALU_REG_DST_ROW(src)                                                    \
  &Dispatch<&Cpu::FastAluRegDst<Opcode::kMov, AddrMode::src>>,                        \
      &Dispatch<&Cpu::FastAluRegDst<Opcode::kAdd, AddrMode::src>>,                    \
      &Dispatch<&Cpu::FastAluRegDst<Opcode::kAddc, AddrMode::src>>,                   \
      &Dispatch<&Cpu::FastAluRegDst<Opcode::kSubc, AddrMode::src>>,                   \
      &Dispatch<&Cpu::FastAluRegDst<Opcode::kSub, AddrMode::src>>,                    \
      &Dispatch<&Cpu::FastAluRegDst<Opcode::kCmp, AddrMode::src>>,                    \
      &Dispatch<&Cpu::FastAluRegDst<Opcode::kDadd, AddrMode::src>>,                   \
      &Dispatch<&Cpu::FastAluRegDst<Opcode::kBit, AddrMode::src>>,                    \
      &Dispatch<&Cpu::FastAluRegDst<Opcode::kBic, AddrMode::src>>,                    \
      &Dispatch<&Cpu::FastAluRegDst<Opcode::kBis, AddrMode::src>>,                    \
      &Dispatch<&Cpu::FastAluRegDst<Opcode::kXor, AddrMode::src>>,                    \
      &Dispatch<&Cpu::FastAluRegDst<Opcode::kAnd, AddrMode::src>>

const Cpu::FastHandler Cpu::kFastDispatch[] = {
    &Dispatch<&Cpu::FastFormatOne>,
    &Dispatch<&Cpu::FastFormatTwo>,
    &Dispatch<&Cpu::FastJump>,
    AMULET_ALU_REG_DST_ROW(kRegister),
    AMULET_ALU_REG_DST_ROW(kIndexed),
    AMULET_ALU_REG_DST_ROW(kAbsolute),
    AMULET_ALU_REG_DST_ROW(kIndirect),
    AMULET_ALU_REG_DST_ROW(kIndirectAutoInc),
    &Dispatch<&Cpu::FastFmt2Reg<Opcode::kRrc>>,
    &Dispatch<&Cpu::FastFmt2Reg<Opcode::kSwpb>>,
    &Dispatch<&Cpu::FastFmt2Reg<Opcode::kRra>>,
    &Dispatch<&Cpu::FastFmt2Reg<Opcode::kSxt>>,
    &Dispatch<&Cpu::FastMovStore<AddrMode::kIndexed>>,
    &Dispatch<&Cpu::FastMovStore<AddrMode::kAbsolute>>,
};
#undef AMULET_ALU_REG_DST_ROW

const CodeCache::Entry* Cpu::FillEntry(uint16_t addr) {
  static_assert(std::size(kFastDispatch) == kNumSlots);
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
  entry->handler = DispatchSlot(entry->pd.insn);
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

  // Fetch permission, checked word by word on every step (the OS reprograms
  // the MPU on every app/OS switch, so a cached verdict would rarely hold).
  // WouldPermit() is pure and CheckAccess() has no side effects when it
  // allows, so skipping the bus fetch is bit-identical. A refusal anywhere
  // defers to the interpreter, which replays the whole fetch sequence from
  // scratch (penalties, 0x3FFF reads, violation latching, NMI) exactly as
  // the baseline would. An invalid record is one word long: the
  // interpreter fetches only its first word.
  if (const Mpu* mpu = bus_->mpu()) {
    for (int i = 0; i < pd.length_words; ++i) {
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

  if (!pd.valid) {
    return Halt(HaltReason::kInvalidOpcode, insn_addr);
  }

  set_reg(Reg::kPc, pd.next_pc);
  kFastDispatch[entry->handler](*this, pd, insn_addr);
  return Retire(insn_addr, pd.next_pc, pd.base_cycles);
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
