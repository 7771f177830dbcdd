// The MSP430 CPU core: fetch/decode/execute with architectural flag
// semantics, interrupt/NMI handling, and cycle accounting (ISA base cycles +
// FRAM wait-state penalties accumulated on the bus).
//
// Two cores share one definition of what an instruction computes and costs:
// one ALU function per Format-I operation and per RRC/SWPB/RRA/SXT, and one
// retire step that advances the cycle counter, timer, watchdog and profiler.
//   * StepSlow() -- the reference interpreter: bus fetch + isa::Decode() and
//     the generic operand machinery on every step. It is the reference for
//     fetch, decode, operand resolution, bus order and refused fetches; used
//     for uncacheable corner cases and as the baseline for differential
//     testing (set_predecode(false)).
//   * StepFast() -- the default: executes dense PredecodedInsn records from
//     a CodeCache keyed by word address through a dispatch table whose
//     layout cpu.cc alone owns, replaying the interpreter's observable side
//     effects (FRAM wait states, cycle attribution) bit-identically. It
//     checks every fetched word against the MPU on every step and falls
//     back to StepSlow() whenever a fetch would touch device space or the
//     MPU would refuse it.
#ifndef SRC_MCU_CPU_H_
#define SRC_MCU_CPU_H_

#include <array>
#include <cstdint>

#include "src/isa/instruction.h"
#include "src/isa/predecode.h"
#include "src/mcu/bus.h"
#include "src/mcu/code_cache.h"
#include "src/mcu/signals.h"
#include "src/mcu/timer.h"
#include "src/mcu/trace.h"
#include "src/mcu/watchdog.h"

namespace amulet {

class CycleProfiler;
class FlightRecorder;
class SnapshotReader;
class SnapshotWriter;

enum class HaltReason : uint8_t {
  kNone = 0,
  kBusFault,       // unmapped access / write to ROM / fetch from registers
  kOddPc,          // instruction fetch from an odd address (wild jump)
  kInvalidOpcode,  // reserved encoding reached
  kNoVector,       // interrupt taken through a zero vector slot
};

enum class StepResult : uint8_t {
  kOk,       // one instruction (or idle tick) retired
  kStopped,  // firmware wrote HOSTIO STOP: control returns to the host
  kHalted,   // unrecoverable simulator-detected error; see halt_reason()
  kPuc,      // power-up clear requested (MPU password abuse or VS=PUC)
};

class Cpu {
 public:
  Cpu(Bus* bus, Timer* timer, Watchdog* watchdog, McuSignals* signals);

  // Loads PC from the reset vector and clears SR. Memory contents persist
  // (FRAM is non-volatile; this mirrors a PUC, not a power cycle).
  void Reset();

  StepResult Step();

  struct RunOutcome {
    StepResult result = StepResult::kOk;  // kOk means the cycle budget ran out
    uint64_t cycles = 0;                  // cycles consumed by this Run call
    uint16_t stop_code = 0;               // valid when result == kStopped
  };
  // Executes until STOP / halt / PUC or until `max_cycles` elapse.
  RunOutcome Run(uint64_t max_cycles);

  uint16_t reg(Reg r) const { return regs_[RegIndex(r)]; }
  void set_reg(Reg r, uint16_t value) {
    regs_[RegIndex(r)] = (r == Reg::kPc) ? static_cast<uint16_t>(value & ~1) : value;
  }
  uint16_t pc() const { return reg(Reg::kPc); }
  uint16_t sp() const { return reg(Reg::kSp); }
  uint16_t sr() const { return reg(Reg::kSr); }

  // Optional execution trace (not owned); records each retired instruction.
  void set_trace(ExecutionTrace* trace) { trace_ = trace; }
  // Optional cycle-attribution profiler (not owned); every retired
  // instruction's full cost (ISA cycles + FRAM penalties), every idle tick,
  // and every interrupt accept is attributed to the region map. The hook in
  // Step() compiles out entirely under AMULET_SCOPE=OFF.
  void set_profiler(CycleProfiler* profiler) { profiler_ = profiler; }
  // Optional flight recorder (not owned); receives a compact event for every
  // taken control transfer and interrupt accept. Both cores hook the same
  // retirement point, so the recorded stream is identical under
  // StepFast/StepSlow. Compiles out entirely under AMULET_SCOPE=OFF.
  void set_flight_recorder(FlightRecorder* recorder) { flight_ = recorder; }

  // Toggles the predecoded fast path (on by default). Off forces the
  // reference interpreter for every step -- the `--no-predecode` escape
  // hatch and the baseline half of the differential tests. Results are
  // bit-identical either way; only wall-clock speed differs.
  void set_predecode(bool enabled) { predecode_enabled_ = enabled; }
  bool predecode_enabled() const { return predecode_enabled_; }

  uint64_t cycle_count() const { return cycles_; }
  // Address of the cycle counter, for host-side clocks that sample it on
  // every event (the flight recorder).
  const uint64_t* cycle_counter() const { return &cycles_; }
  uint64_t instruction_count() const { return instructions_; }
  // Predecode-cache effectiveness counters (host-side; never digested).
  const CodeCache::Stats& code_cache_stats() const { return cache_.stats(); }
  const CodeCache& code_cache() const { return cache_; }
  HaltReason halt_reason() const { return halt_reason_; }
  uint16_t halt_pc() const { return halt_pc_; }

  // Snapshot support: architectural registers and counters. The bus/timer/
  // watchdog/trace wiring is not serialized.
  void SaveState(SnapshotWriter& w) const;
  void LoadState(SnapshotReader& r);

 private:
  struct Loc {
    bool is_reg = false;
    Reg reg = Reg::kPc;
    uint16_t addr = 0;
    bool writable = false;  // immediates/constants are not writable
  };

  uint16_t ReadOperand(const Operand& op, bool byte, uint16_t ext_word_addr, Loc* loc);
  void WriteToLoc(const Loc& loc, bool byte, uint16_t value);
  void ExecuteFormatOne(const Instruction& insn, uint16_t src_ext_addr, uint16_t dst_ext_addr);
  void ExecuteFormatTwo(const Instruction& insn, uint16_t ext_addr);
  void ExecuteJump(const Instruction& insn, uint16_t insn_addr);

  // The ALU, shared by both cores: the result of Format-I op kOp on source
  // `s` and destination `d`, or of RRC/SWPB/RRA/SXT on `v`. Operands come in
  // masked to the width; the result goes out masked, and the flags the op
  // changes are written in one SR update before the caller writes the
  // destination.
  template <Opcode kOp>
  uint16_t Alu(uint16_t s, uint16_t d, bool byte);
  template <Opcode kOp>
  uint16_t AluUnary(uint16_t v, bool byte);
  uint16_t AddWithCarry(uint16_t a, uint16_t b, uint16_t carry_in, bool byte);
  // Replaces the `changed` SR flags with `bits`.
  void SetFlags(uint16_t bits, uint16_t changed);
  bool GetFlag(uint16_t flag) const { return (regs_[RegIndex(Reg::kSr)] & flag) != 0; }

  // The one clock-advance sequence: `cycles` spent at `pc` (a retired
  // instruction, an idle tick or an interrupt accept) advance the cycle
  // counter, the timer and the watchdog, and are attributed to `pc`.
  void Tick(uint16_t pc, uint64_t cycles);
  StepResult Halt(HaltReason reason, uint16_t pc);
  void AcceptInterrupt(uint16_t vector_slot);

  // Reference interpreter body: fetch, decode, execute one instruction at
  // `insn_addr` (the preamble in Step() has already run).
  StepResult StepSlow(uint16_t insn_addr);
  // Cache-driven body; defers to StepSlow() for anything it cannot replay
  // bit-identically (device-space fetches, MPU-refused fetches).
  StepResult StepFast(uint16_t insn_addr);
  // Where both cores end: halts on a bus fault or a halt the instruction
  // raised, else charges `base_cycles` plus the bus penalties through
  // Tick(), counts the instruction, and records a taken transfer when the
  // PC is no longer `fall_through`.
  StepResult Retire(uint16_t insn_addr, uint16_t fall_through, uint64_t base_cycles);
  // Predecodes the instruction at `addr` into its cache entry, picks its
  // dispatch slot and returns it, or returns nullptr (nothing cached) when
  // the first word is not plain cacheable memory.
  const CodeCache::Entry* FillEntry(uint16_t addr);

  // Fast dispatch handlers, indexed by CodeCache::Entry::handler through
  // kFastDispatch (cpu.cc holds the slot layout and picks each entry's
  // slot). The generic ones run the interpreter's executors, one per format.
  void FastFormatOne(const PredecodedInsn& pd, uint16_t insn_addr);
  void FastFormatTwo(const PredecodedInsn& pd, uint16_t insn_addr);
  void FastJump(const PredecodedInsn& pd, uint16_t insn_addr);
  // Format I with a register destination. kSrc is kRegister for a
  // register/constant/immediate source (byte or word) or the mode of a word
  // memory source: kIndexed, kAbsolute, kIndirect or kIndirectAutoInc. Reads
  // the operands in ExecuteFormatOne's order and calls the same ALU.
  template <Opcode kOp, AddrMode kSrc>
  void FastAluRegDst(const PredecodedInsn& pd, uint16_t insn_addr);
  // RRC/SWPB/RRA/SXT on a register.
  template <Opcode kOp>
  void FastFmt2Reg(const PredecodedInsn& pd, uint16_t insn_addr);
  // Word MOV of a register/constant/immediate into an x(Rn) (kDst =
  // kIndexed) or &abs (kDst = kAbsolute) destination.
  template <AddrMode kDst>
  void FastMovStore(const PredecodedInsn& pd, uint16_t insn_addr);
  // Effective address of a word memory operand whose mode is fixed by the
  // dispatch slot, so no mode switch runs per step. An @Rn+ operand steps
  // its register before the access, as ReadOperand does.
  template <AddrMode kMode>
  uint16_t OperandAddress(const Operand& op);
  // Plain function pointers, not pointers-to-member: a member-pointer call
  // through a table pays the Itanium-ABI virtual-adjustment test on every
  // dispatch. The table holds trampolines that inline the handlers; its
  // size is the slot count in cpu.cc.
  using FastHandler = void (*)(Cpu&, const PredecodedInsn&, uint16_t);
  static const FastHandler kFastDispatch[];

  void PushWord(uint16_t value);
  uint16_t PopWord();

  Bus* bus_;
  Timer* timer_;
  Watchdog* watchdog_;
  McuSignals* signals_;
  ExecutionTrace* trace_ = nullptr;
  CycleProfiler* profiler_ = nullptr;
  FlightRecorder* flight_ = nullptr;
  std::array<uint16_t, kNumRegisters> regs_{};
  uint64_t cycles_ = 0;
  uint64_t instructions_ = 0;
  HaltReason halt_reason_ = HaltReason::kNone;
  uint16_t halt_pc_ = 0;
  bool predecode_enabled_ = true;
  // Derived state: never serialized (snapshots stay O(memcpy)); the bus
  // invalidates entries whenever backing memory changes.
  CodeCache cache_;
};

}  // namespace amulet

#endif  // SRC_MCU_CPU_H_
