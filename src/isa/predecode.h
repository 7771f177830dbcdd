// Dense predecoded instruction records for the fast simulator core.
//
// The cycle-accurate interpreter pays for isa::Decode() plus separate
// extension-word bus fetches on every step. Code in FRAM rarely changes, so
// the CPU can instead decode each instruction once into a flat record --
// resolved operands, extension-word addresses, next PC and base cycle cost
// -- and replay it from a cache keyed by word address (see
// src/mcu/code_cache.h). The record is pure ISA: which handler runs it is
// the CPU's choice (src/mcu/cpu.cc). It is derived state: never serialized,
// and any write to the underlying words invalidates it.
#ifndef SRC_ISA_PREDECODE_H_
#define SRC_ISA_PREDECODE_H_

#include <cstdint>

#include "src/isa/instruction.h"

namespace amulet {

struct PredecodedInsn {
  // Fully resolved instruction: extension words are already filled in from
  // the instruction stream, exactly as the interpreter would fetch them.
  Instruction insn;
  // Stream addresses of the extension words (0 when the operand has none);
  // symbolic-mode operands resolve relative to these.
  uint16_t src_ext_addr = 0;
  uint16_t dst_ext_addr = 0;
  // PC after the whole instruction has been fetched.
  uint16_t next_pc = 0;
  // Instruction length in 16-bit words (1..3).
  uint8_t length_words = 1;
  // InstructionCycles() of the resolved instruction; pure in the decoded
  // operand modes, so it is safe to precompute.
  uint8_t base_cycles = 0;
  // False when the first word fails to decode (a reserved or undefined
  // encoding), so the fast path can replay the interpreter's invalid-opcode
  // halt without re-decoding.
  bool valid = false;
};

// Decodes the instruction whose first word sits at `addr`, with `words`
// holding the three consecutive stream words starting there (unused tail
// words are ignored). On any decode failure the record comes back invalid
// with length 1 -- decode success and instruction length are pure functions
// of words[0], so this mirrors the interpreter's probe-then-fetch sequence
// exactly.
void PredecodeInto(uint16_t addr, const uint16_t words[3], PredecodedInsn* out);

}  // namespace amulet

#endif  // SRC_ISA_PREDECODE_H_
