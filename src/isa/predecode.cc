#include "src/isa/predecode.h"

#include <span>

#include "src/isa/cycles.h"
#include "src/isa/encoding.h"

namespace amulet {

namespace {

// Row of the register-destination slots for a source mode (see
// kFastAluRegDstBase): 0 for register/constant/immediate, 1..4 for x(Rn),
// &abs, @Rn, @Rn+, and -1 for a symbolic source, which has no row.
int SourceRow(AddrMode mode) {
  switch (mode) {
    case AddrMode::kRegister:
    case AddrMode::kConst:
    case AddrMode::kImmediate:
      return 0;
    case AddrMode::kIndexed:
      return 1;
    case AddrMode::kAbsolute:
      return 2;
    case AddrMode::kIndirect:
      return 3;
    case AddrMode::kIndirectAutoInc:
      return 4;
    case AddrMode::kSymbolic:
      break;
  }
  return -1;
}

}  // namespace

int FastHandlerIndex(Opcode op) {
  if (IsFormatOne(op)) {
    return static_cast<int>(op) - static_cast<int>(Opcode::kMov);
  }
  if (IsFormatTwo(op)) {
    return 12 + static_cast<int>(op) - static_cast<int>(Opcode::kRrc);
  }
  return 19 + static_cast<int>(op) - static_cast<int>(Opcode::kJnz);
}

void PredecodeInto(uint16_t addr, const uint16_t words[3], PredecodedInsn* out) {
  *out = PredecodedInsn{};
  // Decode over the full three-word window. The interpreter decodes a probe
  // of {w0, 0, 0} and then overwrites the extension fields with separately
  // fetched words; since Decode() consumes extension words in stream order,
  // decoding {w0, w1, w2} directly yields the identical resolved instruction,
  // and the identical success/failure verdict (which depends only on w0).
  Result<Instruction> decoded = Decode(std::span<const uint16_t>(words, 3));
  if (!decoded.ok()) {
    out->cls = InsnClass::kInvalid;
    out->length_words = 1;
    return;
  }
  out->insn = std::move(decoded).value();

  const Instruction& insn = out->insn;
  uint16_t next = static_cast<uint16_t>(addr + 2);
  int length = 1;
  if (IsFormatOne(insn.op) && ModeHasExtWord(insn.src.mode)) {
    out->src_ext_addr = next;
    next = static_cast<uint16_t>(next + 2);
    ++length;
  }
  if (!IsJump(insn.op) && insn.op != Opcode::kReti && ModeHasExtWord(insn.dst.mode)) {
    out->dst_ext_addr = next;
    next = static_cast<uint16_t>(next + 2);
    ++length;
  }
  out->next_pc = next;
  out->length_words = static_cast<uint8_t>(length);
  out->base_cycles = static_cast<uint8_t>(InstructionCycles(insn));
  out->handler = static_cast<uint8_t>(FastHandlerIndex(insn.op));
  // Upgrade the dominant operand shapes to their specialized handlers.
  // Decode() already normalized constant-generator sources into kConst with
  // the value in `ext`, so kRegister/kConst/kImmediate sources (row 0) all
  // read without a bus access, and a kRegister destination writes without
  // one. The memory rows are word-only and leave DADD generic.
  const int src_row = SourceRow(insn.src.mode);
  const bool word = !insn.byte;
  if (IsFormatOne(insn.op) && insn.dst.mode == AddrMode::kRegister &&
      (src_row == 0 || (src_row > 0 && word && insn.op != Opcode::kDadd))) {
    out->handler = static_cast<uint8_t>(kFastAluRegDstBase + 12 * src_row +
                                        static_cast<int>(insn.op) -
                                        static_cast<int>(Opcode::kMov));
  } else if (insn.op == Opcode::kMov && word && src_row == 0 &&
             (insn.dst.mode == AddrMode::kIndexed || insn.dst.mode == AddrMode::kAbsolute)) {
    out->handler = static_cast<uint8_t>(kFastMovStoreBase +
                                        (insn.dst.mode == AddrMode::kIndexed ? 0 : 1));
  } else if (insn.op >= Opcode::kRrc && insn.op <= Opcode::kSxt &&
             insn.dst.mode == AddrMode::kRegister) {
    out->handler = static_cast<uint8_t>(kFastFmt2RegBase + static_cast<int>(insn.op) -
                                        static_cast<int>(Opcode::kRrc));
  }
  out->cls = IsJump(insn.op)        ? InsnClass::kJump
             : IsFormatTwo(insn.op) ? InsnClass::kFormatTwo
                                    : InsnClass::kFormatOne;
}

}  // namespace amulet
