#include "src/isa/predecode.h"

#include <span>

#include "src/isa/cycles.h"
#include "src/isa/encoding.h"

namespace amulet {

void PredecodeInto(uint16_t addr, const uint16_t words[3], PredecodedInsn* out) {
  *out = PredecodedInsn{};
  // Decode over the full three-word window. The interpreter decodes a probe
  // of {w0, 0, 0} and then overwrites the extension fields with separately
  // fetched words; since Decode() consumes extension words in stream order,
  // decoding {w0, w1, w2} directly yields the identical resolved instruction,
  // and the identical success/failure verdict (which depends only on w0).
  Result<Instruction> decoded = Decode(std::span<const uint16_t>(words, 3));
  if (!decoded.ok()) {
    return;  // invalid and one word long, as the default record is
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
  out->valid = true;
}

}  // namespace amulet
