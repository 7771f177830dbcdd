#include "src/mcu/trace.h"

#include "src/common/strings.h"
#include "src/isa/disassembler.h"
#include "src/isa/encoding.h"

namespace amulet {

std::vector<uint16_t> ExecutionTrace::Recent() const {
  std::vector<uint16_t> out;
  out.reserve(recorded_);
  // The oldest entry sits at next_ when the ring is full, else at 0.
  size_t start = recorded_ == ring_.size() ? next_ : 0;
  for (size_t i = 0; i < recorded_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

std::string RenderTrace(const std::vector<uint16_t>& pcs, const Bus& bus) {
  std::string out;
  for (uint16_t pc : pcs) {
    uint16_t words[3] = {bus.PeekWord(pc), bus.PeekWord(static_cast<uint16_t>(pc + 2)),
                         bus.PeekWord(static_cast<uint16_t>(pc + 4))};
    auto decoded = Decode(words);
    if (decoded.ok()) {
      out += StrFormat("    %s: %s\n", HexWord(pc).c_str(),
                       Disassemble(*decoded, pc).c_str());
    } else {
      out += StrFormat("    %s: <undecodable %s>\n", HexWord(pc).c_str(),
                       HexWord(words[0]).c_str());
    }
  }
  return out;
}

}  // namespace amulet
