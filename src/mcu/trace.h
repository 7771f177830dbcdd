// Execution trace: a fixed-depth ring of recently executed instruction
// addresses, rendered as disassembly on demand. AmuletOS attaches one to the
// CPU and includes the tail in fault records, giving embedded-style "crash
// dump" forensics without a debugger.
#ifndef SRC_MCU_TRACE_H_
#define SRC_MCU_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/mcu/bus.h"

namespace amulet {

class ExecutionTrace {
 public:
  explicit ExecutionTrace(size_t depth = 16) : ring_(depth == 0 ? 1 : depth, 0) {}

  void Record(uint16_t pc) {
    ring_[next_] = pc;
    if (++next_ == ring_.size()) {
      next_ = 0;
    }
    if (recorded_ < ring_.size()) {
      ++recorded_;
    }
  }

  // Oldest-to-newest addresses currently in the ring.
  std::vector<uint16_t> Recent() const;

 private:
  std::vector<uint16_t> ring_;
  size_t next_ = 0;
  size_t recorded_ = 0;
};

// Renders a PC list (ExecutionTrace::Recent(), FaultRecord::recent_pcs) as
// "  0x4412: mov #1, r10" lines, reading the instruction bytes back from
// memory (best effort: memory may have moved on).
std::string RenderTrace(const std::vector<uint16_t>& pcs, const Bus& bus);

}  // namespace amulet

#endif  // SRC_MCU_TRACE_H_
