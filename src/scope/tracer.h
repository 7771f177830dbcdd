// Event tracer: low-overhead span (Begin/End) and instant events recorded
// into a fixed-capacity per-machine ring, exportable as Chrome trace-event
// JSON (chrome://tracing / Perfetto "JSON (legacy)" format).
//
// Event names must be string literals (the tracer stores the pointer, not a
// copy). Timestamps come from an injected clock — the Machine wires it to
// the CPU cycle counter, so trace time is *simulated* time, independent of
// host scheduling. Tracer state is host-side wiring: it is intentionally
// excluded from machine snapshots (like the syscall handler and the bus's
// counted regions) and must be re-attached after a restore.
#ifndef SRC_SCOPE_TRACER_H_
#define SRC_SCOPE_TRACER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace amulet {

struct TraceEvent {
  const char* name = nullptr;  // static string; never freed
  char phase = 'i';            // 'B' begin span, 'E' end span, 'i' instant
  uint64_t cycles = 0;
  uint32_t args[2] = {0, 0};
  uint8_t arg_count = 0;
};

class EventTracer {
 public:
  explicit EventTracer(size_t capacity = 65536)
      : ring_(capacity == 0 ? 1 : capacity) {}

  // The clock supplies the current simulated cycle count. Unset -> 0.
  void set_clock(std::function<uint64_t()> clock) { clock_ = std::move(clock); }

  void Begin(const char* name) { Push(name, 'B', 0, 0, 0); }
  void Begin(const char* name, uint32_t a0) { Push(name, 'B', 1, a0, 0); }
  void Begin(const char* name, uint32_t a0, uint32_t a1) { Push(name, 'B', 2, a0, a1); }
  void End(const char* name) { Push(name, 'E', 0, 0, 0); }
  void Instant(const char* name) { Push(name, 'i', 0, 0, 0); }
  void Instant(const char* name, uint32_t a0) { Push(name, 'i', 1, a0, 0); }
  void Instant(const char* name, uint32_t a0, uint32_t a1) { Push(name, 'i', 2, a0, a1); }

  // Oldest-to-newest events currently held (at most `capacity`).
  std::vector<TraceEvent> Events() const;

  size_t capacity() const { return ring_.size(); }
  uint64_t recorded_total() const { return total_; }
  // Events overwritten because the ring wrapped.
  uint64_t dropped() const { return total_ > ring_.size() ? total_ - ring_.size() : 0; }

  void Clear();

 private:
  void Push(const char* name, char phase, uint8_t arg_count, uint32_t a0, uint32_t a1);

  std::function<uint64_t()> clock_;
  std::vector<TraceEvent> ring_;
  size_t next_ = 0;
  uint64_t total_ = 0;
};

// Renders the ring as Chrome trace-event JSON ({"traceEvents": [...]}).
// `cpu_mhz` converts cycles to microsecond timestamps. If the ring wrapped,
// leading 'E' events whose 'B' was overwritten are dropped so the span tree
// stays well-formed for the viewer.
std::string RenderChromeTrace(const EventTracer& tracer, double cpu_mhz,
                              const std::string& process_name = "amulet");

// Native (python-free) validation of a Chrome trace-event JSON document:
// full parse of the JSON subset we emit, plus span-nesting checks (every 'E'
// matches the innermost open 'B' of the same name; nothing left open).
struct TraceValidation {
  size_t events = 0;
  size_t begins = 0;
  size_t ends = 0;
  size_t instants = 0;
  int max_depth = 0;
  bool timestamps_monotonic = true;
};
Result<TraceValidation> ValidateChromeTrace(const std::string& json);

}  // namespace amulet

#endif  // SRC_SCOPE_TRACER_H_
