// Per-device flight recorder: a fixed-capacity ring of compact machine
// events (taken branches, data stores, MPU configuration writes, syscalls,
// host-IO strobes, interrupt accepts) fed by the AMULET_PROBE_FLIGHT probe
// points in Cpu/Bus/Mpu/HostIo. The ring is written on the hot path and only
// ever read when a fault fires, at which point AmuletOS snapshots the tail
// into the structured FaultRecord — embedded black-box forensics without a
// debugger attached.
//
// Like the EventTracer, the recorder is host-side wiring: it is never
// serialized into snapshots, observes execution without adding simulated
// cycles, and every probe compiles out to ((void)0) under AMULET_SCOPE=OFF.
#ifndef SRC_SCOPE_FLIGHT_RECORDER_H_
#define SRC_SCOPE_FLIGHT_RECORDER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace amulet {

enum class FlightEventKind : uint8_t {
  kBranch = 1,  // taken control transfer: a = from PC, b = to PC
  kIrq,         // interrupt accept: a = vector slot, b = handler entry PC
  kStore,       // architectural data store: a = address, b = value
  kMpuWrite,    // MPU register write: a = register offset, b = value
  kSyscall,     // HOSTIO syscall trigger: a = syscall number, b = first arg
  kHostIo,      // HOSTIO stop strobe: a = register offset, b = value
};

const char* FlightEventKindName(FlightEventKind kind);

struct FlightEvent {
  uint64_t cycles = 0;
  uint16_t a = 0;
  uint16_t b = 0;
  FlightEventKind kind = FlightEventKind::kBranch;

  bool operator==(const FlightEvent& other) const {
    return cycles == other.cycles && a == other.a && b == other.b && kind == other.kind;
  }
};

class FlightRecorder {
 public:
  explicit FlightRecorder(size_t capacity = kDefaultCapacity)
      : ring_(capacity == 0 ? 1 : capacity) {}

  // Timestamp source: the counter is read on every event. Normally the CPU
  // cycle counter, wired by Machine::AttachFlightRecorder. Events record 0
  // cycles until set.
  void set_clock(const uint64_t* cycles) { clock_ = cycles; }

  void Record(FlightEventKind kind, uint16_t a, uint16_t b) {
    FlightEvent& e = ring_[next_];
    e.cycles = clock_ != nullptr ? *clock_ : 0;
    e.a = a;
    e.b = b;
    e.kind = kind;
    if (++next_ == ring_.size()) {
      next_ = 0;
    }
    if (recorded_ < ring_.size()) {
      ++recorded_;
    }
    ++total_;
  }

  // The newest `max_events` events, oldest first.
  std::vector<FlightEvent> Tail(size_t max_events) const;

  void Clear() {
    next_ = 0;
    recorded_ = 0;
  }

  // Events recorded over the recorder's whole lifetime (survives Clear()).
  uint64_t total_recorded() const { return total_; }
  size_t size() const { return recorded_; }
  size_t capacity() const { return ring_.size(); }

  static constexpr size_t kDefaultCapacity = 128;

 private:
  std::vector<FlightEvent> ring_;
  size_t next_ = 0;
  size_t recorded_ = 0;
  uint64_t total_ = 0;
  const uint64_t* clock_ = nullptr;
};

// One-line human rendering: "  [    1234] branch 0xf012 -> 0xf100".
std::string RenderFlightEvent(const FlightEvent& event);

}  // namespace amulet

#endif  // SRC_SCOPE_FLIGHT_RECORDER_H_
