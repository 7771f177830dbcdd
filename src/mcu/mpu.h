// Register-level model of the MSP430FR58xx/59xx memory protection unit
// (TI SLAU367, chapter "FRAM Memory Protection Unit").
//
// Faithfully reproduced limitations (the ones the paper's design works
// around):
//   * Only the main FRAM and InfoMem are covered. SRAM, peripheral registers,
//     the BSL, and the interrupt vector table are never protected.
//   * Three main segments, delimited by just two movable boundaries
//     (MPUSEGB1 <= MPUSEGB2), each with independent R/W/X enables.
//   * Boundary granularity is 16 bytes: boundary address = register << 4.
//   * Register writes require the 0xA5 password in the high byte of MPUCTL0;
//     a wrong password causes a PUC. Once MPULOCK is set, the configuration
//     is frozen until reset.
//
// A violating access is blocked, latches MPUSEGxIFG in MPUCTL1, and raises
// either an NMI (violation-select bit clear; what AmuletOS uses to reach its
// FAULT handler) or a PUC (bit set).
#ifndef SRC_MCU_MPU_H_
#define SRC_MCU_MPU_H_

#include <cstdint>

#include "src/mcu/bus.h"
#include "src/mcu/memory_map.h"
#include "src/mcu/signals.h"

namespace amulet {

class EventTracer;
class FlightRecorder;
class SnapshotReader;
class SnapshotWriter;

// Register offsets from kMpuRegBase.
inline constexpr uint16_t kMpuCtl0 = 0x0;   // password | ENA/LOCK
inline constexpr uint16_t kMpuCtl1 = 0x2;   // violation flags (write-1-to-clear)
inline constexpr uint16_t kMpuSegB2 = 0x4;  // boundary 2 (address >> 4)
inline constexpr uint16_t kMpuSegB1 = 0x6;  // boundary 1 (address >> 4)
inline constexpr uint16_t kMpuSam = 0x8;    // segment access rights

// MPUCTL0 bits (low byte).
inline constexpr uint16_t kMpuEna = 1u << 0;
inline constexpr uint16_t kMpuLock = 1u << 1;
inline constexpr uint16_t kMpuPassword = 0xA500;

// MPUCTL1 violation flags.
inline constexpr uint16_t kMpuSeg1Ifg = 1u << 0;
inline constexpr uint16_t kMpuSeg2Ifg = 1u << 1;
inline constexpr uint16_t kMpuSeg3Ifg = 1u << 2;
inline constexpr uint16_t kMpuSegInfoIfg = 1u << 3;

// MPUSAM layout: 4 bits per segment [R,W,X,VS], segments 1..3 then InfoMem.
inline constexpr int kMpuSamSeg1Shift = 0;
inline constexpr int kMpuSamSeg2Shift = 4;
inline constexpr int kMpuSamSeg3Shift = 8;
inline constexpr int kMpuSamInfoShift = 12;
inline constexpr uint16_t kMpuSamRead = 1u << 0;
inline constexpr uint16_t kMpuSamWrite = 1u << 1;
inline constexpr uint16_t kMpuSamExec = 1u << 2;
inline constexpr uint16_t kMpuSamVs = 1u << 3;  // violation select: 0 = NMI, 1 = PUC

// Convenience: rights nibble for a segment.
constexpr uint16_t MpuRights(bool r, bool w, bool x, bool puc_on_violation = false) {
  return static_cast<uint16_t>((r ? kMpuSamRead : 0) | (w ? kMpuSamWrite : 0) |
                               (x ? kMpuSamExec : 0) | (puc_on_violation ? kMpuSamVs : 0));
}

class Mpu : public BusDevice {
 public:
  explicit Mpu(McuSignals* signals) : signals_(signals) {}

  // BusDevice:
  uint16_t base() const override { return kMpuRegBase; }
  uint16_t size_bytes() const override { return 10; }
  uint16_t ReadWord(uint16_t offset) override;
  void WriteWord(uint16_t offset, uint16_t value) override;

  // Consulted by the bus before every access. Returns true if the access is
  // permitted; a refusal latches the violation (flag + NMI or PUC request).
  bool CheckAccess(uint16_t addr, AccessKind kind) {
    int segment = -1;
    if (AccessAllowed(addr, kind, &segment)) {
      return true;
    }
    LatchViolation(segment, addr, kind);
    return false;
  }
  // Pure twin of CheckAccess(): same verdict, nothing latched. The predecode
  // fast path checks every fetched word with it.
  bool WouldPermit(uint16_t addr, AccessKind kind) const {
    int segment = -1;
    return AccessAllowed(addr, kind, &segment);
  }

  // State inspection (host-side; used by OS fault handling and tests).
  bool enabled() const { return (ctl0_ & kMpuEna) != 0; }
  bool locked() const { return (ctl0_ & kMpuLock) != 0; }
  uint16_t violation_flags() const { return ctl1_; }
  uint16_t boundary1() const { return static_cast<uint16_t>(segb1_ << 4); }
  uint16_t boundary2() const { return static_cast<uint16_t>(segb2_ << 4); }
  uint16_t sam() const { return sam_; }
  // Address that triggered the most recent violation (simulator aid; the
  // real part only latches the segment flag).
  uint16_t last_violation_addr() const { return last_violation_addr_; }
  AccessKind last_violation_kind() const { return last_violation_kind_; }

  void Reset();

  // Optional event tracer (not owned; host wiring, excluded from snapshots).
  // A reprogramming sequence — password CTL0 write through the SAM write —
  // is recorded as one "mpu.reconfig" span; violations as instants.
  void set_tracer(EventTracer* tracer) { tracer_ = tracer; }
  // Optional flight recorder (same wiring rules); every register write is
  // recorded — MPU reconfiguration is a first-class forensic event.
  void set_flight_recorder(FlightRecorder* recorder) { flight_ = recorder; }

  // Snapshot support: full register state including latched violations.
  void SaveState(SnapshotWriter& w) const;
  void LoadState(SnapshotReader& r);

 private:
  // MPUSAM shift of each segment's rights nibble, indexed by SegmentOf().
  static constexpr int kSamShift[4] = {kMpuSamInfoShift, kMpuSamSeg1Shift, kMpuSamSeg2Shift,
                                       kMpuSamSeg3Shift};

  // 1..3 main, 0 info, -1 uncovered.
  int SegmentOf(uint16_t addr) const {
    if (IsInfoMem(addr)) {
      return 0;
    }
    if (!IsMainFram(addr)) {
      return -1;
    }
    if (addr < boundary1()) {
      return 1;
    }
    return addr < boundary2() ? 2 : 3;
  }
  // Shared allow-logic of CheckAccess/WouldPermit; fills *segment for the
  // latch path. Pure.
  bool AccessAllowed(uint16_t addr, AccessKind kind, int* segment) const {
    *segment = -1;
    if (!enabled()) {
      return true;
    }
    *segment = SegmentOf(addr);
    if (*segment < 0) {
      return true;  // SRAM / peripherals / vectors: never covered
    }
    const uint16_t rights = static_cast<uint16_t>(sam_ >> kSamShift[*segment]);
    switch (kind) {
      case AccessKind::kFetch:
        return (rights & kMpuSamExec) != 0;
      case AccessKind::kRead:
        return (rights & kMpuSamRead) != 0;
      case AccessKind::kWrite:
        return (rights & kMpuSamWrite) != 0;
    }
    return false;
  }
  void LatchViolation(int segment, uint16_t addr, AccessKind kind);

  McuSignals* signals_;
  EventTracer* tracer_ = nullptr;
  FlightRecorder* flight_ = nullptr;
  bool reconfig_open_ = false;  // trace-only: a CTL0 write opened a span
  uint16_t ctl0_ = 0;
  uint16_t ctl1_ = 0;
  uint16_t segb1_ = 0;
  uint16_t segb2_ = 0;
  uint16_t sam_ = 0x7777;  // reset: all segments R+W+X, NMI on violation
  uint16_t last_violation_addr_ = 0;
  AccessKind last_violation_kind_ = AccessKind::kRead;
};

}  // namespace amulet

#endif  // SRC_MCU_MPU_H_
