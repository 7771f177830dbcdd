#include "src/mcu/mpu.h"

#include "src/mcu/snapshot.h"
#include "src/scope/flight_recorder.h"
#include "src/scope/probe.h"
#include "src/scope/tracer.h"

namespace amulet {

uint16_t Mpu::ReadWord(uint16_t offset) {
  switch (offset) {
    case kMpuCtl0:
      // Password field reads back as 0x96 (as on the real part).
      return static_cast<uint16_t>(0x9600 | (ctl0_ & 0x00FF));
    case kMpuCtl1:
      return ctl1_;
    case kMpuSegB2:
      return segb2_;
    case kMpuSegB1:
      return segb1_;
    case kMpuSam:
      return sam_;
    default:
      return 0;
  }
}

void Mpu::WriteWord(uint16_t offset, uint16_t value) {
  AMULET_PROBE_FLIGHT(flight_, FlightEventKind::kMpuWrite, offset, value);
  // Every MPU register write must carry the password in MPUCTL0's high byte;
  // our model requires the password on the MPUCTL0 write and freezes
  // everything once LOCK is set. A wrong password resets the device (PUC).
  if (offset == kMpuCtl0) {
    if ((value & 0xFF00) != kMpuPassword) {
      signals_->puc_requested = true;
      return;
    }
    if (locked()) {
      return;  // frozen until reset
    }
    if (!reconfig_open_) {
      reconfig_open_ = true;
      AMULET_PROBE_SPAN_BEGIN(tracer_, "mpu.reconfig", value & 0x00FF);
    }
    ctl0_ = value & 0x00FF;
    return;
  }
  if (locked()) {
    return;
  }
  switch (offset) {
    case kMpuCtl1:
      // Write-1-to-clear violation flags.
      ctl1_ &= static_cast<uint16_t>(~value);
      break;
    case kMpuSegB2:
      segb2_ = value;
      break;
    case kMpuSegB1:
      segb1_ = value;
      break;
    case kMpuSam:
      sam_ = value;
      // The TI-style reprogramming sequence ends with the SAM write.
      if (reconfig_open_) {
        reconfig_open_ = false;
        AMULET_PROBE_SPAN_END(tracer_, "mpu.reconfig");
      }
      break;
    default:
      break;
  }
}

void Mpu::LatchViolation(int segment, uint16_t addr, AccessKind kind) {
  static constexpr uint16_t kFlag[4] = {kMpuSegInfoIfg, kMpuSeg1Ifg, kMpuSeg2Ifg, kMpuSeg3Ifg};
  if (segment < 0) {
    return;
  }
  const uint16_t flag = kFlag[segment];
  ctl1_ |= flag;
  last_violation_addr_ = addr;
  last_violation_kind_ = kind;
  AMULET_PROBE_INSTANT(tracer_, "mpu.violation", addr, flag);
  const bool puc_selected = (sam_ >> kSamShift[segment] & kMpuSamVs) != 0;
  if (puc_selected) {
    signals_->puc_requested = true;
  } else {
    signals_->nmi_pending = true;
  }
}

void Mpu::Reset() {
  // A PUC can interrupt a reprogramming sequence mid-way; close the span so
  // the trace stays balanced.
  if (reconfig_open_) {
    reconfig_open_ = false;
    AMULET_PROBE_SPAN_END(tracer_, "mpu.reconfig");
  }
  ctl0_ = 0;
  ctl1_ = 0;
  segb1_ = 0;
  segb2_ = 0;
  sam_ = 0x7777;  // all segments R+W+X, NMI on violation
  last_violation_addr_ = 0;
}

void Mpu::SaveState(SnapshotWriter& w) const {
  w.U16(ctl0_);
  w.U16(ctl1_);
  w.U16(segb1_);
  w.U16(segb2_);
  w.U16(sam_);
  w.U16(last_violation_addr_);
  w.U8(static_cast<uint8_t>(last_violation_kind_));
}

void Mpu::LoadState(SnapshotReader& r) {
  ctl0_ = r.U16();
  ctl1_ = r.U16();
  segb1_ = r.U16();
  segb2_ = r.U16();
  sam_ = r.U16();
  last_violation_addr_ = r.U16();
  last_violation_kind_ = static_cast<AccessKind>(r.U8());
}

}  // namespace amulet
