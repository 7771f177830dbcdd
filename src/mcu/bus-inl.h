// Inline definitions of the bus's word accessors: the plain-memory half of
// every CPU word access, in the order the side effects happen (FRAM
// penalty, flight-recorder store, MPU check and latch, counted-region bump,
// the load or store, code-cache invalidation). The register space and the
// faults stay out of line in bus.cc. These live apart from bus.h because
// the MPU check needs the complete Mpu and mpu.h includes bus.h; include
// this header wherever Bus::ReadWord/WriteWord are called.
#ifndef SRC_MCU_BUS_INL_H_
#define SRC_MCU_BUS_INL_H_

#include <cstdint>

#include "src/mcu/bus.h"
#include "src/mcu/code_cache.h"
#include "src/mcu/memory_map.h"
#include "src/mcu/mpu.h"
#include "src/scope/flight_recorder.h"
#include "src/scope/probe.h"

namespace amulet {

inline void Bus::InvalidateCode(uint16_t addr) {
  if (code_cache_ != nullptr) {
    code_cache_->InvalidateWord(addr);
  }
}

inline uint16_t Bus::ReadWord(uint16_t addr, AccessKind kind) {
  addr &= ~uint16_t{1};
  AddFramPenalty(addr);
  const bool data = kind != AccessKind::kFetch;
  if (mpu_ != nullptr && !mpu_->CheckAccess(addr, kind)) {
    if (data) {
      Count(addr);
    }
    return kRefusedReadValue;
  }
  if (!IsPlainMemory(addr)) {
    return ReadWordSlow(addr, kind);
  }
  if (data) {
    Count(addr);
  }
  return static_cast<uint16_t>(mem_[addr] | (mem_[addr + 1] << 8));
}

inline void Bus::WriteWord(uint16_t addr, uint16_t value) {
  addr &= ~uint16_t{1};
  AddFramPenalty(addr);
  AMULET_PROBE_FLIGHT(flight_, FlightEventKind::kStore, addr, value);
  if (mpu_ != nullptr && !mpu_->CheckAccess(addr, AccessKind::kWrite)) {
    Count(addr);
    return;  // blocked; violation latched in the MPU
  }
  if (!IsWritableMemory(addr)) {
    WriteWordSlow(addr, value);
    return;
  }
  Count(addr);
  mem_[addr] = static_cast<uint8_t>(value & 0xFF);
  mem_[addr + 1] = static_cast<uint8_t>(value >> 8);
  InvalidateCode(addr);
}

}  // namespace amulet

#endif  // SRC_MCU_BUS_INL_H_
