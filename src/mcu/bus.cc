#include "src/mcu/bus.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/mcu/bus-inl.h"
#include "src/mcu/code_cache.h"
#include "src/mcu/mpu.h"
#include "src/mcu/snapshot.h"
#include "src/scope/flight_recorder.h"
#include "src/scope/probe.h"

namespace amulet {

Bus::Bus() = default;

void Bus::AttachDevice(BusDevice* device) {
  AMULET_CHECK(device != nullptr);
  const uint16_t base = device->base();
  const uint32_t end = static_cast<uint32_t>(base) + device->size_bytes();
  AMULET_CHECK(end <= kPeriphEnd);
  AMULET_CHECK(devices_.size() < 0xFF);
  devices_.push_back({device, base});
  for (uint32_t a = base; a < end; ++a) {
    AMULET_CHECK(device_slot_[a] == 0);
    device_slot_[a] = static_cast<uint8_t>(devices_.size());
  }
}

void Bus::SetCountedRegions(const std::vector<std::pair<uint16_t, uint16_t>>& spans) {
  counted_.fill(0);
  for (const auto& [lo, hi] : spans) {
    if (lo >= hi) {
      continue;
    }
    // Whole 64-bit words in the middle; only the two edge words are masked.
    const size_t first = lo >> 6;
    const size_t last = static_cast<size_t>(hi - 1) >> 6;
    const uint64_t head = ~uint64_t{0} << (lo & 63);               // bits lo%64..63
    const uint64_t tail = ~uint64_t{0} >> (63 - ((hi - 1) & 63));  // bits 0..(hi-1)%64
    if (first == last) {
      counted_[first] |= head & tail;
      continue;
    }
    counted_[first] |= head;
    std::fill(counted_.begin() + first + 1, counted_.begin() + last, ~uint64_t{0});
    counted_[last] |= tail;
  }
}

uint16_t Bus::ReadWordSlow(uint16_t addr, AccessKind kind) {
  if (const MappedDevice* mapped = DeviceFor(addr)) {
    if (kind == AccessKind::kFetch) {
      fault_ = BusFault::kFetchFromPeriph;
      return kRefusedReadValue;
    }
    Count(addr);
    return mapped->device->ReadWord(static_cast<uint16_t>(addr - mapped->base));
  }
  fault_ = BusFault::kUnmapped;  // a hole, or register space with no device
  return kRefusedReadValue;
}

void Bus::WriteWordSlow(uint16_t addr, uint16_t value) {
  if (const MappedDevice* mapped = DeviceFor(addr)) {
    Count(addr);
    mapped->device->WriteWord(static_cast<uint16_t>(addr - mapped->base), value);
    return;
  }
  fault_ = InRange(addr, kBslStart, kBslEnd) ? BusFault::kWriteToRom : BusFault::kUnmapped;
}

// The byte accessors classify an address as the word path does: plain
// memory, then a device (read-modify-write of its word), then the hole or
// BSL fault. Side effects keep the word path's order.
uint8_t Bus::ReadByte(uint16_t addr) {
  AddFramPenalty(addr);
  if (mpu_ != nullptr && !mpu_->CheckAccess(addr, AccessKind::kRead)) {
    Count(addr);
    return kRefusedReadValue & 0xFF;
  }
  if (IsPlainMemory(addr)) {
    Count(addr);
    return mem_[addr];
  }
  if (const MappedDevice* mapped = DeviceFor(addr)) {
    Count(addr);
    const uint16_t word =
        mapped->device->ReadWord(static_cast<uint16_t>((addr & ~1) - mapped->base));
    return (addr & 1) != 0 ? static_cast<uint8_t>(word >> 8) : static_cast<uint8_t>(word & 0xFF);
  }
  fault_ = BusFault::kUnmapped;  // a hole, or register space with no device
  return kRefusedReadValue & 0xFF;
}

void Bus::WriteByte(uint16_t addr, uint8_t value) {
  AddFramPenalty(addr);
  AMULET_PROBE_FLIGHT(flight_, FlightEventKind::kStore, addr, value);
  if (mpu_ != nullptr && !mpu_->CheckAccess(addr, AccessKind::kWrite)) {
    Count(addr);
    return;  // blocked; violation latched in the MPU
  }
  if (IsWritableMemory(addr)) {
    Count(addr);
    mem_[addr] = value;
    InvalidateCode(addr);
    return;
  }
  if (const MappedDevice* mapped = DeviceFor(addr)) {
    const uint16_t offset = static_cast<uint16_t>((addr & ~1) - mapped->base);
    uint16_t word = mapped->device->ReadWord(offset);
    if ((addr & 1) != 0) {
      word = static_cast<uint16_t>((word & 0x00FF) | (value << 8));
    } else {
      word = static_cast<uint16_t>((word & 0xFF00) | value);
    }
    Count(addr);
    mapped->device->WriteWord(offset, word);
    return;
  }
  fault_ = InRange(addr, kBslStart, kBslEnd) ? BusFault::kWriteToRom : BusFault::kUnmapped;
}

uint8_t Bus::PeekByte(uint16_t addr) const { return mem_[addr]; }

void Bus::PokeByte(uint16_t addr, uint8_t value) {
  mem_[addr] = value;
  InvalidateCode(addr);
}

uint16_t Bus::PeekWord(uint16_t addr) const {
  addr &= ~uint16_t{1};
  return static_cast<uint16_t>(mem_[addr] | (mem_[addr + 1] << 8));
}

void Bus::PokeWord(uint16_t addr, uint16_t value) {
  addr &= ~uint16_t{1};
  mem_[addr] = static_cast<uint8_t>(value & 0xFF);
  mem_[addr + 1] = static_cast<uint8_t>(value >> 8);
  InvalidateCode(addr);
}

void Bus::SaveState(SnapshotWriter& w) const {
  w.U8(static_cast<uint8_t>(fault_));
  w.U32(static_cast<uint32_t>(fram_wait_states_));
  w.U64(penalty_cycles_);
  w.Bytes(mem_.data(), mem_.size());
}

void Bus::LoadState(SnapshotReader& r) {
  fault_ = static_cast<BusFault>(r.U8());
  fram_wait_states_ = static_cast<int>(r.U32());
  penalty_cycles_ = r.U64();
  r.Bytes(mem_.data(), mem_.size());
  // The whole memory image just changed: predecoded records are stale. The
  // cache is derived state and never serialized, so restore == rebuild.
  if (code_cache_ != nullptr) {
    code_cache_->InvalidateAll();
  }
}

Status Bus::LoadImage(uint16_t base, const std::vector<uint8_t>& bytes) {
  if (static_cast<uint32_t>(base) + bytes.size() > 0x10000) {
    return OutOfRangeError(StrFormat("image of %zu bytes at %s overflows the address space",
                                     bytes.size(), HexWord(base).c_str()));
  }
  for (size_t i = 0; i < bytes.size(); ++i) {
    mem_[base + i] = bytes[i];
  }
  if (code_cache_ != nullptr) {
    code_cache_->InvalidateAll();
  }
  return OkStatus();
}

}  // namespace amulet
