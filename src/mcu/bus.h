// The memory bus: routes CPU accesses to RAM/FRAM arrays and, through a
// per-byte slot table over the register space, to peripheral devices;
// checks the MPU on every access; accumulates FRAM wait-state penalty
// cycles; and counts the data accesses that land in registered regions (the
// per-device data_accesses of the fleet and of the Amulet Resource Profiler).
#ifndef SRC_MCU_BUS_H_
#define SRC_MCU_BUS_H_

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/mcu/memory_map.h"

namespace amulet {

class FlightRecorder;
class SnapshotReader;
class SnapshotWriter;

enum class AccessKind : uint8_t {
  kFetch,  // instruction-stream read (needs execute permission)
  kRead,   // data read
  kWrite,  // data write
};

// Why an access was refused at the hardware level. Distinct from MPU
// violations, which are latched in the MPU and surfaced as an NMI.
enum class BusFault : uint8_t {
  kNone = 0,
  kUnmapped,        // hole in the address map
  kWriteToRom,      // write into the BSL stub
  kFetchFromPeriph, // executing out of a register block
};

// A peripheral occupying part of the register space. Word-granular: the bus
// converts byte accesses into read-modify-write on the device.
class BusDevice {
 public:
  virtual ~BusDevice() = default;
  virtual uint16_t base() const = 0;
  virtual uint16_t size_bytes() const = 0;
  virtual uint16_t ReadWord(uint16_t offset) = 0;
  virtual void WriteWord(uint16_t offset, uint16_t value) = 0;
};

class CodeCache;
class Mpu;

class Bus {
 public:
  Bus();

  // Maps `device` over [base, base + size_bytes) in the slot table. The
  // range must lie inside the register space and overlap no device attached
  // before it (AMULET_CHECKed).
  void AttachDevice(BusDevice* device);
  void SetMpu(Mpu* mpu) { mpu_ = mpu; }
  const Mpu* mpu() const { return mpu_; }
  // Registers the CPU's predecoded-instruction cache so the bus can kill
  // stale entries whenever backing memory changes (architectural writes,
  // pokes, image loads, snapshot restore).
  void SetCodeCache(CodeCache* cache) { code_cache_ = cache; }
  // Optional flight recorder (not owned; host wiring, never serialized).
  // Receives one store event per architectural write — including writes the
  // MPU blocks, which are exactly the interesting ones in a fault tail.
  void set_flight_recorder(FlightRecorder* recorder) { flight_ = recorder; }

  // Counted data regions ([lo, hi) spans; replaces any earlier set). Every
  // data read or write whose address lies in a span bumps
  // counted_accesses(): a word access once, at its aligned address, and an
  // MPU-refused one too. Fetches, unmapped accesses and writes into the BSL
  // stub never count. Host wiring, never serialized.
  void SetCountedRegions(const std::vector<std::pair<uint16_t, uint16_t>>& spans);
  uint64_t counted_accesses() const { return counted_accesses_; }

  // Wait states added per FRAM access (fetch or data). The FR5969 runs FRAM
  // at 8 MHz behind a cache; `1` approximates the average penalty at 16 MHz.
  void set_fram_wait_states(int n) { fram_wait_states_ = n; }
  int fram_wait_states() const { return fram_wait_states_; }

  // Penalty cycles accumulated since the last TakePenaltyCycles() call.
  // Inline: the CPU drains this once per retired instruction.
  uint64_t TakePenaltyCycles() {
    uint64_t taken = penalty_cycles_;
    penalty_cycles_ = 0;
    return taken;
  }
  // Accrues precomputed wait-state penalties; used by the predecode fast
  // path to replay a cached instruction's FRAM fetch cost in one add.
  void AddPenaltyCycles(uint64_t n) { penalty_cycles_ += n; }

  // True when `addr` resolves to plain backed memory (BSL/InfoMem/SRAM/FRAM):
  // reads there are side-effect-free and fault-free, so the fast path may
  // cache fetched words. Devices live only in the register space, which is
  // never plain memory. Pure.
  static bool IsPlainMemory(uint16_t addr) {
    const uint32_t a = addr;
    return InRange(a, kBslStart, kBslEnd) || IsInfoMem(a) || IsSram(a) || a >= kFramStart;
  }

  // CPU-facing accessors. Word addresses have bit 0 ignored (as on the real
  // part). An MPU refusal yields value 0x3FFF on reads and drops writes; the
  // violation is latched in the MPU, not reported here. Only ReadWord
  // fetches (`kind` kFetch or kRead); the others are data accesses. The
  // word accessors are inline and defined in src/mcu/bus-inl.h: include it
  // where they are called.
  inline uint16_t ReadWord(uint16_t addr, AccessKind kind);
  inline void WriteWord(uint16_t addr, uint16_t value);
  uint8_t ReadByte(uint16_t addr);
  void WriteByte(uint16_t addr, uint8_t value);

  // Sticky hardware fault from the most recent access sequence.
  BusFault fault() const { return fault_; }
  void ClearFault() { fault_ = BusFault::kNone; }

  // Host-side (non-architectural) access: no MPU, no counting, no penalties.
  // Used by loaders, tests, and the OS to implement services.
  uint8_t PeekByte(uint16_t addr) const;
  void PokeByte(uint16_t addr, uint8_t value);
  uint16_t PeekWord(uint16_t addr) const;
  void PokeWord(uint16_t addr, uint16_t value);
  Status LoadImage(uint16_t base, const std::vector<uint8_t>& bytes);

  // Snapshot support: memory image + bus bookkeeping. Wiring (devices, MPU,
  // counted regions) is reconstructed by the owner, not serialized.
  void SaveState(SnapshotWriter& w) const;
  void LoadState(SnapshotReader& r);

 private:
  // Value returned for refused/unmapped reads; an out-of-thin-air pattern
  // that is easy to spot in traces (and decodes to a CMP, never silently
  // useful).
  static constexpr uint16_t kRefusedReadValue = 0x3FFF;

  // Plain memory the CPU may store into: plain memory minus the BSL stub.
  static bool IsWritableMemory(uint16_t addr) {
    const uint32_t a = addr;
    return a >= kFramStart || IsSram(a) || IsInfoMem(a);
  }

  // The out-of-line halves of ReadWord/WriteWord, reached only after the
  // MPU has permitted the access: the register space (devices) and the
  // faults (holes, stores into the BSL stub).
  uint16_t ReadWordSlow(uint16_t addr, AccessKind kind);
  void WriteWordSlow(uint16_t addr, uint16_t value);

  struct MappedDevice {
    BusDevice* device;
    uint16_t base;
  };
  // One slot-table load; nullptr outside every device.
  const MappedDevice* DeviceFor(uint16_t addr) const {
    if (addr >= kPeriphEnd || device_slot_[addr] == 0) {
      return nullptr;
    }
    return &devices_[device_slot_[addr] - 1];
  }

  void Count(uint16_t addr) {
    counted_accesses_ += (counted_[addr >> 6] >> (addr & 63)) & 1;
  }

  void AddFramPenalty(uint16_t addr) {
    if (fram_wait_states_ > 0 && IsAnyFram(addr)) {
      penalty_cycles_ += static_cast<uint64_t>(fram_wait_states_);
    }
  }

  // Invalidates code-cache entries covering `addr` (no-op when no cache is
  // registered). Called from every path that mutates mem_. Inline, in
  // bus-inl.h.
  inline void InvalidateCode(uint16_t addr);

  std::array<uint8_t, 0x10000> mem_{};  // flat backing store for all memory regions
  std::vector<MappedDevice> devices_;
  // Per register-space byte: 1 + index into devices_, or 0 for no device.
  std::array<uint8_t, kPeriphEnd> device_slot_{};
  // One bit per byte address: set inside a counted data region.
  std::array<uint64_t, 0x10000 / 64> counted_{};
  uint64_t counted_accesses_ = 0;
  Mpu* mpu_ = nullptr;
  CodeCache* code_cache_ = nullptr;
  FlightRecorder* flight_ = nullptr;
  BusFault fault_ = BusFault::kNone;
  int fram_wait_states_ = 0;
  uint64_t penalty_cycles_ = 0;
};

}  // namespace amulet

#endif  // SRC_MCU_BUS_H_
