// Predecoded-instruction cache for the fast simulator core.
//
// One direct-mapped entry per 16-bit word address (32768 slots covering the
// whole address space), each holding the dense PredecodedInsn record and the
// FRAM word count its fetch replay needs. Fetch permission is not cached: the
// MPU is reprogrammed on every app/OS switch, so StepFast() checks it per
// step. Entries are validated lazily by Cpu::StepFast() and killed by the
// bus whenever backing memory changes: architectural writes (self-modifying
// code, OTA bank writes), host-side pokes, image loads, and snapshot restore.
//
// The cache is derived state. It is deliberately excluded from snapshot
// serialization (src/mcu/snapshot.h) so fleet cloning stays O(memcpy);
// Bus::LoadState() invalidates it wholesale instead.
#ifndef SRC_MCU_CODE_CACHE_H_
#define SRC_MCU_CODE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/isa/predecode.h"

namespace amulet {

class CodeCache {
 public:
  struct Entry {
    // Entry is live iff `gen` equals the cache's current generation.
    // InvalidateAll() bumps the generation instead of touching 32768 slots.
    uint32_t gen = 0;
    // True when any word of the instruction lies outside plain backed
    // memory (peripheral space, holes): fetches there have side effects or
    // faults the fast path cannot replay, so always take the interpreter.
    bool slow_only = false;
    // How many of the fetched words live in FRAM (wait-state penalties).
    uint8_t fram_words = 0;
    PredecodedInsn pd;
  };

  // Host-side effectiveness counters, maintained by Cpu::StepFast() (hits,
  // misses, slow paths) and by the invalidation entry points below. Never
  // serialized and never part of any digest: they measure the host
  // simulator, not the simulated machine, and differ between the fast and
  // interpreter cores by construction.
  struct Stats {
    uint64_t hits = 0;           // valid entry found for the fetch address
    uint64_t misses = 0;         // FillEntry() runs (including failures)
    uint64_t slow_paths = 0;     // deferrals to the interpreter from StepFast
    uint64_t invalidations = 0;  // InvalidateWord() calls (memory writes)
    uint64_t full_invalidations = 0;  // InvalidateAll() calls
  };

  CodeCache() : entries_(kEntries) {}

  // Returns the entry slot for `addr` (word-aligned internally). The caller
  // checks IsValid() and fills the slot on a miss.
  Entry* Slot(uint16_t addr) { return &entries_[(addr & kWordMask) >> 1]; }

  bool IsValid(const Entry& entry) const { return entry.gen == generation_; }
  void MarkValid(Entry* entry) { entry->gen = generation_; }

  // Kills any entry whose instruction could span the word at `addr`:
  // instructions are at most three words long, so the starting addresses
  // addr, addr-2 and addr-4 cover every possibility (with uint16 wrap).
  void InvalidateWord(uint16_t addr) {
    const uint16_t a = addr & kWordMask;
    entries_[a >> 1].gen = 0;
    entries_[static_cast<uint16_t>(a - 2) >> 1].gen = 0;
    entries_[static_cast<uint16_t>(a - 4) >> 1].gen = 0;
    ++stats_.invalidations;
  }

  // O(1) full invalidation via generation bump (image load, snapshot
  // restore). Handles the (theoretical) 2^32 wraparound by clearing.
  void InvalidateAll() {
    if (++generation_ == 0) {
      for (Entry& entry : entries_) {
        entry.gen = 0;
      }
      generation_ = 1;
    }
    ++stats_.full_invalidations;
  }

  const Stats& stats() const { return stats_; }
  void CountHit() { ++stats_.hits; }
  void CountMiss() { ++stats_.misses; }
  void CountSlowPath() { ++stats_.slow_paths; }

 private:
  static constexpr uint16_t kWordMask = 0xFFFE;
  static constexpr size_t kEntries = 0x10000 / 2;

  std::vector<Entry> entries_;
  uint32_t generation_ = 1;
  Stats stats_;
};

}  // namespace amulet

#endif  // SRC_MCU_CODE_CACHE_H_
