// Predecoded-instruction cache for the fast simulator core.
//
// A 32768-slot index (one uint16_t per 16-bit word address, 64 KB) points
// into a dense vector of entries, each holding the PredecodedInsn record, its
// dispatch slot and the FRAM word count its fetch replay needs. The dense vector grows only
// when an address is predecoded for the first time, and an address keeps its
// entry across invalidations, so memory is bounded by the number of distinct
// addresses a device ever executes (at most 32768 entries; ~550-930 for the
// fleet's firmware) however often its code is rewritten. Index 0 is a
// sentinel entry that is never valid: a lookup is one index load plus one
// entry load, with no branch for never-executed addresses.
//
// Fetch permission is not cached: the MPU is reprogrammed on every app/OS
// switch, so StepFast() checks it per step. Entries are validated lazily by
// Cpu::StepFast() and killed by the bus whenever backing memory changes:
// architectural writes (self-modifying code, OTA bank writes), host-side
// pokes, image loads, and snapshot restore.
//
// The cache is derived state. It is deliberately excluded from snapshot
// serialization (src/mcu/snapshot.h): a cloned device starts with an empty
// cache and Bus::LoadState() invalidates it wholesale.
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
    // InvalidateAll() bumps the generation instead of touching every entry.
    uint32_t gen = 0;
    // True when any word of the instruction lies outside plain backed
    // memory (peripheral space, holes): fetches there have side effects or
    // faults the fast path cannot replay, so always take the interpreter.
    bool slow_only = false;
    // How many of the fetched words live in FRAM (wait-state penalties).
    uint8_t fram_words = 0;
    // The record's slot in the CPU's fast dispatch table; src/mcu/cpu.cc
    // owns the table, its layout and the rule that picks the slot.
    uint8_t handler = 0;
    PredecodedInsn pd;
  };
  static_assert(sizeof(Entry) == 32,
                "a cache entry is 32 bytes, two per cache line: a 28-byte entry ran "
                "bench_sim's alu_reg ~8% slower (92 vs 100 M insn/s)");

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

  // `generation` is the first live generation (never 0, the sentinel's);
  // starting near 2^32 lets a test reach the wraparound.
  explicit CodeCache(uint32_t generation = 1)
      : index_(kSlots, 0), entries_(1), generation_(generation) {}

  // The entry for `addr` (word-aligned internally), or the never-valid
  // sentinel when the address was never predecoded. The caller checks
  // IsValid() and fills the address through Claim() on a miss.
  const Entry& Find(uint16_t addr) const { return entries_[index_[(addr & kWordMask) >> 1]]; }

  // The entry to (re)fill for `addr`: its existing entry, or a new one
  // appended to the dense vector. The pointer is good until the next Claim()
  // of a never-seen address, which may reallocate the vector.
  Entry* Claim(uint16_t addr) {
    uint16_t& slot = index_[(addr & kWordMask) >> 1];
    if (slot == 0) {
      slot = static_cast<uint16_t>(entries_.size());
      entries_.emplace_back();
    }
    return &entries_[slot];
  }

  bool IsValid(const Entry& entry) const { return entry.gen == generation_; }
  void MarkValid(Entry* entry) { entry->gen = generation_; }

  // Kills any entry whose instruction could span the word at `addr`:
  // instructions are at most three words long, so the starting addresses
  // addr, addr-2 and addr-4 cover every possibility (with uint16 wrap).
  // An address without an entry resolves to the sentinel, whose gen is
  // already 0.
  void InvalidateWord(uint16_t addr) {
    const uint16_t a = addr & kWordMask;
    entries_[index_[a >> 1]].gen = 0;
    entries_[index_[static_cast<uint16_t>(a - 2) >> 1]].gen = 0;
    entries_[index_[static_cast<uint16_t>(a - 4) >> 1]].gen = 0;
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

  // Distinct addresses predecoded so far (the sentinel excluded).
  size_t size() const { return entries_.size() - 1; }

  const Stats& stats() const { return stats_; }
  void CountHit() { ++stats_.hits; }
  void CountMiss() { ++stats_.misses; }
  void CountSlowPath() { ++stats_.slow_paths; }

 private:
  static constexpr uint16_t kWordMask = 0xFFFE;
  static constexpr size_t kSlots = 0x10000 / 2;

  // Per word address: index into entries_, 0 (the sentinel) when the
  // address was never predecoded. 32768 slots plus the sentinel fit uint16_t.
  std::vector<uint16_t> index_;
  std::vector<Entry> entries_;
  uint32_t generation_;
  Stats stats_;
};

}  // namespace amulet

#endif  // SRC_MCU_CODE_CACHE_H_
