// Region map for cycle attribution: every 16-bit address carries a tag
// saying what kind of code (or data) lives there. The toolchain marks the
// interesting instruction ranges with zero-byte paired assembler labels
//
//   __scope_b_<tag>_<id>:   ... instructions ...   __scope_e_<tag>_<id>:
//
// (`tag` contains no underscores; `id` is any unique suffix). Labels emit no
// bytes, so tagging never changes the image or its cycle counts — the map is
// recovered from the linked symbol table and painted into a flat 64 Ki tag
// array for O(1) lookup per retired instruction.
#ifndef SRC_SCOPE_REGION_MAP_H_
#define SRC_SCOPE_REGION_MAP_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace amulet {

enum class RegionTag : uint8_t {
  kOther = 0,     // unpainted: SRAM, peripherals, vectors, host-only space
  kOs,            // AmuletOS core text/data (idle loop, NMI stub, OS data)
  kApp,           // application code/data as compiled from AmuletC source
  kGate,          // per-app per-API syscall gates ("syscall stubs")
  kDispatch,      // event-dispatch veneers
  kRuntime,       // shared compiler runtime (mul/div/shift/fault stubs)
  kCheckLow,      // compiler-inserted lower-bound checks
  kCheckHigh,     // compiler-inserted upper-bound checks
  kCheckIndex,    // feature-limited index checks (call site + routine)
  kCheckRet,      // return-address checks / shadow-return-stack code
  kMpuReconfig,   // MPU reprogramming sequences inside gates/veneers
  kCount,
};

inline constexpr size_t kRegionTagCount = static_cast<size_t>(RegionTag::kCount);

// Short stable name ("check-low", "mpu-reconfig", ...) for reports/JSON.
const char* RegionTagName(RegionTag tag);

// The assembler-label tag mnemonics ("cklo", "mpur", ...). Returns
// RegionTag::kOther for an unknown mnemonic.
RegionTag RegionTagForMnemonic(const std::string& mnemonic);

enum class ScopeEdge { kBegin, kEnd };

// The zero-byte label that opens or closes a `tag` span: "__scope_b_<mnemonic>_<id>"
// or "__scope_e_<mnemonic>_<id>". Every emitter of scope labels (codegen, the
// AFT's gates and veneers, the runtime) spells them through this. `tag` must
// have a mnemonic: gate, dispatch, runtime, mpu-reconfig or a check.
std::string ScopeLabel(ScopeEdge edge, RegionTag tag, const std::string& id);

// True for a begin or end scope label (listings leave them out).
bool IsScopeLabel(const std::string& symbol);

class RegionMap {
 public:
  RegionMap() : tags_(0x10000, static_cast<uint8_t>(RegionTag::kOther)) {}

  // Paints [lo, hi) — later paints win, so callers paint coarse regions
  // first and the most specific (check/reconfig spans) last.
  void Paint(uint32_t lo, uint32_t hi, RegionTag tag);

  RegionTag At(uint16_t addr) const { return static_cast<RegionTag>(tags_[addr]); }

  // Bytes tagged `tag` (map introspection; tests and reports).
  size_t TaggedBytes(RegionTag tag) const;

 private:
  std::vector<uint8_t> tags_;
};

// One paired-label span recovered from the symbol table.
struct ScopeSpan {
  RegionTag tag = RegionTag::kOther;
  std::string mnemonic;  // raw tag text from the label
  std::string id;
  uint16_t lo = 0;
  uint16_t hi = 0;  // exclusive
};

// Scans `symbols` for __scope_b_*/__scope_e_* pairs. Unpaired or unknown
// labels are skipped (forward compatibility: an old binary reading a newer
// image must not fail).
std::vector<ScopeSpan> ParseScopeSpans(const std::map<std::string, uint16_t>& symbols);

// Paints all parsed spans, most-specific-last (gate/dispatch/runtime before
// mpu-reconfig before checks), so nested spans resolve to the finest tag.
void PaintScopeSpans(const std::vector<ScopeSpan>& spans, RegionMap* map);

}  // namespace amulet

#endif  // SRC_SCOPE_REGION_MAP_H_
