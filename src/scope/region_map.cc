#include "src/scope/region_map.h"

#include <algorithm>
#include <iterator>

#include "src/common/logging.h"

namespace amulet {

namespace {

// One row per tag, in enum order: the report name, the mnemonic its scope
// labels carry (none for the coarse tags BuildRegionMap paints from the
// layout) and the paint order, coarse containers first and the finest
// overlays last, so checks win over everything they sit inside.
struct RegionTagRow {
  RegionTag tag;
  const char* name;
  const char* mnemonic;
  int paint_order;
};

constexpr RegionTagRow kRegionTags[] = {
    {RegionTag::kOther, "other", nullptr, 0},
    {RegionTag::kOs, "os", nullptr, 0},
    {RegionTag::kApp, "app", nullptr, 0},
    {RegionTag::kGate, "gate", "gate", 0},
    {RegionTag::kDispatch, "dispatch", "disp", 0},
    {RegionTag::kRuntime, "runtime", "rt", 0},
    {RegionTag::kCheckLow, "check-low", "cklo", 2},
    {RegionTag::kCheckHigh, "check-high", "ckhi", 2},
    {RegionTag::kCheckIndex, "check-index", "ckix", 2},
    {RegionTag::kCheckRet, "check-ret", "ckret", 2},
    {RegionTag::kMpuReconfig, "mpu-reconfig", "mpur", 1},
};

constexpr bool RowsInEnumOrder() {
  for (size_t i = 0; i < std::size(kRegionTags); ++i) {
    if (static_cast<size_t>(kRegionTags[i].tag) != i) {
      return false;
    }
  }
  return std::size(kRegionTags) == kRegionTagCount;
}
static_assert(RowsInEnumOrder(), "kRegionTags needs one row per RegionTag, in enum order");

const RegionTagRow& Row(RegionTag tag) { return kRegionTags[static_cast<size_t>(tag)]; }

constexpr char kBeginPrefix[] = "__scope_b_";
constexpr char kEndPrefix[] = "__scope_e_";
constexpr size_t kPrefixLen = sizeof(kBeginPrefix) - 1;

}  // namespace

const char* RegionTagName(RegionTag tag) {
  return tag < RegionTag::kCount ? Row(tag).name : "?";
}

RegionTag RegionTagForMnemonic(const std::string& mnemonic) {
  for (const RegionTagRow& row : kRegionTags) {
    if (row.mnemonic != nullptr && mnemonic == row.mnemonic) {
      return row.tag;
    }
  }
  return RegionTag::kOther;
}

std::string ScopeLabel(ScopeEdge edge, RegionTag tag, const std::string& id) {
  AMULET_CHECK(tag < RegionTag::kCount && Row(tag).mnemonic != nullptr);
  return (edge == ScopeEdge::kBegin ? kBeginPrefix : kEndPrefix) +
         std::string(Row(tag).mnemonic) + "_" + id;
}

bool IsScopeLabel(const std::string& symbol) {
  return symbol.compare(0, kPrefixLen, kBeginPrefix) == 0 ||
         symbol.compare(0, kPrefixLen, kEndPrefix) == 0;
}

void RegionMap::Paint(uint32_t lo, uint32_t hi, RegionTag tag) {
  hi = std::min<uint32_t>(hi, 0x10000);
  for (uint32_t a = lo; a < hi; ++a) {
    tags_[a] = static_cast<uint8_t>(tag);
  }
}

size_t RegionMap::TaggedBytes(RegionTag tag) const {
  size_t n = 0;
  for (uint8_t t : tags_) {
    if (t == static_cast<uint8_t>(tag)) {
      ++n;
    }
  }
  return n;
}

std::vector<ScopeSpan> ParseScopeSpans(const std::map<std::string, uint16_t>& symbols) {
  std::vector<ScopeSpan> spans;
  for (const auto& [name, addr] : symbols) {
    if (name.compare(0, kPrefixLen, kBeginPrefix) != 0) {
      continue;
    }
    const std::string rest = name.substr(kPrefixLen);  // "<tag>_<id>"
    const size_t sep = rest.find('_');
    if (sep == std::string::npos) {
      continue;
    }
    ScopeSpan span;
    span.mnemonic = rest.substr(0, sep);
    span.id = rest.substr(sep + 1);
    span.tag = RegionTagForMnemonic(span.mnemonic);
    if (span.tag == RegionTag::kOther) {
      continue;
    }
    auto end_it = symbols.find(kEndPrefix + rest);
    if (end_it == symbols.end()) {
      continue;  // unpaired begin: skip rather than guess
    }
    span.lo = addr;
    span.hi = end_it->second;
    if (span.hi <= span.lo) {
      continue;  // empty or inverted span (e.g. checks compiled out)
    }
    spans.push_back(std::move(span));
  }
  return spans;
}

void PaintScopeSpans(const std::vector<ScopeSpan>& spans, RegionMap* map) {
  std::vector<const ScopeSpan*> ordered;
  ordered.reserve(spans.size());
  for (const ScopeSpan& span : spans) {
    ordered.push_back(&span);
  }
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const ScopeSpan* a, const ScopeSpan* b) {
                     return Row(a->tag).paint_order < Row(b->tag).paint_order;
                   });
  for (const ScopeSpan* span : ordered) {
    map->Paint(span->lo, span->hi, span->tag);
  }
}

}  // namespace amulet
