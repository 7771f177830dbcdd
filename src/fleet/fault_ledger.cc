#include "src/fleet/fault_ledger.h"

#include <algorithm>
#include <tuple>

#include "src/common/binio.h"
#include "src/common/strings.h"
#include "src/scope/json.h"

namespace amulet {

namespace {
// The exemplar rule: a record from (device, at_cycles) replaces `current`
// when the bucket has none yet, or when it comes from a lower device id, or
// from the same device at an earlier cycle.
bool Precedes(int device, uint64_t at_cycles, const FaultExemplar& current) {
  return current.exemplar_device < 0 ||
         (device >= 0 &&
          std::tie(device, at_cycles) < std::tie(current.exemplar_device, current.at_cycles));
}
}  // namespace

void FaultLedger::Record(const FaultRecord& record, int device_id,
                         const std::string& app_name) {
  FaultBucket& bucket = buckets_[KeyFor(record.kind, record.scope, record.pc)];
  bucket.kind = record.kind;
  bucket.pc = record.pc;
  bucket.scope = record.scope;
  bucket.count += 1;
  // `devices` counts 1 per source ledger and becomes "distinct devices"
  // after the per-device ledgers are merged (each device merges once).
  if (bucket.devices == 0) {
    bucket.devices = 1;
  }
  if (Precedes(device_id, record.at_cycles, bucket)) {
    static_cast<FaultExemplar&>(bucket) = {
        device_id, record.addr,        record.at_cycles,  record.app_index,
        app_name,  record.description, record.call_stack, record.flight};
  }
}

void FaultLedger::Merge(const FaultLedger& other) {
  for (const auto& [key, theirs] : other.buckets_) {
    auto [it, inserted] = buckets_.try_emplace(key, theirs);
    if (inserted) {
      continue;
    }
    FaultBucket& ours = it->second;
    ours.count += theirs.count;
    ours.devices += theirs.devices;
    if (Precedes(theirs.exemplar_device, theirs.at_cycles, ours)) {
      static_cast<FaultExemplar&>(ours) = theirs;
    }
  }
}

uint64_t FaultLedger::total_faults() const {
  uint64_t total = 0;
  for (const auto& [key, bucket] : buckets_) {
    total += bucket.count;
  }
  return total;
}

std::vector<const FaultBucket*> FaultLedger::TopK(size_t k) const {
  std::vector<const FaultBucket*> out;
  out.reserve(buckets_.size());
  for (const auto& [key, bucket] : buckets_) {
    out.push_back(&bucket);
  }
  // Stable w.r.t. the map's signature order, so equal counts tie-break
  // deterministically.
  std::stable_sort(out.begin(), out.end(),
                   [](const FaultBucket* a, const FaultBucket* b) { return a->count > b->count; });
  if (out.size() > k) {
    out.resize(k);
  }
  return out;
}

std::string FaultLedger::DigestText() const {
  std::string out;
  for (const auto& [key, b] : buckets_) {
    out += StrFormat("fb:%u,%s,%u,%llu,%llu,%d,%u,%llu,%d\n", static_cast<unsigned>(b.kind),
                     RegionTagName(b.scope), static_cast<unsigned>(b.pc),
                     static_cast<unsigned long long>(b.count),
                     static_cast<unsigned long long>(b.devices), b.exemplar_device,
                     static_cast<unsigned>(b.addr), static_cast<unsigned long long>(b.at_cycles),
                     b.app_index);
  }
  return out;
}

std::string FaultLedger::ToJsonl() const {
  std::string out;
  for (const auto& [key, b] : buckets_) {
    std::string line = "{";
    line += "\"kind\":" + JsonQuoted(FaultKindName(b.kind));
    line += ",\"pc\":" + StrFormat("%u", static_cast<unsigned>(b.pc));
    line += ",\"scope\":" + JsonQuoted(RegionTagName(b.scope));
    line += StrFormat(",\"count\":%llu,\"devices\":%llu",
                      static_cast<unsigned long long>(b.count),
                      static_cast<unsigned long long>(b.devices));
    line += StrFormat(",\"exemplar_device\":%d,\"addr\":%u,\"at_cycles\":%llu,\"app_index\":%d",
                      b.exemplar_device, static_cast<unsigned>(b.addr),
                      static_cast<unsigned long long>(b.at_cycles), b.app_index);
    line += ",\"app\":" + JsonQuoted(b.app_name);
    line += ",\"description\":" + JsonQuoted(b.description);
    line += ",\"call_stack\":[";
    for (size_t i = 0; i < b.call_stack.size(); ++i) {
      line += StrFormat(i == 0 ? "%u" : ",%u", static_cast<unsigned>(b.call_stack[i]));
    }
    line += "],\"flight\":[";
    for (size_t i = 0; i < b.flight.size(); ++i) {
      const FlightEvent& e = b.flight[i];
      line += StrFormat("%s{\"cycles\":%llu,\"kind\":%s,\"a\":%u,\"b\":%u}", i == 0 ? "" : ",",
                        static_cast<unsigned long long>(e.cycles),
                        JsonQuoted(FlightEventKindName(e.kind)).c_str(),
                        static_cast<unsigned>(e.a), static_cast<unsigned>(e.b));
    }
    line += "]}";
    out += line + "\n";
  }
  return out;
}

std::string FaultLedger::RenderTriage(size_t k) const {
  std::string out;
  out += StrFormat("fault ledger: %llu record(s) in %zu bucket(s)\n",
                   static_cast<unsigned long long>(total_faults()), buckets_.size());
  if (buckets_.empty()) {
    return out;
  }
  out += StrFormat("  %-4s %-10s %-10s %-13s %-8s %-8s %s\n", "#", "count", "devices", "kind",
                   "pc", "scope", "exemplar");
  const std::vector<const FaultBucket*> top = TopK(k);
  for (size_t i = 0; i < top.size(); ++i) {
    const FaultBucket& b = *top[i];
    out += StrFormat("  %-4zu %-10llu %-10llu %-13s %-8s %-8s device %d: %s\n", i + 1,
                     static_cast<unsigned long long>(b.count),
                     static_cast<unsigned long long>(b.devices), FaultKindName(b.kind),
                     HexWord(b.pc).c_str(), RegionTagName(b.scope), b.exemplar_device,
                     b.description.c_str());
  }
  if (top.size() < buckets_.size()) {
    out += StrFormat("  ... %zu more bucket(s)\n", buckets_.size() - top.size());
  }
  return out;
}

void FaultLedger::SaveState(SnapshotWriter& w) const {
  w.U32(static_cast<uint32_t>(buckets_.size()));
  for (const auto& [key, b] : buckets_) {
    w.U8(static_cast<uint8_t>(b.kind));
    w.U8(static_cast<uint8_t>(b.scope));
    w.U16(b.pc);
    w.U64(b.count);
    w.U64(b.devices);
    w.U32(static_cast<uint32_t>(b.exemplar_device));
    w.U16(b.addr);
    w.U64(b.at_cycles);
    w.U32(static_cast<uint32_t>(b.app_index));
    w.Str(b.app_name);
    w.Str(b.description);
    w.U32(static_cast<uint32_t>(b.call_stack.size()));
    for (uint16_t ra : b.call_stack) {
      w.U16(ra);
    }
    w.U32(static_cast<uint32_t>(b.flight.size()));
    for (const FlightEvent& e : b.flight) {
      w.U64(e.cycles);
      w.U16(e.a);
      w.U16(e.b);
      w.U8(static_cast<uint8_t>(e.kind));
    }
  }
}

Status FaultLedger::LoadState(SnapshotReader& r) {
  buckets_.clear();
  const uint32_t n = r.U32();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    FaultBucket b;
    const uint8_t kind = r.U8();
    const uint8_t scope = r.U8();
    if (r.ok() && kind >= static_cast<uint8_t>(FaultKind::kCount)) {
      r.Fail(InvalidArgumentError(StrFormat("fault ledger: fault kind %u out of range", kind)));
    }
    if (r.ok() && scope >= kRegionTagCount) {
      r.Fail(InvalidArgumentError(StrFormat("fault ledger: region tag %u out of range", scope)));
    }
    b.kind = static_cast<FaultKind>(kind);
    b.scope = static_cast<RegionTag>(scope);
    b.pc = r.U16();
    b.count = r.U64();
    b.devices = r.U64();
    b.exemplar_device = static_cast<int>(r.U32());
    b.addr = r.U16();
    b.at_cycles = r.U64();
    b.app_index = static_cast<int>(r.U32());
    b.app_name = r.Str();
    b.description = r.Str();
    const uint32_t frames = r.U32();
    for (uint32_t f = 0; f < frames && r.ok(); ++f) {
      b.call_stack.push_back(r.U16());
    }
    const uint32_t events = r.U32();
    for (uint32_t e = 0; e < events && r.ok(); ++e) {
      FlightEvent event;
      event.cycles = r.U64();
      event.a = r.U16();
      event.b = r.U16();
      const uint8_t event_kind = r.U8();
      if (r.ok() && (event_kind < static_cast<uint8_t>(FlightEventKind::kBranch) ||
                     event_kind > static_cast<uint8_t>(FlightEventKind::kHostIo))) {
        r.Fail(InvalidArgumentError(
            StrFormat("fault ledger: flight event kind %u out of range", event_kind)));
      }
      event.kind = static_cast<FlightEventKind>(event_kind);
      b.flight.push_back(event);
    }
    const Key key = KeyFor(b.kind, b.scope, b.pc);
    if (r.ok() && buckets_.contains(key)) {
      r.Fail(InvalidArgumentError(StrFormat(
          "fault ledger: two buckets with signature %s/%s/%s", FaultKindName(b.kind),
          RegionTagName(b.scope), HexWord(b.pc).c_str())));
    }
    if (r.ok()) {
      buckets_.emplace(key, std::move(b));
    }
  }
  return r.status();
}

}  // namespace amulet
