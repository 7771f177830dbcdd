// Fleet-level fault forensics: dedups per-device FaultRecords into crash
// buckets keyed by the (fault kind, faulting PC, scope) signature. Buckets
// merge order-independently — counts add, the exemplar record follows the
// lowest device id — so a ledger assembled under any --jobs interleaving (or
// re-assembled across checkpoint/resume) digests byte-identically, the same
// discipline MetricRegistry's histogram merges follow.
//
// The ledger is what crosses the fleet boundary: RunFleet/RunCampaign merge
// one per-device ledger per run slice, persist the result as an AMFC
// checkpoint section, and `amuletc faults` renders the top-K triage report.
#ifndef SRC_FLEET_FAULT_LEDGER_H_
#define SRC_FLEET_FAULT_LEDGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/os/os.h"

namespace amulet {

// The record a bucket shows for all of its faults: the one from the
// lowest-numbered device that hit the bucket, the earliest simulated cycle
// breaking ties within that device — a deterministic choice under any merge
// order.
struct FaultExemplar {
  int exemplar_device = -1;  // -1: the bucket has no exemplar yet
  uint16_t addr = 0;
  uint64_t at_cycles = 0;
  int app_index = -1;
  std::string app_name;
  std::string description;
  std::vector<uint16_t> call_stack;
  std::vector<FlightEvent> flight;
};

// One crash bucket. Signature fields identify it; the counts accumulate.
struct FaultBucket : FaultExemplar {
  FaultKind kind = FaultKind::kUnknown;
  uint16_t pc = 0;
  RegionTag scope = RegionTag::kOther;

  uint64_t count = 0;    // fault records folded into this bucket
  uint64_t devices = 0;  // distinct devices among them
};

class FaultLedger {
 public:
  // Folds one device fault into its bucket.
  void Record(const FaultRecord& record, int device_id, const std::string& app_name);

  // Order-independent merge: counts add; the exemplar with the lower device
  // id wins. Commutative and associative, like MetricRegistry::Merge.
  void Merge(const FaultLedger& other);

  bool empty() const { return buckets_.empty(); }
  size_t bucket_count() const { return buckets_.size(); }
  uint64_t total_faults() const;

  // Buckets by descending count (signature order breaks ties), at most k.
  std::vector<const FaultBucket*> TopK(size_t k) const;

  // Canonical digest text: one line per bucket in signature order, covering
  // the signature, counts, and exemplar identity. Deterministic at any
  // --jobs and across checkpoint/resume; hash it for the fleet digest.
  std::string DigestText() const;

  // One JSON object per bucket per line (JSONL), signature order, with the
  // full exemplar including call stack and flight tail.
  std::string ToJsonl() const;

  // Human triage report: header plus the top-k buckets with exemplar
  // details.
  std::string RenderTriage(size_t k) const;

  // Binary round trip for the AMFC checkpoint section. LoadState rejects
  // what SaveState never writes: an out-of-range fault kind, region tag or
  // flight-event kind, and two buckets with one signature.
  void SaveState(SnapshotWriter& w) const;
  Status LoadState(SnapshotReader& r);

 private:
  // Signature order: kind, then scope, then pc — stable iteration order for
  // digest/JSONL output.
  using Key = uint32_t;  // kind << 24 | scope << 16 | pc
  static Key KeyFor(FaultKind kind, RegionTag scope, uint16_t pc) {
    return static_cast<Key>(static_cast<uint32_t>(kind) << 24 |
                            static_cast<uint32_t>(scope) << 16 | pc);
  }

  std::map<Key, FaultBucket> buckets_;
};

}  // namespace amulet

#endif  // SRC_FLEET_FAULT_LEDGER_H_
