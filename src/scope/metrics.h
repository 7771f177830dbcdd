// Streaming metrics: named counters and fixed-bucket log2 histograms with a
// constant-size, order-independent mergeable representation.
//
// Everything is unsigned 64-bit integer state; Merge() is elementwise
// addition (plus min/max), which is commutative and associative — merging a
// million per-device registries yields bit-identical state regardless of
// merge order or worker-thread count. That is the property the fleet engine
// leans on: aggregate memory is O(metrics x buckets), independent of device
// count, and fleet digests stay stable across --jobs values. Quantiles are
// computed at render time from the merged buckets (nearest-rank over the
// bucket CDF, reported as the bucket's geometric midpoint).
#ifndef SRC_SCOPE_METRICS_H_
#define SRC_SCOPE_METRICS_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/common/status.h"

namespace amulet {

class SnapshotReader;
class SnapshotWriter;

// Log2 histogram: bucket i holds values v with bit_width(v) == i, i.e.
// bucket 0 = {0}, bucket 1 = {1}, bucket 2 = {2,3}, bucket 3 = {4..7}, ...
// 65 buckets cover the full uint64 range with ~2x relative resolution.
struct LogHistogram {
  static constexpr int kBuckets = 65;

  uint64_t buckets[kBuckets] = {};
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = UINT64_MAX;  // UINT64_MAX while empty
  uint64_t max = 0;

  static int BucketOf(uint64_t value);
  // Inclusive value range covered by a bucket, and its midpoint (the value
  // quantiles report for hits in that bucket).
  static uint64_t BucketLo(int bucket);
  static uint64_t BucketHi(int bucket);
  static uint64_t BucketMid(int bucket);

  void Record(uint64_t value);
  void Merge(const LogHistogram& other);

  // Binary round trip (sparse buckets); used by MetricRegistry::SaveState.
  void SaveState(SnapshotWriter& w) const;
  Status LoadState(SnapshotReader& r);

  double Mean() const { return count > 0 ? static_cast<double>(sum) / count : 0.0; }
  // Nearest-rank quantile (q in [0,1]) over the bucket CDF; bucket-midpoint
  // resolution. Returns 0 for an empty histogram.
  uint64_t Quantile(double q) const;
};

class MetricRegistry {
 public:
  // Counters: monotonically accumulating named values.
  void Add(const std::string& name, uint64_t delta);
  uint64_t counter(const std::string& name) const;

  // Histograms: per-sample observations.
  void Observe(const std::string& name, uint64_t value);
  const LogHistogram* histogram(const std::string& name) const;

  // Order-independent merge (sums counters, merges histograms).
  void Merge(const MetricRegistry& other);

  size_t counter_count() const { return counters_.size(); }
  size_t histogram_count() const { return histograms_.size(); }
  bool empty() const { return counters_.empty() && histograms_.empty(); }

  // Approximate retained bytes — used by tests to assert that fleet
  // aggregation memory does not grow with device count.
  size_t ApproxBytes() const;

  // Binary serialization of the complete registry (every counter and
  // histogram), via the shared snapshot writer/reader (src/common/binio.h).
  // LoadState replaces the current contents; a corrupt stream (including a
  // counter or histogram name that appears twice, which SaveState never
  // writes) yields a non-OK Status and an unspecified registry. The round
  // trip is bit-exact — the fleet checkpoint format leans on this to resume
  // a run with a digest identical to an uninterrupted one.
  void SaveState(SnapshotWriter& w) const;
  Status LoadState(SnapshotReader& r);

  // Deterministic JSON (keys in map order, integers only): the
  // `amuletc fleet --metrics-out=FILE` format. Histograms render buckets,
  // count/sum/min/max and derived p50/p95/p99. Names are escaped, so the
  // output is valid JSON for any metric name (checked with ValidateJson in
  // tests).
  std::string ToJson() const;

  // Human-readable table.
  std::string Render() const;

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, LogHistogram> histograms_;
};

}  // namespace amulet

#endif  // SRC_SCOPE_METRICS_H_
