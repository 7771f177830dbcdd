#include "src/scope/metrics.h"

#include <bit>

#include "src/common/binio.h"
#include "src/common/strings.h"
#include "src/scope/json.h"

namespace amulet {

int LogHistogram::BucketOf(uint64_t value) {
  return value == 0 ? 0 : std::bit_width(value);
}

uint64_t LogHistogram::BucketLo(int bucket) {
  if (bucket <= 0) {
    return 0;
  }
  return uint64_t{1} << (bucket - 1);
}

uint64_t LogHistogram::BucketHi(int bucket) {
  if (bucket <= 0) {
    return 0;
  }
  if (bucket >= 64) {
    return UINT64_MAX;
  }
  return (uint64_t{1} << bucket) - 1;
}

uint64_t LogHistogram::BucketMid(int bucket) {
  const uint64_t lo = BucketLo(bucket);
  const uint64_t hi = BucketHi(bucket);
  return lo + (hi - lo) / 2;
}

void LogHistogram::Record(uint64_t value) {
  ++buckets[BucketOf(value)];
  ++count;
  sum += value;
  if (value < min) {
    min = value;
  }
  if (value > max) {
    max = value;
  }
}

void LogHistogram::Merge(const LogHistogram& other) {
  for (int i = 0; i < kBuckets; ++i) {
    buckets[i] += other.buckets[i];
  }
  count += other.count;
  sum += other.sum;
  if (other.min < min) {
    min = other.min;
  }
  if (other.max > max) {
    max = other.max;
  }
}

uint64_t LogHistogram::Quantile(double q) const {
  if (count == 0) {
    return 0;
  }
  if (q < 0) {
    q = 0;
  }
  if (q > 1) {
    q = 1;
  }
  // Nearest-rank: the smallest bucket whose cumulative count reaches
  // ceil(q * count), the ceiling taken by integer comparison so e.g.
  // count=10, q=0.95 yields rank 10 (truncation alone would give 9 and
  // systematically pick one bucket too low at the tails).
  const double exact = q * static_cast<double>(count);
  uint64_t rank = static_cast<uint64_t>(exact);
  if (static_cast<double>(rank) < exact) {
    ++rank;
  }
  if (rank < 1) {
    rank = 1;
  }
  if (rank > count) {
    rank = count;
  }
  uint64_t cumulative = 0;
  for (int i = 0; i < kBuckets; ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) {
      // Clamp the bucket's midpoint into the observed [min, max] so tails
      // don't overshoot the data (matters for the top bucket).
      uint64_t mid = BucketMid(i);
      if (mid < min) {
        mid = min;
      }
      if (mid > max) {
        mid = max;
      }
      return mid;
    }
  }
  return max;
}

void LogHistogram::SaveState(SnapshotWriter& w) const {
  w.U64(count);
  w.U64(sum);
  w.U64(min);
  w.U64(max);
  uint8_t nonzero = 0;
  for (int i = 0; i < kBuckets; ++i) {
    if (buckets[i] != 0) {
      ++nonzero;
    }
  }
  w.U8(nonzero);
  for (int i = 0; i < kBuckets; ++i) {
    if (buckets[i] != 0) {
      w.U8(static_cast<uint8_t>(i));
      w.U64(buckets[i]);
    }
  }
}

Status LogHistogram::LoadState(SnapshotReader& r) {
  *this = LogHistogram();
  count = r.U64();
  sum = r.U64();
  min = r.U64();
  max = r.U64();
  const uint8_t nonzero = r.U8();
  for (uint8_t i = 0; i < nonzero; ++i) {
    const uint8_t bucket = r.U8();
    const uint64_t hits = r.U64();
    if (!r.ok()) {
      break;
    }
    if (bucket >= kBuckets) {
      r.Fail(InvalidArgumentError(
          StrFormat("histogram bucket index %u out of range", bucket)));
      break;
    }
    buckets[bucket] = hits;
  }
  return r.status();
}

void MetricRegistry::Add(const std::string& name, uint64_t delta) {
  counters_[name] += delta;
}

uint64_t MetricRegistry::counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it != counters_.end() ? it->second : 0;
}

void MetricRegistry::Observe(const std::string& name, uint64_t value) {
  histograms_[name].Record(value);
}

const LogHistogram* MetricRegistry::histogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it != histograms_.end() ? &it->second : nullptr;
}

void MetricRegistry::Merge(const MetricRegistry& other) {
  for (const auto& [name, value] : other.counters_) {
    counters_[name] += value;
  }
  for (const auto& [name, histogram] : other.histograms_) {
    histograms_[name].Merge(histogram);
  }
}

size_t MetricRegistry::ApproxBytes() const {
  size_t bytes = 0;
  for (const auto& [name, value] : counters_) {
    bytes += name.size() + sizeof(value) + 2 * sizeof(void*);
  }
  for (const auto& [name, histogram] : histograms_) {
    bytes += name.size() + sizeof(histogram) + 2 * sizeof(void*);
  }
  return bytes;
}

void MetricRegistry::SaveState(SnapshotWriter& w) const {
  w.U32(static_cast<uint32_t>(counters_.size()));
  for (const auto& [name, value] : counters_) {
    w.Str(name);
    w.U64(value);
  }
  w.U32(static_cast<uint32_t>(histograms_.size()));
  for (const auto& [name, histogram] : histograms_) {
    w.Str(name);
    histogram.SaveState(w);
  }
}

Status MetricRegistry::LoadState(SnapshotReader& r) {
  counters_.clear();
  histograms_.clear();
  const uint32_t counter_count = r.U32();
  for (uint32_t i = 0; r.ok() && i < counter_count; ++i) {
    std::string name = r.Str();
    const uint64_t value = r.U64();
    if (r.ok() && !counters_.try_emplace(name, value).second) {
      r.Fail(InvalidArgumentError(StrFormat("metrics: counter '%s' twice", name.c_str())));
    }
  }
  const uint32_t histogram_count = r.U32();
  for (uint32_t i = 0; r.ok() && i < histogram_count; ++i) {
    std::string name = r.Str();
    auto [it, inserted] = histograms_.try_emplace(name);
    if (r.ok() && !inserted) {
      r.Fail(InvalidArgumentError(StrFormat("metrics: histogram '%s' twice", name.c_str())));
    }
    RETURN_IF_ERROR(r.status());
    RETURN_IF_ERROR(it->second.LoadState(r));
  }
  return r.status();
}

std::string MetricRegistry::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    if (!first) {
      out += ",";
    }
    first = false;
    AppendJsonString(name, &out);
    out += StrFormat(":%llu", static_cast<unsigned long long>(value));
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) {
      out += ",";
    }
    first = false;
    AppendJsonString(name, &out);
    out += StrFormat(":{\"count\":%llu,\"sum\":%llu,\"min\":%llu,\"max\":%llu",
                     static_cast<unsigned long long>(h.count),
                     static_cast<unsigned long long>(h.sum),
                     static_cast<unsigned long long>(h.count > 0 ? h.min : 0),
                     static_cast<unsigned long long>(h.max));
    out += StrFormat(",\"p50\":%llu,\"p95\":%llu,\"p99\":%llu",
                     static_cast<unsigned long long>(h.Quantile(0.50)),
                     static_cast<unsigned long long>(h.Quantile(0.95)),
                     static_cast<unsigned long long>(h.Quantile(0.99)));
    out += ",\"buckets\":{";
    bool first_bucket = true;
    for (int i = 0; i < LogHistogram::kBuckets; ++i) {
      if (h.buckets[i] == 0) {
        continue;
      }
      if (!first_bucket) {
        out += ",";
      }
      first_bucket = false;
      out += StrFormat("\"%d\":%llu", i, static_cast<unsigned long long>(h.buckets[i]));
    }
    out += "}}";
  }
  out += "}}";
  return out;
}

std::string MetricRegistry::Render() const {
  std::string out;
  if (!counters_.empty()) {
    out += "counters:\n";
    for (const auto& [name, value] : counters_) {
      out += StrFormat("  %-28s %14llu\n", name.c_str(),
                       static_cast<unsigned long long>(value));
    }
  }
  if (!histograms_.empty()) {
    out += StrFormat("  %-28s %10s %12s %12s %12s %12s\n", "histogram", "count", "p50",
                     "p95", "p99", "max");
    for (const auto& [name, h] : histograms_) {
      out += StrFormat("  %-28s %10llu %12llu %12llu %12llu %12llu\n", name.c_str(),
                       static_cast<unsigned long long>(h.count),
                       static_cast<unsigned long long>(h.Quantile(0.50)),
                       static_cast<unsigned long long>(h.Quantile(0.95)),
                       static_cast<unsigned long long>(h.Quantile(0.99)),
                       static_cast<unsigned long long>(h.max));
    }
  }
  return out;
}

}  // namespace amulet
