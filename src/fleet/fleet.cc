#include "src/fleet/fleet.h"

#include <chrono>
#include <memory>
#include <utility>

#include "src/common/strings.h"
#include "src/fleet/checkpoint.h"
#include "src/fleet/device.h"

namespace amulet {

namespace {

using fleet_internal::ClonedDevice;
using fleet_internal::CohortRuntime;
using fleet_internal::DeviceCounter;
using fleet_internal::kDeviceCounters;
using fleet_internal::RecordDeviceMetrics;
using fleet_internal::SecondsSince;

Status RunDevice(int device_id, const FleetConfig& config, const CohortRuntime& cohort,
                 DeviceStats* out, FaultLedger* ledger) {
  // Pure function of (fleet_seed, GLOBAL device id): the same device gets the
  // same stream no matter which shard simulates it.
  const uint32_t device_seed = fleet_internal::DeviceSeed(config.fleet_seed, device_id);
  ASSIGN_OR_RETURN(std::unique_ptr<ClonedDevice> device, cohort.Clone(device_seed, config));
  // The cohort's rest/walk/run weights shape the activity draw; the default
  // 1/1/1 weights reproduce the mode Clone already applied.
  device->os().sensors().set_mode(ActivityForDevice(cohort.cohort, device_seed));
  DeviceStats stats;
  stats.device_id = device_id;
  RETURN_IF_ERROR(device->Run(config.sim_ms, cohort.regions, &stats, ledger));
  stats.battery_impact_percent =
      fleet_internal::BatteryPercentFor(stats.cycles, config.sim_ms, config.energy);
  *out = stats;
  return OkStatus();
}

void Aggregate(FleetReport* report) {
  // Only this report's shard slice: rows outside it are untouched slots
  // (another shard's devices).
  const ShardRange range = ShardRangeFor(report->config.device_count,
                                         report->config.shard_index,
                                         report->config.shard_count);
  const size_t n = static_cast<size_t>(range.size());
  const DeviceStats* rows = report->devices.data() + range.lo;
  FleetAggregate& agg = report->aggregate;
  for (const DeviceCounter& c : kDeviceCounters) {
    std::vector<double> values(n);
    uint64_t total = 0;
    for (size_t i = 0; i < n; ++i) {
      values[i] = static_cast<double>(rows[i].*c.stat);
      total += rows[i].*c.stat;
    }
    agg.*c.summary = Summarize(std::move(values));
    agg.*c.total = total;
  }
  std::vector<double> battery(n);
  for (size_t i = 0; i < n; ++i) {
    battery[i] = rows[i].battery_impact_percent;
  }
  agg.battery_impact_percent = Summarize(std::move(battery));
}

// Streaming-mode aggregate: everything derives from the merged registry.
// Totals and min/max/mean are exact; quantiles have log2-bucket resolution.
void AggregateFromMetrics(FleetReport* report) {
  FleetAggregate& agg = report->aggregate;
  auto fill = [&](const std::string& name, StatSummary* s, double scale) {
    const LogHistogram* h = report->metrics.histogram(name);
    if (h == nullptr || h->count == 0) {
      return;
    }
    s->count = static_cast<int>(h->count);
    s->min = static_cast<double>(h->min) * scale;
    s->max = static_cast<double>(h->max) * scale;
    s->mean = h->Mean() * scale;
    s->p50 = static_cast<double>(h->Quantile(0.50)) * scale;
    s->p95 = static_cast<double>(h->Quantile(0.95)) * scale;
    s->p99 = static_cast<double>(h->Quantile(0.99)) * scale;
  };
  for (const DeviceCounter& c : kDeviceCounters) {
    agg.*c.total = report->metrics.counter(std::string("fleet.") + c.name);
    fill(std::string("device.") + c.name, &(agg.*c.summary), 1.0);
  }
  fill("device.battery_upct", &agg.battery_impact_percent, 1e-6);
}

// Shared body of RunFleet/ResumeFleet. `resume` (may be null) is a validated
// checkpoint whose completed devices are restored instead of simulated; the
// merged registry is order-independent and retained rows are slot-indexed by
// device id, so the resumed report — and its FleetDigest — is bit-identical
// to an uninterrupted run at any thread count.
Result<FleetReport> RunFleetImpl(const FleetConfig& config, const FleetCheckpoint* resume) {
  if (config.device_count <= 0) {
    return InvalidArgumentError("fleet needs at least one device");
  }
  if (config.shard_count < 1 || config.shard_index < 0 ||
      config.shard_index >= config.shard_count) {
    return InvalidArgumentError(StrFormat(
        "invalid shard slice %d/%d: --shard I/N needs 0 <= I < N", config.shard_index,
        config.shard_count));
  }
  if (config.shard_count > config.device_count) {
    return InvalidArgumentError(
        StrFormat("shard count %d exceeds device count %d (some shards would be empty)",
                  config.shard_count, config.device_count));
  }
  if (!config.profile.empty()) {
    RETURN_IF_ERROR(ValidateProfile(config.profile));
  }

  const auto boot_t0 = std::chrono::steady_clock::now();
  // One booted template per cohort; a homogeneous fleet gets exactly one
  // implicit cohort from config.apps/config.model with 1/1/1 activity
  // weights, reproducing the single-template behavior bit for bit.
  std::vector<Cohort> wanted = config.profile.cohorts;
  if (config.profile.empty()) {
    wanted.emplace_back();
    wanted.back().apps = config.apps;
    wanted.back().model = config.model;
  }
  std::vector<std::unique_ptr<CohortRuntime>> cohorts;
  for (const Cohort& cohort : wanted) {
    ASSIGN_OR_RETURN(std::unique_ptr<CohortRuntime> runtime,
                     fleet_internal::BootCohort(cohort, config));
    cohorts.push_back(std::move(runtime));
  }

  // Profile identity: the resolved cohort list plus each cohort's firmware
  // image hash. Zero marks a homogeneous run.
  PopulationProfile resolved_profile;
  std::vector<uint64_t> cohort_fw_hashes;
  for (const std::unique_ptr<CohortRuntime>& cohort : cohorts) {
    resolved_profile.cohorts.push_back(cohort->cohort);
    cohort_fw_hashes.push_back(cohort->firmware_hash);
  }

  // The checkpoint's template snapshot is cohort 0's; the other cohorts'
  // builds are pinned through the per-cohort firmware hashes in the profile
  // hash. The firmware image hash folds the template's loadable bytes into
  // the config identity, so resuming against a different build of the same
  // app list fails loudly instead of mixing incompatible device results.
  FleetCheckpoint identity;
  identity.kind = FleetCheckpointKind::kFleet;
  identity.template_snapshot = cohorts[0]->snapshot;
  identity.device_count = config.device_count;
  identity.shard_index = config.shard_index;
  identity.shard_count = config.shard_count;
  if (!config.profile.empty()) {
    identity.profile_hash = ProfileHash(resolved_profile, cohort_fw_hashes);
    identity.profile_text = ProfileCanonical(resolved_profile, cohort_fw_hashes);
  }
  identity.config_text =
      FleetConfigCanonical(config, cohorts[0]->firmware_hash, identity.profile_hash);
  identity.config_hash = FleetConfigHash(config, cohorts[0]->firmware_hash, identity.profile_hash);

  FleetReport report;
  report.config = config;
  report.config.apps = cohorts[0]->cohort.apps;
  if (!config.profile.empty()) {
    report.config.profile = resolved_profile;  // apps resolved per cohort
  }
  report.snapshot_bytes = identity.template_snapshot.bytes.size();
  report.boot_seconds = SecondsSince(boot_t0);
  const bool retain = config.retain_device_stats;
  if (retain) {
    // Global-sized, slot-indexed by device id: a shard run fills only its
    // slice, which is exactly the shape MergeFleetCheckpoints concatenates.
    report.devices.resize(static_cast<size_t>(config.device_count));
  }

  fleet_internal::DeviceRunner runner(
      config, "fleet", std::move(identity), &report.metrics, &report.faults,
      [&](FleetCheckpoint* cp) {
        if (!retain) {
          return;
        }
        for (int i = 0; i < config.device_count; ++i) {
          if (cp->completed[static_cast<size_t>(i)]) {
            cp->devices.push_back(report.devices[static_cast<size_t>(i)]);
          }
        }
      });
  if (resume != nullptr) {
    RETURN_IF_ERROR(runner.Resume(*resume));
    report.resumed_devices = resume->CompletedCount();
    if (retain) {
      for (const DeviceStats& d : resume->devices) {
        report.devices[static_cast<size_t>(d.device_id)] = d;
      }
    }
  } else if (config.shard_index == 0) {
    // Build-time check counters: phase-2 instructions inserted vs phase-2.5
    // instructions deleted, summed over every cohort's firmware. Recorded
    // once per fleet — by shard 0 only, so the merged registry matches a
    // single-host run's (a checkpointed resume restores them with the
    // registry).
    uint64_t checks_total = 0;
    uint64_t checks_elided = 0;
    for (const std::unique_ptr<CohortRuntime>& cohort : cohorts) {
      for (const AppImage& app : cohort->firmware().apps) {
        checks_total += static_cast<uint64_t>(app.checks.check_insts);
        checks_elided += static_cast<uint64_t>(app.checks.elided_data_checks) +
                         static_cast<uint64_t>(app.checks.elided_code_checks) +
                         static_cast<uint64_t>(app.checks.elided_index_checks);
      }
    }
    report.metrics.Add("fleet.checks_total", checks_total);
    report.metrics.Add("fleet.checks_elided", checks_elided);
  }
  const ShardRange shard_range =
      ShardRangeFor(config.device_count, config.shard_index, config.shard_count);
  std::vector<int> pending;
  for (int i = shard_range.lo; i < shard_range.hi; ++i) {
    if (!runner.completed(i)) {
      pending.push_back(i);
    }
  }

  report.config.jobs = runner.thread_count();
  const auto run_t0 = std::chrono::steady_clock::now();
  runner.Run(pending, [&](int id, MetricRegistry* metrics, FaultLedger* ledger) -> Status {
    const int cohort_index =
        config.profile.empty() ? 0 : CohortForDevice(resolved_profile, config.fleet_seed, id);
    const CohortRuntime& cohort = *cohorts[static_cast<size_t>(cohort_index)];
    DeviceStats local;
    DeviceStats* slot = retain ? &report.devices[static_cast<size_t>(id)] : &local;
    RETURN_IF_ERROR(RunDevice(id, config, cohort, slot, ledger));
    RecordDeviceMetrics(*slot, metrics);
    if (!config.profile.empty()) {
      // Per-device counter, so cohort sizes merge order-independently
      // across jobs, resume, and shards.
      metrics->Add("fleet.cohort." + cohort.cohort.name, 1);
    }
    return OkStatus();
  });
  report.run_seconds = SecondsSince(run_t0);
  RETURN_IF_ERROR(runner.Finish());
  if (retain) {
    Aggregate(&report);
  } else {
    AggregateFromMetrics(&report);
  }
  return report;
}

}  // namespace

ShardRange ShardRangeFor(int device_count, int shard_index, int shard_count) {
  ShardRange range;
  if (device_count <= 0 || shard_count <= 0 || shard_index < 0 ||
      shard_index >= shard_count) {
    return range;  // empty [0, 0)
  }
  // Contiguous slices differing in size by at most one device; 64-bit
  // intermediates so device_count * shard_count cannot overflow.
  const int64_t n = device_count;
  range.lo = static_cast<int>(n * shard_index / shard_count);
  range.hi = static_cast<int>(n * (shard_index + 1) / shard_count);
  return range;
}

void RecomputeFleetAggregate(FleetReport* report) {
  report->aggregate = FleetAggregate();
  if (report->config.retain_device_stats) {
    Aggregate(report);
  } else {
    AggregateFromMetrics(report);
  }
}

Result<FleetReport> RunFleet(const FleetConfig& config) {
  return RunFleetImpl(config, nullptr);
}

Result<FleetReport> ResumeFleet(const FleetConfig& config) {
  if (config.checkpoint_path.empty()) {
    return InvalidArgumentError("ResumeFleet requires config.checkpoint_path");
  }
  ASSIGN_OR_RETURN(FleetCheckpoint checkpoint, ReadFleetCheckpoint(config.checkpoint_path));
  return RunFleetImpl(config, &checkpoint);
}

std::string FleetDigest(const FleetReport& report) {
  std::string out;
  // Only the shard slice: slots outside it belong to other shards and are
  // never filled. A merged or single-host report's slice is the whole fleet.
  const ShardRange range = ShardRangeFor(report.config.device_count,
                                         report.config.shard_index,
                                         report.config.shard_count);
  for (int id = range.lo; !report.devices.empty() && id < range.hi; ++id) {
    out += fleet_internal::DeviceDigestRow(report.devices[static_cast<size_t>(id)]) + "\n";
  }
  const FleetAggregate& a = report.aggregate;
  auto summary = [&out](const StatSummary& s) {
    out += StrFormat("agg:%a,%a,%a,%a,%a,%a,%d\n", s.min, s.p50, s.p95, s.p99, s.max, s.mean,
                     s.count);
  };
  for (const DeviceCounter& c : kDeviceCounters) {
    summary(a.*c.summary);
  }
  summary(a.battery_impact_percent);
  const char* sep = "tot:";
  for (const DeviceCounter& c : kDeviceCounters) {
    out += StrFormat("%s%llu", sep, static_cast<unsigned long long>(a.*c.total));
    sep = ",";
  }
  out += "\n";
  out += "metrics:";
  out += report.metrics.ToJson();
  out += "\n";
  out += "ledger:\n";
  out += report.faults.DigestText();
  return out;
}

namespace {

std::string SummaryRow(const char* name, const StatSummary& s) {
  return StrFormat("  %-16s %14.0f %14.0f %14.0f %14.0f %14.1f\n", name, s.p50, s.p95, s.p99,
                   s.max, s.mean);
}

}  // namespace

std::string RenderFleetReport(const FleetReport& report) {
  const FleetConfig& config = report.config;
  // Devices this host actually simulated (the shard slice), for the
  // wall-clock throughput lines.
  const int local_devices =
      ShardRangeFor(config.device_count, config.shard_index, config.shard_count).size();
  std::string apps;
  for (const std::string& name : config.apps) {
    if (!apps.empty()) {
      apps += ",";
    }
    apps += name;
  }
  std::string out = StrFormat(
      "fleet: %d device(s), model=%s, seed=%u, %.1f s simulated each, %d worker thread(s)\n",
      config.device_count, std::string(MemoryModelName(config.model)).c_str(),
      config.fleet_seed, static_cast<double>(config.sim_ms) / 1000.0, config.jobs);
  out += StrFormat("apps: %s\n", apps.c_str());
  if (config.shard_count > 1) {
    const ShardRange range =
        ShardRangeFor(config.device_count, config.shard_index, config.shard_count);
    out += StrFormat("shard: %d/%d — devices [%d, %d) of %d\n", config.shard_index,
                     config.shard_count, range.lo, range.hi, config.device_count);
  }
  if (!config.profile.empty()) {
    out += "profile:\n";
    for (const Cohort& cohort : config.profile.cohorts) {
      const uint64_t devices =
          report.metrics.counter("fleet.cohort." + cohort.name);
      out += StrFormat("  %-16s weight %u, model=%s, act=%u/%u/%u — %llu device(s)\n",
                       cohort.name.c_str(), cohort.weight,
                       std::string(MemoryModelName(cohort.model)).c_str(),
                       cohort.rest_weight, cohort.walk_weight, cohort.run_weight,
                       static_cast<unsigned long long>(devices));
    }
  }
  if (report.resumed_devices > 0) {
    out += StrFormat("resumed: %d device(s) restored from checkpoint, %d simulated\n",
                     report.resumed_devices, local_devices - report.resumed_devices);
  }
  out += StrFormat(
      "template boot %.3f s (snapshot %zu bytes); fleet run %.3f s (%.1f devices/s, %.1f "
      "simulated-s/s)\n",
      report.boot_seconds, report.snapshot_bytes, report.run_seconds,
      report.run_seconds > 0 ? local_devices / report.run_seconds : 0.0,
      report.run_seconds > 0 ? local_devices *
                                   (static_cast<double>(config.sim_ms) / 1000.0) /
                                   report.run_seconds
                             : 0.0);
  out += StrFormat(
      "throughput: %llu instructions retired, %.2f sim-MIPS host-side (%s path)\n",
      static_cast<unsigned long long>(report.aggregate.total_instructions),
      report.run_seconds > 0
          ? static_cast<double>(report.aggregate.total_instructions) / report.run_seconds / 1e6
          : 0.0,
      config.predecode ? "predecode" : "interpreter");
  out += StrFormat("  %-16s %14s %14s %14s %14s %14s\n", "per-device", "p50", "p95", "p99",
                   "max", "mean");
  const FleetAggregate& a = report.aggregate;
  for (const DeviceCounter& c : kDeviceCounters) {
    out += SummaryRow(c.label, a.*c.summary);
  }
  out += StrFormat("  %-16s %14.4f %14.4f %14.4f %14.4f %14.4f   (%% battery/week)\n",
                   "battery impact", a.battery_impact_percent.p50,
                   a.battery_impact_percent.p95, a.battery_impact_percent.p99,
                   a.battery_impact_percent.max, a.battery_impact_percent.mean);
  const char* sep = "totals: ";
  for (const DeviceCounter& c : kDeviceCounters) {
    out += StrFormat("%s%llu %s", sep, static_cast<unsigned long long>(a.*c.total), c.label);
    sep = ", ";
  }
  out += "\n";
  if (!report.faults.empty()) {
    out += report.faults.RenderTriage(5);
  }
  return out;
}

}  // namespace amulet
