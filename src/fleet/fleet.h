// Fleet simulation engine: boots one template device per configuration,
// snapshots its machine after firmware boot, then clones and runs N
// independent simulated devices in parallel on the executor, merging their
// ARP-style counters into fleet-wide percentiles.
//
// Determinism: device i's sensor stream, cohort, and activity mode derive
// from a splitmix64 mix of (fleet_seed, global device id), every device owns
// its Machine/AmuletOs, and results land in a slot indexed by device id — so
// a fleet run is bit-identical for a fixed config regardless of
// worker-thread count, and a sharded run (each shard simulating a slice of
// the global id range) merges to the same bytes as a single-host run (see
// docs/fleet.md).
#ifndef SRC_FLEET_FLEET_H_
#define SRC_FLEET_FLEET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/aft/model.h"
#include "src/arp/arp.h"
#include "src/arp/energy_model.h"
#include "src/common/status.h"
#include "src/fleet/fault_ledger.h"
#include "src/fleet/profile.h"
#include "src/scope/metrics.h"

namespace amulet {

struct FleetConfig {
  int device_count = 16;
  // Suite app names ("pedometer", "clock", ...; see AmuletAppSuite() plus
  // "synthetic"/"activity"/"quicksort"). Every device runs the full mix in
  // one firmware. Empty selects the whole nine-app suite.
  std::vector<std::string> apps;
  MemoryModel model = MemoryModel::kMpu;
  uint32_t fleet_seed = 20180711;
  uint64_t sim_ms = 10'000;  // simulated duration per device
  int fram_wait_states = 1;
  // Worker threads: 0 = hardware concurrency, 1 = serial reference run.
  int jobs = 0;
  EnergyModel energy;
  // When false the per-device DeviceStats rows are not retained
  // (FleetReport::devices stays empty) and the aggregate is derived from the
  // streaming metric registry instead of exact per-device vectors — memory
  // is O(metrics x histogram buckets), independent of device_count. Exact
  // nearest-rank percentiles need true; the streaming quantiles are log2
  // bucket midpoints (~2x relative resolution).
  bool retain_device_stats = true;
  // >= 1: progress lines on stderr while devices run (count, rate, ETA).
  int verbosity = 0;
  // When false every device runs on the reference interpreter instead of the
  // predecoded fast path (`amuletc fleet --no-predecode`). Host-side
  // execution-strategy knob like `jobs`: results and digests are
  // bit-identical either way, so it is excluded from the canonical config
  // (checkpoints resume across modes).
  bool predecode = true;
  // When true each device carries a flight recorder so its fault records
  // include the flight tail (`amuletc fleet --no-flight-recorder` disables
  // it). Host-side observability knob: every fault field derives from
  // simulated state, so digests are bit-identical either way and the flag is
  // excluded from the canonical config, like `predecode`.
  bool flight_recorder = true;
  // Phase-2.5 bound-check optimizer (src/aft/opt.h). Unlike `predecode` this
  // changes the firmware image, so it participates in the firmware hash and
  // checkpoints do not resume across the two settings. `amuletc fleet
  // --no-check-opt` flips it for the smart-software-baseline ablation.
#if defined(AMULET_CHECK_OPT_DISABLED)
  bool check_opt = false;
#else
  bool check_opt = true;
#endif

  // --- Cross-host sharding (docs/fleet.md "Sharding & merge") ---
  // This host simulates shard `shard_index` of `shard_count`: the contiguous
  // slice ShardRangeFor(device_count, shard_index, shard_count) of the
  // *global* device-id range [0, device_count). Every shard uses the full
  // global config (device_count stays the fleet-wide total), so per-device
  // seeds/cohorts are pure functions of the global id and the shards'
  // checkpoints fold — via MergeFleetCheckpoints / `amuletc fleet-merge` —
  // into a digest byte-identical to a single-host run. Default 0/1 = the
  // whole fleet on this host.
  int shard_index = 0;
  int shard_count = 1;

  // --- Heterogeneous population (docs/fleet.md "Population profiles") ---
  // When non-empty, each device draws its cohort — memory model, app mix,
  // activity weights — from this weighted distribution, keyed on the global
  // device id. Empty = homogeneous fleet from `apps`/`model` above.
  PopulationProfile profile;

  // --- Checkpoint/resume (docs/fleet.md "Checkpoint & resume") ---
  // When non-empty, RunFleet persists a fleet checkpoint at this path —
  // atomically, via write-to-temp + rename — every checkpoint_every_devices
  // device completions or checkpoint_every_seconds wall seconds (whichever
  // comes first), plus a final one when the run ends, including on error or
  // abort, so no completed device's work is ever lost. ResumeFleet() reads
  // the file back, validates it against this config, and re-runs only the
  // devices the checkpoint does not already cover.
  std::string checkpoint_path;
  int checkpoint_every_devices = 64;
  double checkpoint_every_seconds = 30.0;

  // --- Fault-injection / early-stop hooks (tests, bench, kill harnesses) ---
  // >= 0: that device id fails with an InternalError instead of simulating;
  // exercises the fail-fast path without needing a genuinely broken image.
  int fail_device_id = -1;
  // > 0: cancel the run after this many devices complete in *this* run
  // (resumed devices do not count). RunFleet returns kCancelled; combined
  // with checkpoint_path this simulates a mid-run kill deterministically.
  int abort_after_devices = 0;
};

// One device's merged counters after its simulated run.
struct DeviceStats {
  int device_id = 0;
  uint64_t cycles = 0;         // CPU cycles consumed after the clone point
  uint64_t data_accesses = 0;  // reads+writes landing in any app data region
  uint64_t syscalls = 0;       // context switches into the OS
  uint64_t dispatches = 0;
  uint64_t faults = 0;
  uint64_t pucs = 0;
  // Watchdog-style resets: genuine WDT expiries plus fault-forced app
  // restarts. The OTA bootloader's rollback trigger watches this rate.
  uint64_t watchdog_resets = 0;
  // Instructions retired after the clone point (idle ticks excluded); the
  // numerator of the host-side sim_mips throughput metric.
  uint64_t instructions = 0;
  // Weekly battery cost of this device's measured cycle rate.
  double battery_impact_percent = 0;
};

struct FleetAggregate {
  StatSummary cycles;
  StatSummary data_accesses;
  StatSummary syscalls;
  StatSummary dispatches;
  StatSummary faults;
  StatSummary pucs;
  StatSummary watchdog_resets;
  StatSummary instructions;
  StatSummary battery_impact_percent;
  uint64_t total_cycles = 0;
  uint64_t total_data_accesses = 0;
  uint64_t total_syscalls = 0;
  uint64_t total_dispatches = 0;
  uint64_t total_faults = 0;
  uint64_t total_pucs = 0;
  uint64_t total_watchdog_resets = 0;
  uint64_t total_instructions = 0;
};

// The contiguous global-device-id slice [lo, hi) shard `shard_index` of
// `shard_count` owns. Slices are disjoint, cover [0, device_count), and
// differ in size by at most one device.
struct ShardRange {
  int lo = 0;
  int hi = 0;

  int size() const { return hi - lo; }
  bool Contains(int device_id) const { return device_id >= lo && device_id < hi; }
};
ShardRange ShardRangeFor(int device_count, int shard_index, int shard_count);

struct FleetReport {
  FleetConfig config;  // as run (jobs resolved to the actual thread count)
  // Indexed by device id (global-sized even for a shard run: a shard fills
  // only its slice); empty when config.retain_device_stats is false.
  std::vector<DeviceStats> devices;
  FleetAggregate aggregate;
  // Streaming fleet-wide metrics (counters + log2 histograms), merged one
  // device at a time. All-integer state, so it is bit-identical across
  // --jobs values regardless of merge order; constant size regardless of
  // device count. Export with metrics.ToJson().
  MetricRegistry metrics;
  // Fleet-wide crash buckets: one per-device FaultLedger merged per device,
  // order-independently, so the ledger (and its digest section) is
  // bit-identical across --jobs values and checkpoint/resume.
  FaultLedger faults;
  size_t snapshot_bytes = 0;
  double boot_seconds = 0;  // firmware build + template boot + snapshot
  double run_seconds = 0;   // wall time of the parallel device runs
  // Devices restored from a checkpoint instead of simulated (ResumeFleet).
  int resumed_devices = 0;
};

// Runs the fleet. Fails if an app name is unknown, the firmware does not
// build, or any device errors out — a failed device cancels the run
// (fail-fast) instead of letting the remaining devices simulate first.
Result<FleetReport> RunFleet(const FleetConfig& config);

// Resumes an interrupted run from the checkpoint at config.checkpoint_path.
// The checkpoint's config hash and template snapshot must match `config`
// (jobs/verbosity/checkpoint cadence may differ); only devices missing from
// the checkpoint are simulated, and the resulting FleetDigest is
// byte-identical to an uninterrupted run at any thread count. Resuming a
// fully complete checkpoint is a no-op that re-yields the same report.
Result<FleetReport> ResumeFleet(const FleetConfig& config);

// Recomputes report->aggregate over the report's shard slice — from the
// retained per-device rows when config.retain_device_stats is true, else
// from the streaming metric registry. The shard merge uses this to derive
// the fleet-wide aggregate with exactly the arithmetic a single-host run
// applies, which is what makes the merged digest byte-identical.
void RecomputeFleetAggregate(FleetReport* report);

// Deterministic digest over everything seed-dependent in the report (every
// per-device counter and every aggregate, wall times excluded). Two runs of
// the same config — at any thread counts — produce byte-identical digests.
std::string FleetDigest(const FleetReport& report);

// Human-readable fleet report (percentile table + totals + throughput).
std::string RenderFleetReport(const FleetReport& report);

}  // namespace amulet

#endif  // SRC_FLEET_FLEET_H_
