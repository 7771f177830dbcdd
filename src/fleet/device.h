// Internal run engine shared by plain fleet runs (fleet.cc) and OTA
// campaigns (campaign.cc): per-device seeding, app-name resolution,
// data-region bookkeeping, the template boot every device clones from
// (BootCohort), the clone-and-run step that turns a template snapshot into
// one simulated device's counter deltas, the table of those counters, and
// the runner that takes a list of devices through a per-device body
// (DeviceRunner). Not part of the public fleet API.
#ifndef SRC_FLEET_DEVICE_H_
#define SRC_FLEET_DEVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/aft/aft.h"
#include "src/apps/app_sources.h"
#include "src/common/status.h"
#include "src/fleet/checkpoint.h"
#include "src/fleet/executor.h"
#include "src/fleet/fault_ledger.h"
#include "src/fleet/fleet.h"
#include "src/fleet/profile.h"
#include "src/mcu/machine.h"
#include "src/os/os.h"
#include "src/scope/flight_recorder.h"

namespace amulet {
namespace fleet_internal {

// 32-bit avalanche (Murmur3 finalizer); decorrelates device ids that differ
// in one bit so activity modes spread evenly across the fleet.
uint32_t Mix32(uint32_t x);

// 64-bit avalanche (splitmix64 finalizer): every input bit flips every
// output bit with ~1/2 probability.
uint64_t SplitMix64(uint64_t x);

// Per-device seed: a splitmix64-style mix over (fleet_seed, global device
// id). This replaced the original `fleet_seed ^ device_id` derivation, whose
// adjacent-id streams were correlated (ids differing in one low bit produced
// seeds differing in one bit, and `seed ^ i == (seed ^ 1) ^ (i ^ 1)` meant
// distinct (seed, id) pairs could collide on the same stream). The mix is a
// pure function of the *global* device id, so a device's stream is identical
// no matter which shard simulates it — the property cross-host sharding
// (docs/fleet.md, "Sharding & merge") is built on. Changing this derivation
// deliberately broke all pre-v5 fleet digests.
uint32_t DeviceSeed(uint32_t fleet_seed, int device_id);

ActivityMode ModeFor(uint32_t device_seed);

// Looks a name up in the app suite (plus the benchmark apps).
Result<const AppSpec*> FindSuiteApp(const std::string& name);

// Expands an empty list to the full suite and resolves every name to its
// source. On success `names` holds the resolved list.
Result<std::vector<AppSource>> ResolveApps(std::vector<std::string>* names);

// App data regions, precomputed once per firmware; ClonedDevice::Run()
// installs them as the bus's counted regions, whose counter becomes the
// device's data_accesses.
struct DataRegions {
  std::vector<std::pair<uint16_t, uint16_t>> spans;  // [lo, hi)

  static DataRegions For(const Firmware& firmware);
};

// One cloned simulated device: a fresh Machine restored from the template
// snapshot with this device's sensor identity applied. The campaign driver
// clones a device once per firmware phase (pre-update workload, post-update
// health window) and can touch the machine (bl-data in InfoMem) between
// runs.
class ClonedDevice {
 public:
  // The clone shares `booted`'s firmware (one immutable instance per
  // cohort) and region map, and copies only the snapshot's memory image and
  // the template's host-side OS state. `firmware` must have `booted`'s app
  // count; it is checked, not copied.
  // `predecode` selects the CPU execution path (fast cache vs reference
  // interpreter); counters and digests are bit-identical either way.
  // `flight_recorder` attaches the device's flight recorder so fault records
  // carry a flight tail — host-side observability, also digest-neutral
  // (every recorded field derives from simulated state).
  static Result<std::unique_ptr<ClonedDevice>> Clone(uint32_t device_seed,
                                                     int fram_wait_states,
                                                     const Firmware& firmware,
                                                     const MachineSnapshot& snapshot,
                                                     const AmuletOs& booted,
                                                     bool predecode = true,
                                                     bool flight_recorder = true);

  Machine& machine() { return machine_; }
  AmuletOs& os() { return os_; }

  // Runs sim_ms of device time and ADDS the resulting deltas (cycles, data
  // accesses, syscalls, dispatches, faults, PUCs, watchdog resets) into
  // *out, so multi-phase callers accumulate one row. Does not touch
  // out->battery_impact_percent (span-dependent; see BatteryPercentFor).
  // When `ledger` is non-null, every fault the span produced is folded into
  // it under out->device_id (the caller owns one ledger per device and
  // merges it into the fleet ledger exactly once, keeping the bucket
  // `devices` counters equal to distinct-device counts).
  Status Run(uint64_t sim_ms, const DataRegions& regions, DeviceStats* out,
             FaultLedger* ledger = nullptr);

 private:
  ClonedDevice(std::shared_ptr<const Firmware> firmware, int fram_wait_states,
               uint32_t device_seed);

  Machine machine_;
  AmuletOs os_;
  FlightRecorder flight_;
};

// One cohort's boot products: its firmware build, the booted template
// machine, and the snapshot every device of that cohort clones from. A fleet
// boots one per population cohort (a homogeneous fleet is one implicit
// cohort from config.apps/config.model); a campaign boots one for the old
// and one for the new firmware.
struct CohortRuntime {
  Cohort cohort;  // apps resolved
  DataRegions regions;
  std::unique_ptr<Machine> machine;
  std::unique_ptr<AmuletOs> os;
  MachineSnapshot snapshot;
  uint64_t firmware_hash = 0;

  // The cohort's firmware build: the template OS's, shared by every clone.
  const Firmware& firmware() const { return os->firmware(); }

  // A device cloned from this cohort's template with `config`'s wait
  // states, core and flight-recorder settings.
  Result<std::unique_ptr<ClonedDevice>> Clone(uint32_t device_seed,
                                              const FleetConfig& config) const;
};

// The only template-boot path: builds the cohort's firmware with
// config.check_opt, boots it once (image load plus every on_init) and
// snapshots the machine.
Result<std::unique_ptr<CohortRuntime>> BootCohort(const Cohort& cohort,
                                                  const FleetConfig& config);

// Drives a run's devices through a per-device body on the executor and owns
// everything around the body, for a plain fleet run and for every stage of a
// campaign alike: the fail_device_id hook; merging each finished device's
// registry, ledger and completed bit into the run under one lock;
// abort_after_devices; the checkpoint journal and its cadence; fail-fast,
// where the first failure stops every body not yet started and the lowest
// failing id is the one reported; the --verbose progress line; and the
// final, compacted checkpoint.
class DeviceRunner {
 public:
  // Simulates device `id`: fills the caller's result slot for `id`, records
  // the device's metrics into `metrics` and its faults into `ledger`. Both
  // are merged into the run only when the body returns OK.
  using Body = std::function<Status(int id, MetricRegistry* metrics, FaultLedger* ledger)>;

  // Appends the result rows of the finished devices `ids`, in that order:
  // DeviceStats rows to `rows` (none in streaming mode) and campaign rows to
  // `campaign_rows` (campaign runs only). Runs under the merge lock.
  using AddRows = std::function<void(const std::vector<int>& ids, std::vector<DeviceStats>* rows,
                                     std::vector<CampaignDeviceRecord>* campaign_rows)>;

  // `identity` is the checkpoint header of this run: kind, config hash and
  // text, template snapshot, device_count, shard slice and profile. The run
  // merges devices into `*metrics` and `*ledger` (the report's); until
  // Finish, devices completed since the last checkpoint record wait in a
  // pending delta. A checkpoint is `identity` plus the merged state plus the
  // rows `add_rows` emits. `label` prefixes progress lines and the abort
  // message.
  DeviceRunner(const FleetConfig& config, const char* label, FleetCheckpoint identity,
               MetricRegistry* metrics, FaultLedger* ledger, AddRows add_rows);

  // Validates `resume` against the identity (kind, shard slice, profile,
  // config hash, template snapshot) and adopts its merged metrics, ledger and
  // completed bitmap. Call before the first Run.
  Status Resume(const FleetCheckpoint& resume);

  // Runs `body` for every id on the executor. The first call with a
  // checkpoint path starts the journal there, whose base is the run as it
  // stands (identity plus resumed state); a path it cannot write fails the
  // run before any device runs. Every checkpoint_every_devices completions
  // or checkpoint_every_seconds, the pending devices are appended as one
  // record and folded into the run. Returns false once the run is cancelled
  // (device failure, abort_after_devices, checkpoint error); bodies not yet
  // started when that happens never run.
  bool Run(const std::vector<int>& ids, const Body& body);

  // Folds the pending devices into the run and compacts the journal into
  // the final AMFC checkpoint (or writes it, if no journal was started),
  // then returns the run's outcome: the lowest failing device's error, a
  // checkpoint error, kCancelled after abort_after_devices, or OK. Call
  // once, after the last Run.
  Status Finish();

  // Whether device `id` has finished (restored or run); not while Run is
  // active.
  bool completed(int id) const { return completed_[static_cast<size_t>(id)]; }
  int thread_count() const { return executor_.thread_count(); }

 private:
  void RunOne(int id, const Body& body);
  void FoldPending();                  // mu_ held
  FleetCheckpoint Checkpoint() const;  // mu_ held; the pending delta is folded

  const FleetConfig& config_;
  const char* label_;
  const FleetCheckpoint identity_;
  MetricRegistry* metrics_;
  FaultLedger* ledger_;
  const AddRows add_rows_;
  const Executor executor_;
  std::atomic<bool> cancelled_{false};

  std::mutex mu_;  // guards every member below
  std::vector<bool> completed_;
  // Finished devices not yet folded into *metrics_ / *ledger_; `ids` is
  // kept only while a journal is open.
  FleetCheckpointDelta pending_;
  std::unique_ptr<FleetCheckpointJournal> journal_;
  Status failure_;  // the lowest-id failure so far
  int failure_id_ = -1;
  Status checkpoint_status_;
  int completed_this_run_ = 0;
  std::chrono::steady_clock::time_point last_checkpoint_;
  size_t batch_size_ = 0;  // progress of the current Run call
  size_t batch_done_ = 0;
  std::chrono::steady_clock::time_point batch_start_;
  std::chrono::steady_clock::time_point last_progress_;
};

// Wall-clock seconds since `t0`: report timings, checkpoint and progress
// cadence.
double SecondsSince(std::chrono::steady_clock::time_point t0);

// Weekly battery cost of `cycles` measured over a `sim_ms` span.
double BatteryPercentFor(uint64_t cycles, uint64_t sim_ms, const EnergyModel& energy);

// Battery impact as integer micro-percent so the metric state (and thus the
// fleet digest) stays bit-identical regardless of merge order.
uint64_t BatteryMicroPercent(double percent);

// One of the eight integer DeviceStats counters. kDeviceCounters lists them
// in digest and checkpoint-row order, and every per-counter list in the
// engine (aggregates, registry metrics, digests, the report table, AMFC rows)
// is a loop over it. battery_impact_percent is the one derived,
// floating-point column and is handled beside each loop.
struct DeviceCounter {
  const char* name;   // registry names: "fleet.<name>" total, "device.<name>" histogram
  const char* label;  // fleet report row
  uint64_t DeviceStats::*stat;
  StatSummary FleetAggregate::*summary;
  uint64_t FleetAggregate::*total;
};

inline constexpr DeviceCounter kDeviceCounters[] = {
    {"cycles", "cycles", &DeviceStats::cycles, &FleetAggregate::cycles,
     &FleetAggregate::total_cycles},
    {"data_accesses", "data accesses", &DeviceStats::data_accesses,
     &FleetAggregate::data_accesses, &FleetAggregate::total_data_accesses},
    {"syscalls", "syscalls", &DeviceStats::syscalls, &FleetAggregate::syscalls,
     &FleetAggregate::total_syscalls},
    {"dispatches", "dispatches", &DeviceStats::dispatches, &FleetAggregate::dispatches,
     &FleetAggregate::total_dispatches},
    {"faults", "faults", &DeviceStats::faults, &FleetAggregate::faults,
     &FleetAggregate::total_faults},
    {"pucs", "PUCs", &DeviceStats::pucs, &FleetAggregate::pucs, &FleetAggregate::total_pucs},
    {"watchdog_resets", "WDT resets", &DeviceStats::watchdog_resets,
     &FleetAggregate::watchdog_resets, &FleetAggregate::total_watchdog_resets},
    {"instructions", "instructions", &DeviceStats::instructions,
     &FleetAggregate::instructions, &FleetAggregate::total_instructions},
};

// One device's contribution to the streaming registry. The registry a device
// produces is merged into the fleet-wide one and discarded, so aggregation
// memory never grows with device_count.
void RecordDeviceMetrics(const DeviceStats& stats, MetricRegistry* m);

// The digest line of one device row, "d<id>:<counters...>,<battery>" without
// a newline; FleetDigest ends it there and CampaignDigest appends the OTA
// outcome columns first.
std::string DeviceDigestRow(const DeviceStats& stats);

}  // namespace fleet_internal
}  // namespace amulet

#endif  // SRC_FLEET_DEVICE_H_
