// Staged OTA rollout campaigns over a simulated fleet (docs/ota.md).
//
// A campaign takes a fleet that is running `from_version` firmware, packs
// (or is handed) an authenticated OTA image carrying `to_version`, and pushes
// it out in stages — e.g. 5% canary, then 50%, then everyone. Each device:
//
//   1. runs its normal workload on the old firmware for fleet.sim_ms,
//   2. has its bootloader verify the image's MAC as real MSP430 code on the
//      simulated CPU (simulated once per campaign, since every device's
//      verifier sees the same inputs; each attempted device is charged its
//      cycles as verify_cycles, outside battery_impact_percent),
//   3. if the MAC is rejected, stays on from_version (outcome kRejected),
//   4. otherwise activates the new bank, writes the bl-data record, and runs
//      a health window of health_ms; a watchdog-reset storm (>=
//      storm_threshold resets/PUCs) rolls the device back to from_version
//      (outcome kRolledBack), otherwise the update commits (kUpdated).
//
// After each stage the driver checks the stage's failure rate (rejected +
// rolled back over stage size) against the stage's threshold and aborts the
// remaining stages if it is exceeded — the canary doing its job. Device
// ordering is a seeded shuffle, results are slot-indexed, and the merged
// metric registry is order-independent, so CampaignDigest is byte-identical
// at any --jobs value, and campaigns checkpoint/resume through the same AMFC
// container as plain fleet runs (kind = kCampaign).
#ifndef SRC_FLEET_CAMPAIGN_H_
#define SRC_FLEET_CAMPAIGN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/fleet/fleet.h"
#include "src/ota/mac.h"
#include "src/scope/metrics.h"

namespace amulet {

// One rollout stage: cumulative fleet percentage and the failure-rate
// threshold that aborts the campaign when exceeded after the stage runs.
struct CampaignStage {
  int percent = 100;              // cumulative; last stage must be 100
  double max_failure_rate = 0.25; // in [0, 1]
};

struct CampaignConfig {
  // Device count, old-firmware app list, model, fleet seed, per-device
  // workload duration (sim_ms), wait states, jobs, checkpointing and the
  // fault-injection hooks all come from the embedded fleet config. Campaign
  // runs always retain per-device rows (stage accounting needs them), so
  // fleet.retain_device_stats is ignored.
  FleetConfig fleet;
  // App list for the new firmware; empty reuses the old list (a pure
  // version bump, still exercising the full verify/activate path).
  std::vector<std::string> to_apps;
  uint32_t from_version = 1;
  uint32_t to_version = 2;
  // Empty selects the default 5% -> 50% -> 100% staging.
  std::vector<CampaignStage> stages;
  uint32_t rollout_seed = 0xB007;
  // Post-activation health window per updated device; watchdog-reset storms
  // inside it trigger rollback.
  uint64_t health_ms = 1'000;
  int storm_threshold = 3;  // resets within the window that mean "storm"
  // Per-fleet MAC key. Devices verify the deployed image against this key.
  OtaKey key;
  // When non-empty these container bytes are deployed instead of packing
  // the to_apps firmware (`amuletc fleet --image`). An image whose MAC
  // verifies under `key` must carry to_version, fleet.model and the to_apps
  // build's payload; a forged one is deployed as given and the devices'
  // bootloaders reject it.
  std::vector<uint8_t> image_override;
};

enum class OtaOutcome : uint8_t {
  kNotAttempted = 0,  // campaign aborted before this device's stage
  kUpdated = 1,
  kRejected = 2,    // bootloader MAC verification failed
  kRolledBack = 3,  // activated, then storm-detected and rolled back
};

struct CampaignDeviceRow {
  DeviceStats stats;  // workload + health-window deltas (verify excluded)
  OtaOutcome outcome = OtaOutcome::kNotAttempted;
  uint32_t firmware_version = 0;  // version the device ended the campaign on
  uint64_t verify_cycles = 0;     // simulated MAC-verification cost
};

struct CampaignStageResult {
  int percent = 0;       // cumulative target this stage rolled out to
  int first_slot = 0;    // index into the rollout order
  int device_count = 0;  // devices in this stage
  int updated = 0;
  int rejected = 0;
  int rolled_back = 0;
  double failure_rate = 0;
  bool aborted_after = false;  // threshold exceeded; later stages skipped
};

struct CampaignReport {
  CampaignConfig config;  // as run (apps resolved, jobs resolved, stages filled)
  std::vector<CampaignDeviceRow> devices;  // indexed by device id
  std::vector<CampaignStageResult> stages;
  // Streaming metrics over attempted devices: the fleet.* / device.* families
  // plus campaign.updated / campaign.rejected / campaign.rolled_back /
  // campaign.not_attempted, per-version campaign.version.<v> counters (the
  // version-skew view), and the device.verify_cycles histogram.
  MetricRegistry metrics;
  // Merged crash buckets over both phases (old-firmware workload and the
  // post-update health window) of every attempted device. When a stage abort
  // fires, RenderCampaignReport cites the dominant buckets so the abort is
  // attributable to a fault signature, not just a rate.
  FaultLedger faults;
  int aborted_stage = -1;  // stage index whose threshold tripped, -1 if none
  int resumed_devices = 0;
  size_t snapshot_bytes = 0;
  double boot_seconds = 0;  // both firmware builds + template boots
  double run_seconds = 0;
};

// Deterministic device ordering for the staged rollout: a Fisher-Yates
// shuffle of [0, device_count) keyed by rollout_seed.
std::vector<int> CampaignRolloutOrder(int device_count, uint32_t rollout_seed);

// Runs the campaign. A stage-threshold abort is NOT an error — the report
// comes back with aborted_stage set and the untouched devices marked
// kNotAttempted. Errors mirror RunFleet: unknown apps, firmware build
// failures, an undecodable deploy image, an authentic deploy image that is
// not the to_apps build (InvalidArgument), device failures (fail-fast), or
// kCancelled for the abort_after_devices kill hook.
Result<CampaignReport> RunCampaign(const CampaignConfig& config);

// Resumes from fleet.checkpoint_path. The checkpoint must be kind kCampaign
// and match this config (both firmware builds, the deploy image, stages,
// seeds, thresholds); completed devices are restored, stage thresholds are
// re-evaluated over restored + fresh rows, and the resulting CampaignDigest
// is byte-identical to an uninterrupted run at any thread count.
Result<CampaignReport> ResumeCampaign(const CampaignConfig& config);

// Deterministic digest over every seed-dependent part of the report: device
// rows (counters, outcome, final version, verify cycles), stage results,
// and the metric registry. Wall times excluded.
std::string CampaignDigest(const CampaignReport& report);

// Human-readable campaign summary (stage table, outcome counts, version
// skew, verify cost).
std::string RenderCampaignReport(const CampaignReport& report);

}  // namespace amulet

#endif  // SRC_FLEET_CAMPAIGN_H_
