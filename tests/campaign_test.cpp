// OTA campaign tests: staged rollout determinism across thread counts,
// checkpoint/resume mid-campaign, fleet-wide rejection of tampered images,
// watchdog-storm rollback of a genuinely bad update, canary-stage aborts,
// and the AMFC v2 container (firmware-hash binding, whole-file checksum,
// version-1 migration error, exhaustive corruption sweep).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "src/aft/aft.h"
#include "src/apps/app_sources.h"
#include "src/common/strings.h"
#include "src/fleet/campaign.h"
#include "src/fleet/checkpoint.h"
#include "src/fleet/fleet.h"
#include "src/ota/bootloader.h"
#include "src/ota/image.h"

namespace amulet {
namespace {

// A small, fast campaign: 12 devices on one-app firmware, short workload and
// health windows. The update is a pure version bump (same app list), which
// still exercises pack -> stage -> verify -> activate -> health end to end.
CampaignConfig SmallCampaign(int jobs) {
  CampaignConfig config;
  config.fleet.device_count = 12;
  config.fleet.apps = {"pedometer"};
  config.fleet.model = MemoryModel::kMpu;
  config.fleet.fleet_seed = 0x0DA7;
  config.fleet.sim_ms = 200;
  config.fleet.jobs = jobs;
  config.health_ms = 200;
  config.from_version = 3;
  config.to_version = 4;
  return config;
}

// Packs the container the campaign would deploy for `apps`, so tests can
// tamper with it and hand RunCampaign an image_override.
std::vector<uint8_t> PackedImageFor(const std::vector<std::string>& apps,
                                    MemoryModel model, uint32_t version,
                                    const OtaKey& key) {
  std::vector<AppSource> sources;
  for (const std::string& name : apps) {
    auto app = FindApp(name);
    EXPECT_TRUE(app.ok()) << app.status().ToString();
    sources.push_back({(*app)->name, (*app)->source});
  }
  AftOptions options;
  options.model = model;
  auto firmware = BuildFirmware(sources, options);
  EXPECT_TRUE(firmware.ok()) << firmware.status().ToString();
  return EncodeOtaImage(PackOtaImage(firmware->image, version, model, key));
}

// The verification cycles one simulated bootloader run charges for `image`
// under `config`: what every attempted device of the campaign is billed.
uint64_t OneVerification(const std::vector<uint8_t>& image, const CampaignConfig& config) {
  auto deploy = DecodeOtaImage(image);
  if (!deploy.ok()) {
    ADD_FAILURE() << deploy.status().ToString();
    return 0;
  }
  auto verify = SimulateImageVerify(*deploy, config.key, config.fleet.fram_wait_states,
                                    config.fleet.predecode);
  if (!verify.ok()) {
    ADD_FAILURE() << verify.status().ToString();
    return 0;
  }
  return verify->cycles;
}

TEST(CampaignTest, HappyPathUpdatesEveryDevice) {
  const CampaignConfig config = SmallCampaign(1);
  auto report = RunCampaign(config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->aborted_stage, -1);
  ASSERT_EQ(report->devices.size(), 12u);
  for (const CampaignDeviceRow& row : report->devices) {
    EXPECT_EQ(row.outcome, OtaOutcome::kUpdated);
    EXPECT_EQ(row.firmware_version, 4u);
    EXPECT_GT(row.verify_cycles, 0u) << "MAC verification must cost simulated cycles";
    EXPECT_GT(row.stats.cycles, 0u);
  }
  // Default staging is 5% -> 50% -> 100%; stage sizes must cover the fleet.
  ASSERT_EQ(report->stages.size(), 3u);
  EXPECT_EQ(report->stages[0].device_count, 1);  // ceil(12 * 5%)
  EXPECT_EQ(report->stages[1].device_count, 5);  // up to ceil(12 * 50%)
  EXPECT_EQ(report->stages[2].device_count, 6);  // the rest
  for (const CampaignStageResult& stage : report->stages) {
    EXPECT_EQ(stage.rejected, 0);
    EXPECT_EQ(stage.rolled_back, 0);
    EXPECT_FALSE(stage.aborted_after);
  }
  // Version skew and outcome counters in the streaming registry.
  EXPECT_EQ(report->metrics.counter("campaign.updated"), 12u);
  EXPECT_EQ(report->metrics.counter("campaign.version.4"), 12u);
  EXPECT_EQ(report->metrics.counter("campaign.version.3"), 0u);
  EXPECT_GT(report->metrics.counter("campaign.verify_cycles"), 0u);
  const LogHistogram* verify = report->metrics.histogram("device.verify_cycles");
  ASSERT_NE(verify, nullptr);
  EXPECT_EQ(verify->count, 12u);
  // Every device is billed one verification of the deployed container.
  const uint64_t one = OneVerification(
      PackedImageFor(config.fleet.apps, config.fleet.model, config.to_version, config.key),
      config);
  for (const CampaignDeviceRow& row : report->devices) {
    EXPECT_EQ(row.verify_cycles, one);
  }
}

TEST(CampaignTest, DigestIsThreadCountIndependent) {
  auto serial = RunCampaign(SmallCampaign(1));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  auto parallel = RunCampaign(SmallCampaign(4));
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_FALSE(CampaignDigest(*serial).empty());
  EXPECT_EQ(CampaignDigest(*serial), CampaignDigest(*parallel));
}

TEST(CampaignTest, KillAndResumeReproducesDigest) {
  const std::string path = "campaign_ckpt_resume_test.bin";
  std::remove(path.c_str());

  auto uninterrupted = RunCampaign(SmallCampaign(1));
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().ToString();
  const std::string want = CampaignDigest(*uninterrupted);

  // Kill mid-campaign: abort after 5 completions, which lands inside stage 2
  // of the default 5/50/100 staging for 12 devices.
  CampaignConfig killed = SmallCampaign(1);
  killed.fleet.checkpoint_path = path;
  killed.fleet.checkpoint_every_devices = 1;
  killed.fleet.abort_after_devices = 5;
  auto cancelled = RunCampaign(killed);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);

  // Resume at a different thread count; digest must match byte for byte.
  CampaignConfig resume = SmallCampaign(4);
  resume.fleet.checkpoint_path = path;
  auto resumed = ResumeCampaign(resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->resumed_devices, 5);
  EXPECT_EQ(CampaignDigest(*resumed), want);

  // Resuming the now-complete checkpoint is a no-op with the same digest.
  auto again = ResumeCampaign(resume);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->resumed_devices, 12);
  EXPECT_EQ(CampaignDigest(*again), want);
  std::remove(path.c_str());
}

// Acceptance: a tampered image (payload bit flipped, transport checksums
// re-fixed by the attacker) decodes cleanly but is rejected by the simulated
// bootloader on EVERY device — zero devices end up on the bad version.
TEST(CampaignTest, TamperedImageIsRejectedFleetWide) {
  CampaignConfig config = SmallCampaign(4);
  config.stages = {{100, 1.0}};  // let every device attempt, no canary abort
  const std::vector<uint8_t> clean = PackedImageFor(
      config.fleet.apps, config.fleet.model, config.to_version, config.key);
  auto tampered = TamperOtaImage(clean, 64 + 129);  // a payload bit
  ASSERT_TRUE(tampered.ok()) << tampered.status().ToString();
  config.image_override = *tampered;

  auto report = RunCampaign(config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const uint64_t one = OneVerification(*tampered, config);
  for (const CampaignDeviceRow& row : report->devices) {
    EXPECT_EQ(row.outcome, OtaOutcome::kRejected);
    EXPECT_EQ(row.firmware_version, 3u) << "no device may run the tampered version";
    EXPECT_GT(row.verify_cycles, 0u);
    EXPECT_EQ(row.verify_cycles, one) << "every device is billed one verification";
  }
  EXPECT_EQ(report->metrics.counter("campaign.rejected"), 12u);
  EXPECT_EQ(report->metrics.counter("campaign.version.4"), 0u);
  EXPECT_EQ(report->metrics.counter("campaign.version.3"), 12u);

  // A flipped MAC bit is equally dead.
  auto mac_tampered = TamperOtaImage(clean, 7);
  ASSERT_TRUE(mac_tampered.ok()) << mac_tampered.status().ToString();
  config.image_override = *mac_tampered;
  auto report2 = RunCampaign(config);
  ASSERT_TRUE(report2.ok()) << report2.status().ToString();
  EXPECT_EQ(report2->metrics.counter("campaign.rejected"), 12u);
  EXPECT_EQ(report2->metrics.counter("campaign.version.4"), 0u);
}

// With the default canary staging, a tampered image never makes it past
// stage 0: the canary's 100% failure rate trips the threshold and the rest
// of the fleet is never touched.
TEST(CampaignTest, CanaryStageAbortsBadRollout) {
  CampaignConfig config = SmallCampaign(1);
  config.fleet.device_count = 40;
  const std::vector<uint8_t> clean = PackedImageFor(
      config.fleet.apps, config.fleet.model, config.to_version, config.key);
  auto tampered = TamperOtaImage(clean, 3);
  ASSERT_TRUE(tampered.ok()) << tampered.status().ToString();
  config.image_override = *tampered;

  auto report = RunCampaign(config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->aborted_stage, 0);
  ASSERT_EQ(report->stages.size(), 1u);
  EXPECT_TRUE(report->stages[0].aborted_after);
  EXPECT_EQ(report->stages[0].device_count, 2);  // ceil(40 * 5%)
  EXPECT_EQ(report->stages[0].rejected, 2);
  int rejected = 0;
  int untouched = 0;
  for (const CampaignDeviceRow& row : report->devices) {
    if (row.outcome == OtaOutcome::kRejected) {
      ++rejected;
    } else {
      EXPECT_EQ(row.outcome, OtaOutcome::kNotAttempted);
      ++untouched;
    }
    EXPECT_EQ(row.firmware_version, 3u);
  }
  EXPECT_EQ(rejected, 2);
  EXPECT_EQ(untouched, 38);
  EXPECT_EQ(report->metrics.counter("campaign.not_attempted"), 38u);
  EXPECT_EQ(report->metrics.counter("campaign.version.3"), 40u);
}

// A genuinely bad update: an authentic image whose firmware faults every
// timer tick. Every device accepts the MAC, activates, storms the watchdog
// inside the health window, and rolls back to the prior version.
TEST(CampaignTest, WatchdogStormRollsBackBadUpdate) {
  CampaignConfig config = SmallCampaign(4);
  config.fleet.device_count = 8;
  config.to_apps = {"clock", "crasher"};
  config.health_ms = 800;  // crasher faults every 100 ms
  config.storm_threshold = 3;
  config.stages = {{100, 1.0}};

  auto report = RunCampaign(config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const CampaignDeviceRow& row : report->devices) {
    EXPECT_EQ(row.outcome, OtaOutcome::kRolledBack);
    EXPECT_EQ(row.firmware_version, 3u) << "rollback must restore the prior version";
    EXPECT_GE(row.stats.watchdog_resets, 3u);
  }
  EXPECT_EQ(report->metrics.counter("campaign.rolled_back"), 8u);
  EXPECT_EQ(report->metrics.counter("campaign.version.4"), 0u);
  EXPECT_EQ(report->metrics.counter("campaign.version.3"), 8u);
  EXPECT_GT(report->metrics.counter("fleet.watchdog_resets"), 0u);
}

// The default canary staging contains a storm of rollbacks just as it
// contains rejections.
TEST(CampaignTest, CanaryCatchesStormingUpdate) {
  CampaignConfig config = SmallCampaign(1);
  config.fleet.device_count = 20;
  config.to_apps = {"clock", "crasher"};
  config.health_ms = 800;
  auto report = RunCampaign(config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->aborted_stage, 0);
  ASSERT_EQ(report->stages.size(), 1u);
  EXPECT_EQ(report->stages[0].rolled_back, report->stages[0].device_count);
  EXPECT_EQ(report->metrics.counter("campaign.version.4"), 0u);
}

TEST(CampaignTest, ValidatesConfig) {
  CampaignConfig same_version = SmallCampaign(1);
  same_version.to_version = same_version.from_version;
  EXPECT_EQ(RunCampaign(same_version).status().code(), StatusCode::kInvalidArgument);

  CampaignConfig not_increasing = SmallCampaign(1);
  not_increasing.stages = {{50, 0.25}, {50, 0.25}, {100, 0.25}};
  EXPECT_EQ(RunCampaign(not_increasing).status().code(), StatusCode::kInvalidArgument);

  CampaignConfig not_to_100 = SmallCampaign(1);
  not_to_100.stages = {{5, 0.25}, {50, 0.25}};
  EXPECT_EQ(RunCampaign(not_to_100).status().code(), StatusCode::kInvalidArgument);

  CampaignConfig bad_threshold = SmallCampaign(1);
  bad_threshold.stages = {{100, 1.5}};
  EXPECT_EQ(RunCampaign(bad_threshold).status().code(), StatusCode::kInvalidArgument);
  bad_threshold.stages = {{100, std::nan("")}};  // would never abort the stage
  EXPECT_EQ(RunCampaign(bad_threshold).status().code(), StatusCode::kInvalidArgument);

  // An authentic image must be the campaign's own build: a later version,
  // another app list, or another model is rejected before any device runs.
  const CampaignConfig base = SmallCampaign(1);
  for (const std::vector<uint8_t>& image :
       {PackedImageFor(base.fleet.apps, base.fleet.model, base.to_version + 1, base.key),
        PackedImageFor({"pedometer", "clock"}, base.fleet.model, base.to_version, base.key),
        PackedImageFor(base.fleet.apps, MemoryModel::kSoftwareOnly, base.to_version,
                       base.key)}) {
    CampaignConfig mismatched = SmallCampaign(1);
    mismatched.image_override = image;
    EXPECT_EQ(RunCampaign(mismatched).status().code(), StatusCode::kInvalidArgument);
  }

  CampaignConfig bad_storm = SmallCampaign(1);
  bad_storm.storm_threshold = 0;
  EXPECT_EQ(RunCampaign(bad_storm).status().code(), StatusCode::kInvalidArgument);
}

TEST(CampaignTest, RolloutOrderIsSeededPermutation) {
  const std::vector<int> a = CampaignRolloutOrder(100, 1);
  const std::vector<int> b = CampaignRolloutOrder(100, 1);
  const std::vector<int> c = CampaignRolloutOrder(100, 2);
  EXPECT_EQ(a, b) << "same seed, same order";
  EXPECT_NE(a, c) << "different seed, different order";
  std::vector<bool> seen(100, false);
  for (int id : a) {
    ASSERT_GE(id, 0);
    ASSERT_LT(id, 100);
    EXPECT_FALSE(seen[static_cast<size_t>(id)]);
    seen[static_cast<size_t>(id)] = true;
  }
}

TEST(CampaignTest, RenderMentionsStagesAndOutcomes) {
  auto report = RunCampaign(SmallCampaign(1));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const std::string text = RenderCampaignReport(*report);
  EXPECT_NE(text.find("v3 -> v4"), std::string::npos) << text;
  EXPECT_NE(text.find("12 updated"), std::string::npos) << text;
  EXPECT_NE(text.find("version skew"), std::string::npos) << text;
  EXPECT_NE(text.find("MAC verification"), std::string::npos) << text;
}

// A failing stage-1 device cancels the campaign through the same device
// runner as a plain fleet run, serially and threaded: the error names the
// device, the final checkpoint holds exactly the devices that completed
// (never the failing one, never a later stage), and resuming without the
// hook reproduces the uninterrupted digest.
TEST(CampaignTest, FailedDeviceCancelsCampaign) {
  auto baseline = RunCampaign(SmallCampaign(1));
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const std::string want = CampaignDigest(*baseline);
  // 12 devices under 5/50/100 staging: stage 0 is order[0], stage 1 is
  // order[1..5], stage 2 is order[6..11].
  const std::vector<int> order = CampaignRolloutOrder(12, SmallCampaign(1).rollout_seed);
  const int failing = order[3];

  for (int jobs : {1, 4}) {
    const std::string path = "campaign_ckpt_failfast_" + std::to_string(jobs) + ".bin";
    std::remove(path.c_str());
    CampaignConfig config = SmallCampaign(jobs);
    config.fleet.checkpoint_path = path;
    config.fleet.checkpoint_every_devices = 1;
    config.fleet.fail_device_id = failing;
    auto report = RunCampaign(config);
    ASSERT_FALSE(report.ok()) << "jobs=" << jobs;
    EXPECT_EQ(report.status().code(), StatusCode::kInternal) << report.status().ToString();
    EXPECT_NE(report.status().message().find(StrFormat("device %d:", failing)),
              std::string::npos)
        << report.status().ToString();

    auto cp = ReadFleetCheckpoint(path);
    ASSERT_TRUE(cp.ok()) << cp.status().ToString();
    const int completed = cp->CompletedCount();
    if (jobs == 1) {
      EXPECT_EQ(completed, 3) << "the canary plus the two stage-1 devices before the failure";
    }
    EXPECT_TRUE(cp->completed[static_cast<size_t>(order[0])]);
    EXPECT_FALSE(cp->completed[static_cast<size_t>(failing)]);
    for (size_t k = 6; k < order.size(); ++k) {
      EXPECT_FALSE(cp->completed[static_cast<size_t>(order[k])]) << "stage-2 device " << order[k];
    }
    // One row per completed device, each equal to that device's row in the
    // uninterrupted run.
    ASSERT_EQ(cp->devices.size(), static_cast<size_t>(completed));
    ASSERT_EQ(cp->campaign_devices.size(), static_cast<size_t>(completed));
    for (size_t i = 0; i < cp->devices.size(); ++i) {
      const CampaignDeviceRow& row =
          baseline->devices[static_cast<size_t>(cp->devices[i].device_id)];
      EXPECT_EQ(cp->devices[i].cycles, row.stats.cycles);
      EXPECT_EQ(cp->devices[i].instructions, row.stats.instructions);
      EXPECT_EQ(cp->campaign_devices[i].outcome, static_cast<uint8_t>(row.outcome));
      EXPECT_EQ(cp->campaign_devices[i].verify_cycles, row.verify_cycles);
    }

    CampaignConfig retry = SmallCampaign(jobs);
    retry.fleet.checkpoint_path = path;
    auto resumed = ResumeCampaign(retry);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(resumed->resumed_devices, completed);
    EXPECT_EQ(CampaignDigest(*resumed), want) << "jobs=" << jobs;
    std::remove(path.c_str());
  }
}

// A campaign deploys the firmware its fleet config asks for. With check_opt
// off (`amuletc fleet --campaign --no-check-opt`) both images keep every
// phase-2 bound check, so kSoftwareOnly devices burn different cycles, and
// the firmware hashes in the config identity keep a checkpoint written under
// one setting from resuming under the other.
TEST(CampaignTest, HonorsCheckOpt) {
  auto campaign = [](bool check_opt) {
    CampaignConfig config = SmallCampaign(2);
    config.fleet.device_count = 4;
    config.fleet.apps.clear();  // the nine-app suite
    config.fleet.model = MemoryModel::kSoftwareOnly;
    config.fleet.check_opt = check_opt;
    config.fleet.checkpoint_path =
        check_opt ? "campaign_ckpt_opt.bin" : "campaign_ckpt_unopt.bin";
    return config;
  };
  std::string digests[2];
  for (bool check_opt : {false, true}) {
    auto report = RunCampaign(campaign(check_opt));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    digests[check_opt ? 1 : 0] = CampaignDigest(*report);
  }
  EXPECT_NE(digests[0], digests[1]);

  for (bool check_opt : {false, true}) {
    CampaignConfig other = campaign(!check_opt);
    other.fleet.checkpoint_path = campaign(check_opt).fleet.checkpoint_path;
    auto resumed = ResumeCampaign(other);
    EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(resumed.status().message().find("config mismatch"), std::string::npos)
        << resumed.status().ToString();
  }
  for (bool check_opt : {false, true}) {
    std::remove(campaign(check_opt).fleet.checkpoint_path.c_str());
  }
}

// ---------------------------------------------------------------------------
// Checkpoint-kind and firmware-hash binding

TEST(CampaignTest, ResumeRejectsMismatchedConfigAndKind) {
  const std::string path = "campaign_ckpt_mismatch_test.bin";
  std::remove(path.c_str());

  CampaignConfig killed = SmallCampaign(1);
  killed.fleet.checkpoint_path = path;
  killed.fleet.checkpoint_every_devices = 1;
  killed.fleet.abort_after_devices = 2;
  ASSERT_EQ(RunCampaign(killed).status().code(), StatusCode::kCancelled);

  // Different campaign parameters cannot resume this checkpoint.
  CampaignConfig other = SmallCampaign(1);
  other.fleet.checkpoint_path = path;
  other.to_version = 9;
  EXPECT_EQ(ResumeCampaign(other).status().code(), StatusCode::kInvalidArgument);

  // Neither can a different deployed image (tampering changes the image FNV
  // that the campaign canonical folds in).
  CampaignConfig other_image = SmallCampaign(1);
  other_image.fleet.checkpoint_path = path;
  const std::vector<uint8_t> clean =
      PackedImageFor(other_image.fleet.apps, other_image.fleet.model,
                     other_image.to_version, other_image.key);
  auto tampered = TamperOtaImage(clean, 0);
  ASSERT_TRUE(tampered.ok()) << tampered.status().ToString();
  other_image.image_override = *tampered;
  EXPECT_EQ(ResumeCampaign(other_image).status().code(), StatusCode::kInvalidArgument);

  // A campaign checkpoint is not resumable as a plain fleet run.
  FleetConfig as_fleet = SmallCampaign(1).fleet;
  as_fleet.checkpoint_path = path;
  EXPECT_EQ(ResumeFleet(as_fleet).status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());

  // And a fleet checkpoint is not resumable as a campaign.
  FleetConfig fleet_config = SmallCampaign(1).fleet;
  fleet_config.checkpoint_path = path;
  fleet_config.checkpoint_every_devices = 1;
  fleet_config.abort_after_devices = 2;
  ASSERT_EQ(RunFleet(fleet_config).status().code(), StatusCode::kCancelled);
  CampaignConfig as_campaign = SmallCampaign(1);
  as_campaign.fleet.checkpoint_path = path;
  EXPECT_EQ(ResumeCampaign(as_campaign).status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// The firmware image hash is part of the config identity: same config +
// different firmware bytes = different hash, and the canonical string shows
// the fingerprint for diagnostics.
TEST(CheckpointV2Test, ConfigHashBindsFirmwareImage) {
  FleetConfig config;
  config.apps = {"clock"};
  EXPECT_NE(FleetConfigHash(config, 0x1111), FleetConfigHash(config, 0x2222));
  EXPECT_EQ(FleetConfigHash(config, 0x1111), FleetConfigHash(config, 0x1111));
  EXPECT_NE(FleetConfigCanonical(config, 0x1111).find("fw=0000000000001111"),
            std::string::npos)
      << FleetConfigCanonical(config, 0x1111);
}

// A compact checkpoint for exhaustive corruption sweeps (a real template
// snapshot is tens of kilobytes; decode never interprets its contents, so a
// stub keeps the sweep fast while covering every container code path).
FleetCheckpoint TinyCheckpoint(FleetCheckpointKind kind) {
  FleetCheckpoint cp;
  cp.kind = kind;
  cp.config_hash = 0x1234567890ABCDEFull;
  cp.config_text = "devices=4;apps=clock";
  cp.template_snapshot.bytes = {0xAA, 0xBB, 0xCC};
  cp.metrics.Add("fleet.devices", 2);
  cp.metrics.Observe("device.cycles", 999);
  cp.device_count = 4;
  cp.completed = {true, false, true, false};
  DeviceStats d0;
  d0.device_id = 0;
  d0.cycles = 111;
  d0.watchdog_resets = 2;
  DeviceStats d2;
  d2.device_id = 2;
  d2.cycles = 222;
  cp.devices = {d0, d2};
  if (kind == FleetCheckpointKind::kCampaign) {
    cp.campaign_devices = {{0, 1, 7, 5000}, {2, 3, 6, 5100}};
  }
  return cp;
}

TEST(CheckpointV2Test, CampaignRecordsRoundTrip) {
  const FleetCheckpoint cp = TinyCheckpoint(FleetCheckpointKind::kCampaign);
  auto decoded = DecodeFleetCheckpoint(EncodeFleetCheckpoint(cp));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->kind, FleetCheckpointKind::kCampaign);
  ASSERT_EQ(decoded->campaign_devices.size(), 2u);
  EXPECT_EQ(decoded->campaign_devices[0].device_id, 0);
  EXPECT_EQ(decoded->campaign_devices[0].outcome, 1);
  EXPECT_EQ(decoded->campaign_devices[0].firmware_version, 7u);
  EXPECT_EQ(decoded->campaign_devices[0].verify_cycles, 5000u);
  EXPECT_EQ(decoded->campaign_devices[1].outcome, 3);
  ASSERT_EQ(decoded->devices.size(), 2u);
  EXPECT_EQ(decoded->devices[0].watchdog_resets, 2u);
}

TEST(CheckpointV2Test, VersionOneFilesGetAClearMigrationError) {
  std::vector<uint8_t> bytes =
      EncodeFleetCheckpoint(TinyCheckpoint(FleetCheckpointKind::kFleet));
  bytes[4] = 1;  // rewrite the u32 version field to 1
  bytes[5] = bytes[6] = bytes[7] = 0;
  auto decoded = DecodeFleetCheckpoint(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("version 1"), std::string::npos)
      << decoded.status().message();
  EXPECT_NE(decoded.status().message().find("re-run without --resume"),
            std::string::npos)
      << decoded.status().message();
}

// Satellite: every truncation point and every single-bit flip of a valid
// AMFC container must decode to InvalidArgument — never crash, never
// partially apply. The whole-file FNV trailer is what makes the bit-flip
// half of this sweep hold unconditionally.
TEST(CheckpointV2FuzzTest, EveryTruncationIsInvalidArgument) {
  for (FleetCheckpointKind kind :
       {FleetCheckpointKind::kFleet, FleetCheckpointKind::kCampaign}) {
    const std::vector<uint8_t> bytes = EncodeFleetCheckpoint(TinyCheckpoint(kind));
    for (size_t len = 0; len < bytes.size(); ++len) {
      const std::vector<uint8_t> truncated(bytes.begin(),
                                           bytes.begin() + static_cast<long>(len));
      auto decoded = DecodeFleetCheckpoint(truncated);
      ASSERT_FALSE(decoded.ok()) << "length " << len;
      ASSERT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
          << "length " << len << ": " << decoded.status().ToString();
    }
  }
}

TEST(CheckpointV2FuzzTest, EverySingleBitFlipIsInvalidArgument) {
  for (FleetCheckpointKind kind :
       {FleetCheckpointKind::kFleet, FleetCheckpointKind::kCampaign}) {
    const std::vector<uint8_t> bytes = EncodeFleetCheckpoint(TinyCheckpoint(kind));
    for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
      std::vector<uint8_t> damaged = bytes;
      damaged[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      auto decoded = DecodeFleetCheckpoint(damaged);
      ASSERT_FALSE(decoded.ok()) << "bit " << bit;
      ASSERT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
          << "bit " << bit << ": " << decoded.status().ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// Watchdog-reset metric in plain fleet runs (satellite of the OTA work)

TEST(FleetWatchdogTest, WatchdogResetsSurfaceInMetrics) {
  FleetConfig config;
  config.device_count = 4;
  config.apps = {"clock", "crasher"};
  config.model = MemoryModel::kMpu;
  config.fleet_seed = 77;
  config.sim_ms = 600;  // crasher faults every 100 ms
  config.jobs = 1;
  auto report = RunFleet(config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->aggregate.total_watchdog_resets, 0u);
  EXPECT_EQ(report->metrics.counter("fleet.watchdog_resets"),
            report->aggregate.total_watchdog_resets);
  const LogHistogram* h = report->metrics.histogram("device.watchdog_resets");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 4u);
  for (const DeviceStats& d : report->devices) {
    EXPECT_GT(d.watchdog_resets, 0u);
  }
}

// ---------------------------------------------------------------------------
// Acceptance scale test: a seeded 1000-device staged campaign is digest-
// identical at --jobs 1 and --jobs N, and a kill + resume reproduces it.

CampaignConfig ScaleCampaign(int jobs) {
  CampaignConfig config;
  config.fleet.device_count = 1000;
  config.fleet.apps = {"pedometer"};
  config.fleet.model = MemoryModel::kMpu;
  config.fleet.fleet_seed = 0x5CA1E;
  config.fleet.sim_ms = 50;
  config.fleet.jobs = jobs;
  config.health_ms = 20;
  config.rollout_seed = 42;
  return config;
}

TEST(CampaignScaleTest, ThousandDeviceStagedRolloutIsDeterministic) {
  auto serial = RunCampaign(ScaleCampaign(1));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  const std::string want = CampaignDigest(*serial);
  EXPECT_EQ(serial->metrics.counter("campaign.updated"), 1000u);
  ASSERT_EQ(serial->stages.size(), 3u);
  EXPECT_EQ(serial->stages[0].device_count, 50);   // 5% canary
  EXPECT_EQ(serial->stages[1].device_count, 450);  // to 50%
  EXPECT_EQ(serial->stages[2].device_count, 500);  // to 100%

  auto parallel = RunCampaign(ScaleCampaign(0));
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(CampaignDigest(*parallel), want);

  const std::string path = "campaign_ckpt_scale_test.bin";
  std::remove(path.c_str());
  CampaignConfig killed = ScaleCampaign(0);
  killed.fleet.checkpoint_path = path;
  killed.fleet.abort_after_devices = 137;  // dies inside stage 2
  ASSERT_EQ(RunCampaign(killed).status().code(), StatusCode::kCancelled);
  CampaignConfig resume = ScaleCampaign(0);
  resume.fleet.checkpoint_path = path;
  auto resumed = ResumeCampaign(resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_GE(resumed->resumed_devices, 137);
  EXPECT_EQ(CampaignDigest(*resumed), want);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace amulet
