// Golden pins for the fleet and campaign engines: the FNV-1a 64 of
// FleetDigest, CampaignDigest and the AMFC checkpoint bytes for a handful of
// fixed configs. Every other digest test compares two runs of the same build
// (jobs 1 vs N, resumed vs uninterrupted, sharded vs single host), so bytes
// that change the same way on every path would pass them; these fail on any
// change. A deliberate digest change re-pins them. check_opt is set
// explicitly so the pins do not depend on the AMULET_CHECK_OPT build default.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/common/strings.h"
#include "src/fleet/campaign.h"
#include "src/fleet/checkpoint.h"
#include "src/fleet/fleet.h"
#include "src/ota/image.h"

namespace amulet {
namespace {

std::string FnvHex(const std::string& bytes) {
  return StrFormat("%016llx", static_cast<unsigned long long>(Fnv1a64(
                                  reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size())));
}

std::string FnvHex(const std::vector<uint8_t>& bytes) {
  return StrFormat("%016llx",
                   static_cast<unsigned long long>(Fnv1a64(bytes.data(), bytes.size())));
}

// The checkpoint a finished run left at `path`, re-encoded.
std::string CheckpointFnv(const std::string& path) {
  auto cp = ReadFleetCheckpoint(path);
  EXPECT_TRUE(cp.ok()) << cp.status().ToString();
  std::remove(path.c_str());
  return cp.ok() ? FnvHex(EncodeFleetCheckpoint(*cp)) : std::string();
}

FleetConfig GoldenFleet() {
  FleetConfig config;
  config.device_count = 8;
  config.apps = {"pedometer", "clock"};
  config.model = MemoryModel::kMpu;
  config.fleet_seed = 0x601D;
  config.sim_ms = 500;
  config.jobs = 4;
  config.check_opt = true;
  return config;
}

CampaignConfig GoldenCampaign() {
  CampaignConfig config;
  config.fleet.device_count = 12;
  config.fleet.apps = {"pedometer"};
  config.fleet.model = MemoryModel::kMpu;
  config.fleet.fleet_seed = 0x601D;
  config.fleet.sim_ms = 200;
  config.fleet.jobs = 4;
  config.fleet.check_opt = true;
  config.health_ms = 200;
  config.from_version = 3;
  config.to_version = 4;
  return config;
}

TEST(GoldenTest, RetainedFleet) {
  FleetConfig config = GoldenFleet();
  config.checkpoint_path = "golden_fleet.ckpt";
  auto report = RunFleet(config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(FnvHex(FleetDigest(*report)), "694f3784230920cc");
  EXPECT_EQ(CheckpointFnv(config.checkpoint_path), "6c938a3a3147c686");
}

TEST(GoldenTest, StreamingFleet) {
  FleetConfig config = GoldenFleet();
  config.retain_device_stats = false;
  auto report = RunFleet(config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(FnvHex(FleetDigest(*report)), "6ca6d0d86d25e240");
}

TEST(GoldenTest, CohortFleetWithCrasher) {
  FleetConfig config = GoldenFleet();
  config.apps.clear();
  for (const char* spec : {"wear:3:mpu:pedometer+clock:1/2/1", "buggy:1:sw:crasher+clock"}) {
    auto cohort = ParseCohortSpec(spec);
    ASSERT_TRUE(cohort.ok()) << cohort.status().ToString();
    config.profile.cohorts.push_back(*cohort);
  }
  auto report = RunFleet(config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report->faults.empty());
  EXPECT_EQ(FnvHex(FleetDigest(*report)), "5272978cf2bab9f3");
}

// The nine-app suite on every device: its timers and sensor subscriptions
// fall due in the same millisecond often enough that the event loop's
// delivery order (app index, then timers, accelerometer, heart rate) shows
// in the digest. Scanning the apps in reverse changes it.
TEST(GoldenTest, NineAppSuiteFleet) {
  FleetConfig config = GoldenFleet();
  config.device_count = 4;
  config.apps.clear();
  config.sim_ms = 3000;
  auto report = RunFleet(config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(FnvHex(FleetDigest(*report)), "9ae56c829ba55289");
}

TEST(GoldenTest, HappyCampaign) {
  CampaignConfig config = GoldenCampaign();
  config.fleet.checkpoint_path = "golden_campaign.ckpt";
  auto report = RunCampaign(config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->aborted_stage, -1);
  EXPECT_EQ(FnvHex(CampaignDigest(*report)), "b135bec178634a8d");
  EXPECT_EQ(CheckpointFnv(config.fleet.checkpoint_path), "a27c8b898eb1faae");
}

TEST(GoldenTest, StageAbortCampaign) {
  CampaignConfig config = GoldenCampaign();
  config.fleet.device_count = 20;
  config.to_apps = {"clock", "crasher"};
  config.health_ms = 800;
  auto report = RunCampaign(config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->aborted_stage, 0);
  ASSERT_FALSE(report->faults.empty());
  EXPECT_EQ(FnvHex(CampaignDigest(*report)), "47d26c99f8fcccfb");
}

}  // namespace
}  // namespace amulet
