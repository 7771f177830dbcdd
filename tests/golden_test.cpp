// Golden pins for the fleet and campaign engines: the FNV-1a 64 of
// FleetDigest, CampaignDigest and the AMFC checkpoint bytes for a handful of
// fixed configs. Every other digest test compares two runs of the same build
// (jobs 1 vs N, resumed vs uninterrupted, sharded vs single host), so bytes
// that change the same way on every path would pass them; these fail on any
// change. A deliberate digest change re-pins them. check_opt is set
// explicitly so the pins do not depend on the AMULET_CHECK_OPT build default.
//
// GeneratedImages pins the toolchain's output itself: the flashed bytes and
// the symbol table of every bundled app under every model, so a code
// generator or AFT refactor that changes one byte of any image fails here
// before it reaches a fleet digest.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/aft/aft.h"
#include "src/apps/app_sources.h"
#include "src/common/strings.h"
#include "src/fleet/campaign.h"
#include "src/fleet/checkpoint.h"
#include "src/fleet/fleet.h"
#include "src/ota/image.h"
#include "src/scope/region_map.h"

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

// "image=<FirmwareImageHash> symbols=<FNV of the name=addr lines>", or the
// status code when the AFT rejects the build. Also checks that every scope
// label in the image opens a known region and has its closing label.
std::string ImagePin(const std::vector<AppSource>& apps, const AftOptions& options) {
  auto fw = BuildFirmware(apps, options);
  if (!fw.ok()) {
    return "rejected " + std::string(StatusCodeName(fw.status().code()));
  }
  std::string symbols;
  for (const auto& [name, addr] : fw->image.symbols) {
    symbols += StrFormat("%s=%04x\n", name.c_str(), addr);
    if (!StartsWith(name, "__scope_b_")) {
      continue;
    }
    const std::string rest = name.substr(10);  // "<mnemonic>_<id>"
    const std::string mnemonic = rest.substr(0, rest.find('_'));
    EXPECT_NE(RegionTagForMnemonic(mnemonic), RegionTag::kOther) << name;
    EXPECT_EQ(fw->image.symbols.count("__scope_e_" + rest), 1u) << name << " is unpaired";
  }
  for (const auto& [name, addr] : fw->image.symbols) {
    if (StartsWith(name, "__scope_e_")) {
      EXPECT_EQ(fw->image.symbols.count("__scope_b_" + name.substr(10)), 1u)
          << name << " is unpaired";
    }
  }
  return StrFormat("image=%016llx symbols=%s",
                   static_cast<unsigned long long>(FirmwareImageHash(fw->image)),
                   FnvHex(symbols).c_str());
}

TEST(GoldenTest, GeneratedImages) {
  std::vector<std::string> names;
  for (const AppSpec& app : AmuletAppSuite()) {
    names.push_back(app.name);
  }
  for (const char* name : {"synthetic", "activity", "quicksort", "crasher"}) {
    names.push_back(name);
  }
  std::map<std::string, std::string> pins;  // config -> ImagePin
  for (const std::string& name : names) {
    auto spec = FindApp(name);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    const std::vector<AppSource> one = {{(*spec)->name, (*spec)->source}};
    for (MemoryModel model : {MemoryModel::kNoIsolation, MemoryModel::kFeatureLimited,
                              MemoryModel::kMpu, MemoryModel::kSoftwareOnly}) {
      for (bool optimize : {false, true}) {
        pins[StrFormat("%s/%s/opt%d", name.c_str(), std::string(MemoryModelName(model)).c_str(),
                       optimize ? 1 : 0)] =
            ImagePin(one, {.model = model, .optimize_checks = optimize});
      }
    }
  }
  std::vector<AppSource> suite;
  for (const AppSpec& app : AmuletAppSuite()) {
    suite.push_back({app.name, app.source});
  }
  for (MemoryModel model : {MemoryModel::kNoIsolation, MemoryModel::kFeatureLimited,
                            MemoryModel::kMpu, MemoryModel::kSoftwareOnly}) {
    pins[StrFormat("suite/%s", std::string(MemoryModelName(model)).c_str())] =
        ImagePin(suite, {.model = model, .optimize_checks = true});
  }
  const std::vector<AppSource> pedometer = {{"pedometer", FindApp("pedometer").value()->source}};
  const std::vector<AppSource> activity = {{"activity", ActivityApp().source}};
  pins["variant/shadow_return_stack"] = ImagePin(
      pedometer, {.model = MemoryModel::kMpu, .shadow_return_stack = true, .optimize_checks = true});
  pins["variant/use_hw_multiplier"] = ImagePin(
      activity, {.model = MemoryModel::kMpu, .use_hw_multiplier = true, .optimize_checks = true});
  pins["variant/future_mpu"] = ImagePin(
      pedometer, {.model = MemoryModel::kMpu, .future_mpu = true, .optimize_checks = true});
  pins["variant/zero_shared_stack"] = ImagePin(
      pedometer,
      {.model = MemoryModel::kNoIsolation, .zero_shared_stack = true, .optimize_checks = true});

  const std::map<std::string, std::string> kPins = {
      {"activity/FeatureLimited/opt0", "image=ae21efc6fd9db446 symbols=ad1017aebc0cd974"},
      {"activity/FeatureLimited/opt1", "image=af52dccadf9525d8 symbols=a2b3a074a13b5d82"},
      {"activity/MPU/opt0", "image=f8945f92e982ab68 symbols=d088a1bdfc7b1ad0"},
      {"activity/MPU/opt1", "image=cb65351f696e61c6 symbols=7eb03cc31d75e605"},
      {"activity/NoIsolation/opt0", "image=970b1adfa3f7c82c symbols=9dbb411c229ba626"},
      {"activity/NoIsolation/opt1", "image=970b1adfa3f7c82c symbols=9dbb411c229ba626"},
      {"activity/SoftwareOnly/opt0", "image=e95f8f83d1587968 symbols=a98cf3829e7e2c75"},
      {"activity/SoftwareOnly/opt1", "image=7ff3a73ea633f26a symbols=b34eba342c28f337"},
      {"batterymeter/FeatureLimited/opt0", "image=723d898f1fa51eb2 symbols=75314d6306393ec2"},
      {"batterymeter/FeatureLimited/opt1", "image=723d898f1fa51eb2 symbols=75314d6306393ec2"},
      {"batterymeter/MPU/opt0", "image=96be5b52827e23c8 symbols=3fe72a48845efe7f"},
      {"batterymeter/MPU/opt1", "image=96be5b52827e23c8 symbols=3fe72a48845efe7f"},
      {"batterymeter/NoIsolation/opt0", "image=723d898f1fa51eb2 symbols=75314d6306393ec2"},
      {"batterymeter/NoIsolation/opt1", "image=723d898f1fa51eb2 symbols=75314d6306393ec2"},
      {"batterymeter/SoftwareOnly/opt0", "image=9f0674c26a1274eb symbols=0f16142f1f95f29f"},
      {"batterymeter/SoftwareOnly/opt1", "image=9f0674c26a1274eb symbols=0f16142f1f95f29f"},
      {"clock/FeatureLimited/opt0", "image=351f71b440b99f2e symbols=741a7bb67b5bc655"},
      {"clock/FeatureLimited/opt1", "image=351f71b440b99f2e symbols=741a7bb67b5bc655"},
      {"clock/MPU/opt0", "image=15d26bc6662093d7 symbols=6aa206a0a5b2a232"},
      {"clock/MPU/opt1", "image=15d26bc6662093d7 symbols=6aa206a0a5b2a232"},
      {"clock/NoIsolation/opt0", "image=351f71b440b99f2e symbols=741a7bb67b5bc655"},
      {"clock/NoIsolation/opt1", "image=351f71b440b99f2e symbols=741a7bb67b5bc655"},
      {"clock/SoftwareOnly/opt0", "image=06b973effbcd74dc symbols=4ea3d85b3ce1ad9e"},
      {"clock/SoftwareOnly/opt1", "image=06b973effbcd74dc symbols=4ea3d85b3ce1ad9e"},
      {"crasher/FeatureLimited/opt0", "rejected FAILED_PRECONDITION"},
      {"crasher/FeatureLimited/opt1", "rejected FAILED_PRECONDITION"},
      {"crasher/MPU/opt0", "image=29ec5318f77ef318 symbols=735c3dfdf331f5f8"},
      {"crasher/MPU/opt1", "image=29ec5318f77ef318 symbols=735c3dfdf331f5f8"},
      {"crasher/NoIsolation/opt0", "image=32867abee850dd60 symbols=b525a96d746b8002"},
      {"crasher/NoIsolation/opt1", "image=32867abee850dd60 symbols=b525a96d746b8002"},
      {"crasher/SoftwareOnly/opt0", "image=337e4f3a5ff039c6 symbols=8504ba50c359e544"},
      {"crasher/SoftwareOnly/opt1", "image=337e4f3a5ff039c6 symbols=8504ba50c359e544"},
      {"falldetection/FeatureLimited/opt0", "image=e33e302403eeaf41 symbols=2e3d7d64a9e4c860"},
      {"falldetection/FeatureLimited/opt1", "image=e9e1dfbfb4f1eb96 symbols=22f7f691d48c45ef"},
      {"falldetection/MPU/opt0", "image=a48d55ff430cbe77 symbols=567e6f8450013c2d"},
      {"falldetection/MPU/opt1", "image=a3f85b13f82a7497 symbols=12424c077e9b01a7"},
      {"falldetection/NoIsolation/opt0", "image=75922f438d35e539 symbols=8b5370be0a79b5fe"},
      {"falldetection/NoIsolation/opt1", "image=75922f438d35e539 symbols=8b5370be0a79b5fe"},
      {"falldetection/SoftwareOnly/opt0", "image=0cb0f4a0c178a8ea symbols=9c5e144e6ecc5cfc"},
      {"falldetection/SoftwareOnly/opt1", "image=fb865394a36709db symbols=1a34bc82709d8058"},
      {"hr/FeatureLimited/opt0", "image=4b0a51cbec4e0814 symbols=b585059dd7cd7059"},
      {"hr/FeatureLimited/opt1", "image=4b0a51cbec4e0814 symbols=b585059dd7cd7059"},
      {"hr/MPU/opt0", "image=4387cb8d5139fabb symbols=59dd85de5ee60449"},
      {"hr/MPU/opt1", "image=4387cb8d5139fabb symbols=59dd85de5ee60449"},
      {"hr/NoIsolation/opt0", "image=4b0a51cbec4e0814 symbols=b585059dd7cd7059"},
      {"hr/NoIsolation/opt1", "image=4b0a51cbec4e0814 symbols=b585059dd7cd7059"},
      {"hr/SoftwareOnly/opt0", "image=5b31822513450218 symbols=e81c2cff362c2393"},
      {"hr/SoftwareOnly/opt1", "image=5b31822513450218 symbols=e81c2cff362c2393"},
      {"hrlog/FeatureLimited/opt0", "image=37ac9c477937b7a0 symbols=c0d8116d0a7e7a06"},
      {"hrlog/FeatureLimited/opt1", "image=37ac9c477937b7a0 symbols=c0d8116d0a7e7a06"},
      {"hrlog/MPU/opt0", "image=d2d45dcfa8165fab symbols=cf093fc1cccdc486"},
      {"hrlog/MPU/opt1", "image=d2d45dcfa8165fab symbols=cf093fc1cccdc486"},
      {"hrlog/NoIsolation/opt0", "image=19dff32918da8451 symbols=e4c0f0b939bfbca0"},
      {"hrlog/NoIsolation/opt1", "image=19dff32918da8451 symbols=e4c0f0b939bfbca0"},
      {"hrlog/SoftwareOnly/opt0", "image=3f6cb5eb74da885b symbols=7987ba3f13ce2bb4"},
      {"hrlog/SoftwareOnly/opt1", "image=3f6cb5eb74da885b symbols=7987ba3f13ce2bb4"},
      {"pedometer/FeatureLimited/opt0", "image=eb99582eb63d10c8 symbols=02529afb3af3af57"},
      {"pedometer/FeatureLimited/opt1", "image=eb99582eb63d10c8 symbols=02529afb3af3af57"},
      {"pedometer/MPU/opt0", "image=5f2fe3d003ff8fe5 symbols=dd31ec1e3bb3d782"},
      {"pedometer/MPU/opt1", "image=5f2fe3d003ff8fe5 symbols=dd31ec1e3bb3d782"},
      {"pedometer/NoIsolation/opt0", "image=4845239b031226a1 symbols=729e496ca9ab0a6c"},
      {"pedometer/NoIsolation/opt1", "image=4845239b031226a1 symbols=729e496ca9ab0a6c"},
      {"pedometer/SoftwareOnly/opt0", "image=0732efb4c943c4e4 symbols=d3e24891e1348e51"},
      {"pedometer/SoftwareOnly/opt1", "image=0732efb4c943c4e4 symbols=d3e24891e1348e51"},
      {"quicksort/FeatureLimited/opt0", "image=be5a30533b64a95d symbols=6e34c84d3d86b2f1"},
      {"quicksort/FeatureLimited/opt1", "image=2396e2b4c67be07a symbols=5583a8e4345615ac"},
      {"quicksort/MPU/opt0", "image=b4ce774bf5e96108 symbols=e3a9ba23e215f91f"},
      {"quicksort/MPU/opt1", "image=88bae6d850ad1427 symbols=33f86a47bce01459"},
      {"quicksort/NoIsolation/opt0", "image=406c0734803844f9 symbols=c1503c8c4430b680"},
      {"quicksort/NoIsolation/opt1", "image=406c0734803844f9 symbols=c1503c8c4430b680"},
      {"quicksort/SoftwareOnly/opt0", "image=36f3497eb055812e symbols=d05d20b6de191ab9"},
      {"quicksort/SoftwareOnly/opt1", "image=3e7c340395e8b72a symbols=f59629047c523648"},
      {"rest/FeatureLimited/opt0", "image=f2f0571b8fcf724e symbols=58a39d3cc6b38db5"},
      {"rest/FeatureLimited/opt1", "image=f2f0571b8fcf724e symbols=58a39d3cc6b38db5"},
      {"rest/MPU/opt0", "image=40eca6a2b8f82fc0 symbols=44431b15be164caa"},
      {"rest/MPU/opt1", "image=40eca6a2b8f82fc0 symbols=44431b15be164caa"},
      {"rest/NoIsolation/opt0", "image=8fbea130665536ed symbols=0c47761df3e15d4c"},
      {"rest/NoIsolation/opt1", "image=8fbea130665536ed symbols=0c47761df3e15d4c"},
      {"rest/SoftwareOnly/opt0", "image=791bcd3a4a6b9fa9 symbols=e4bbe7d29199d826"},
      {"rest/SoftwareOnly/opt1", "image=791bcd3a4a6b9fa9 symbols=e4bbe7d29199d826"},
      {"suite/FeatureLimited", "image=7b3564c5d2c09087 symbols=552c0776a8090843"},
      {"suite/MPU", "image=b0de61773b2bdc3e symbols=614e50555c0d4ab5"},
      {"suite/NoIsolation", "image=ae8c32871da73be2 symbols=641c5daaff8194c2"},
      {"suite/SoftwareOnly", "image=27c00ccfd73fbb0c symbols=a0be572eff7f1ac5"},
      {"sun/FeatureLimited/opt0", "image=f64f6eb70812477c symbols=f4367f63e388eb62"},
      {"sun/FeatureLimited/opt1", "image=f64f6eb70812477c symbols=f4367f63e388eb62"},
      {"sun/MPU/opt0", "image=f3d13bd6030cd33d symbols=213bb02cd89dda0b"},
      {"sun/MPU/opt1", "image=f3d13bd6030cd33d symbols=213bb02cd89dda0b"},
      {"sun/NoIsolation/opt0", "image=f64f6eb70812477c symbols=f4367f63e388eb62"},
      {"sun/NoIsolation/opt1", "image=f64f6eb70812477c symbols=f4367f63e388eb62"},
      {"sun/SoftwareOnly/opt0", "image=80c65bb95a970306 symbols=7849863389c88516"},
      {"sun/SoftwareOnly/opt1", "image=80c65bb95a970306 symbols=7849863389c88516"},
      {"synthetic/FeatureLimited/opt0", "image=109219b69577bc4e symbols=c88c4c26f9a2b03c"},
      {"synthetic/FeatureLimited/opt1", "image=12076ae35ced25db symbols=d43e8731686afe99"},
      {"synthetic/MPU/opt0", "image=59744c48ab667565 symbols=4f0a808d5e8c1532"},
      {"synthetic/MPU/opt1", "image=0957ada661ea84d2 symbols=f54c3038019b1a24"},
      {"synthetic/NoIsolation/opt0", "image=12076ae35ced25db symbols=d43e8731686afe99"},
      {"synthetic/NoIsolation/opt1", "image=12076ae35ced25db symbols=d43e8731686afe99"},
      {"synthetic/SoftwareOnly/opt0", "image=aaaaceda49ff32ba symbols=72c91ef683195989"},
      {"synthetic/SoftwareOnly/opt1", "image=2dc6ff4ae228c6c3 symbols=8e26b336a55f6344"},
      {"temperature/FeatureLimited/opt0", "image=d8fbbb911cf0644f symbols=03351b9fecc286bb"},
      {"temperature/FeatureLimited/opt1", "image=d8fbbb911cf0644f symbols=03351b9fecc286bb"},
      {"temperature/MPU/opt0", "image=5fa45f40602b9734 symbols=38a7a334c1fbf909"},
      {"temperature/MPU/opt1", "image=5fa45f40602b9734 symbols=38a7a334c1fbf909"},
      {"temperature/NoIsolation/opt0", "image=2a670936c8b943c0 symbols=489327518a8dea1f"},
      {"temperature/NoIsolation/opt1", "image=2a670936c8b943c0 symbols=489327518a8dea1f"},
      {"temperature/SoftwareOnly/opt0", "image=78b7708f1ab15511 symbols=7ad00244887ef78c"},
      {"temperature/SoftwareOnly/opt1", "image=78b7708f1ab15511 symbols=7ad00244887ef78c"},
      {"variant/future_mpu", "image=be9c8e9646d264d3 symbols=56b14fdafd90d315"},
      {"variant/shadow_return_stack", "image=fa67f4a510fa45b3 symbols=a5f94073610545ca"},
      {"variant/use_hw_multiplier", "image=cffb708ff522e37d symbols=2276d3ce6db655f0"},
      {"variant/zero_shared_stack", "image=1723bd6c1bbec2de symbols=0fc9737cbe1513ca"},
  };
  for (const auto& [config, pin] : pins) {
    auto it = kPins.find(config);
    EXPECT_TRUE(it != kPins.end() && it->second == pin)
        << "      {\"" << config << "\", \"" << pin << "\"},";
  }
  EXPECT_EQ(pins.size(), kPins.size());
}

}  // namespace
}  // namespace amulet
