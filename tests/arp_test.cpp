// ARP (profiler) and energy-model unit tests, plus sensor-synthesizer sanity.
#include <gtest/gtest.h>

#include "src/apps/app_sources.h"
#include "src/arp/arp.h"
#include "src/os/sensors.h"

namespace amulet {
namespace {

// ---------------------------------------------------------------------------
// Energy model arithmetic
// ---------------------------------------------------------------------------

TEST(EnergyModelTest, ChargePerCycle) {
  EnergyModel model;
  model.cpu_mhz = 16;
  model.active_ua_per_mhz = 300;
  model.battery_mah = 110;
  // 300 uA/MHz * 16 MHz = 4.8 mA; at 16e6 cycles/s -> 3e-10 C per cycle.
  EXPECT_NEAR(model.ChargePerCycle(), 3e-10, 1e-13);
  // 110 mAh = 396 C.
  EXPECT_NEAR(model.BatteryCharge(), 396.0, 1e-9);
}

TEST(EnergyModelTest, BatteryImpactScalesLinearly) {
  EnergyModel model;
  const double one = model.BatteryImpactPercent(1e9);
  EXPECT_NEAR(model.BatteryImpactPercent(3e9), 3 * one, 1e-9);
  EXPECT_GT(one, 0);
  // With the defaults, 1 Gcycle/week is well under the paper's 0.5% band.
  EXPECT_LT(one, 0.2);
}

TEST(EnergyModelTest, PaperBandSanity) {
  // The paper's Figure 2 shows up to ~3 Gcycles/week staying below 0.5%
  // battery impact; our defaults must reproduce that relationship.
  EnergyModel model;
  EXPECT_LT(model.BatteryImpactPercent(3e9), 0.5);
  EXPECT_GT(model.BatteryImpactPercent(8e9), 0.5);
}

// ---------------------------------------------------------------------------
// Profiler behaviour
// ---------------------------------------------------------------------------

TEST(ArpTest, ProfileCoversSubscribedHandlers) {
  const AppSpec* pedometer = nullptr;
  for (const AppSpec& app : AmuletAppSuite()) {
    if (app.name == "pedometer") {
      pedometer = &app;
    }
  }
  ASSERT_NE(pedometer, nullptr);
  ArpOptions options;
  options.samples_per_event = 10;
  auto profile = ProfileApp(*pedometer, MemoryModel::kMpu, options);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  ASSERT_EQ(profile->handlers.count(EventType::kAccel), 1u);
  const HandlerProfile& accel = profile->handlers.at(EventType::kAccel);
  EXPECT_EQ(accel.samples, 10);
  EXPECT_GT(accel.mean_cycles, 100);
  EXPECT_GT(accel.mean_data_accesses, 0);
  EXPECT_GT(profile->cycles_per_week, 0);
}

TEST(ArpTest, ProfileIsDeterministic) {
  const AppSpec& app = AmuletAppSuite()[1];  // Clock
  ArpOptions options;
  options.samples_per_event = 5;
  auto first = ProfileApp(app, MemoryModel::kSoftwareOnly, options);
  auto second = ProfileApp(app, MemoryModel::kSoftwareOnly, options);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->cycles_per_week, second->cycles_per_week);
}

TEST(ArpTest, IsolatedModelsCostMoreThanBaseline) {
  const AppSpec* fall = nullptr;
  for (const AppSpec& app : AmuletAppSuite()) {
    if (app.name == "falldetection") {
      fall = &app;
    }
  }
  ASSERT_NE(fall, nullptr);
  ArpOptions options;
  options.samples_per_event = 10;
  auto baseline = ProfileApp(*fall, MemoryModel::kNoIsolation, options);
  ASSERT_TRUE(baseline.ok());
  for (MemoryModel model : {MemoryModel::kFeatureLimited, MemoryModel::kMpu,
                            MemoryModel::kSoftwareOnly}) {
    auto profile = ProfileApp(*fall, model, options);
    ASSERT_TRUE(profile.ok()) << MemoryModelName(model);
    OverheadResult overhead = ComputeOverhead(*baseline, *profile, options.energy);
    EXPECT_GT(overhead.overhead_cycles_per_week, 0) << MemoryModelName(model);
    EXPECT_GT(overhead.battery_impact_percent, 0) << MemoryModelName(model);
  }
}

// Exact per-handler means of the "rest" app (timer and accel handlers) under
// two models. data_accesses is the bus's counted-region counter, so any
// change to what the bus counts moves these pins.
TEST(ArpTest, PinnedHandlerProfiles) {
  const AppSpec* rest = nullptr;
  for (const AppSpec& app : AmuletAppSuite()) {
    if (app.name == "rest") {
      rest = &app;
    }
  }
  ASSERT_NE(rest, nullptr);
  struct Pin {
    MemoryModel model;
    EventType type;
    double cycles;
    double data_accesses;
    double syscalls;
  };
  const Pin pins[] = {
      {MemoryModel::kMpu, EventType::kTimer, 680, 61, 1},
      {MemoryModel::kMpu, EventType::kAccel, 1179.8, 117.5, 0},
      {MemoryModel::kSoftwareOnly, EventType::kTimer, 566, 61, 1},
      {MemoryModel::kSoftwareOnly, EventType::kAccel, 1143.8, 117.5, 0},
  };
  ArpOptions options;
  options.samples_per_event = 10;
  for (MemoryModel model : {MemoryModel::kMpu, MemoryModel::kSoftwareOnly}) {
    auto profile = ProfileApp(*rest, model, options);
    ASSERT_TRUE(profile.ok()) << profile.status().ToString();
    EXPECT_EQ(profile->handlers.size(), 2u);
    for (const Pin& pin : pins) {
      if (pin.model != model) {
        continue;
      }
      SCOPED_TRACE(std::string(MemoryModelName(model)) + " " + EventHandlerName(pin.type));
      ASSERT_EQ(profile->handlers.count(pin.type), 1u);
      const HandlerProfile& handler = profile->handlers.at(pin.type);
      EXPECT_EQ(handler.samples, 10);
      EXPECT_DOUBLE_EQ(handler.mean_cycles, pin.cycles);
      EXPECT_DOUBLE_EQ(handler.mean_data_accesses, pin.data_accesses);
      EXPECT_DOUBLE_EQ(handler.mean_syscalls, pin.syscalls);
    }
  }
}

TEST(ArpTest, OverheadClampsAtZero) {
  AppProfile cheap;
  cheap.cycles_per_week = 100;
  AppProfile expensive;
  expensive.cycles_per_week = 500;
  EnergyModel energy;
  // "isolated" cheaper than baseline (measurement noise): clamp, don't go
  // negative.
  OverheadResult overhead = ComputeOverhead(expensive, cheap, energy);
  EXPECT_EQ(overhead.overhead_cycles_per_week, 0);
}

TEST(ArpTest, RenderersProduceText) {
  AppProfile profile;
  profile.app_name = "demo";
  profile.model = MemoryModel::kMpu;
  profile.handlers[EventType::kTimer] = {100.0, 5.0, 1.0, 3};
  profile.cycles_per_week = 2.5e9;
  std::string text = RenderProfile(profile);
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find("on_timer"), std::string::npos);
  EXPECT_NE(text.find("2.500"), std::string::npos);

  std::vector<OverheadResult> rows = {{"demo", MemoryModel::kMpu, 1e9, 0.08}};
  std::string table = RenderOverheadTable(rows);
  EXPECT_NE(table.find("MPU"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Sensor synthesizers
// ---------------------------------------------------------------------------

TEST(SensorTest, RestIsNearOneG) {
  SensorSuite sensors(42);
  sensors.set_mode(ActivityMode::kRest);
  for (uint64_t t = 0; t < 2000; t += 50) {
    AccelSample s = sensors.Accel(t);
    int mag = std::abs(s.x_mg) + std::abs(s.y_mg) + std::abs(s.z_mg);
    EXPECT_GT(mag, 900) << t;
    EXPECT_LT(mag, 1100) << t;
  }
}

TEST(SensorTest, WalkingOscillates) {
  SensorSuite sensors(42);
  sensors.set_mode(ActivityMode::kWalking);
  int16_t min_x = 32767;
  int16_t max_x = -32768;
  for (uint64_t t = 0; t < 3000; t += 25) {
    AccelSample s = sensors.Accel(t);
    min_x = std::min(min_x, s.x_mg);
    max_x = std::max(max_x, s.x_mg);
  }
  EXPECT_GT(max_x - min_x, 250) << "walking must swing the axes";
}

TEST(SensorTest, FallHasFreefallThenImpact) {
  SensorSuite sensors(42);
  sensors.set_mode(ActivityMode::kFalling);
  bool saw_freefall = false;
  bool saw_impact = false;
  for (uint64_t t = 0; t < 600; t += 20) {
    AccelSample s = sensors.Accel(t);
    int mag = std::abs(s.x_mg) + std::abs(s.y_mg) + std::abs(s.z_mg);
    if (mag < 300) {
      saw_freefall = true;
    }
    if (mag > 2500) {
      saw_impact = true;
    }
  }
  EXPECT_TRUE(saw_freefall);
  EXPECT_TRUE(saw_impact);
}

TEST(SensorTest, HeartRateTracksActivity) {
  SensorSuite sensors(42);
  sensors.set_mode(ActivityMode::kRest);
  int rest = sensors.HeartRateBpm(1000);
  sensors.set_mode(ActivityMode::kRunning);
  int running = sensors.HeartRateBpm(1000);
  EXPECT_GT(running, rest + 30);
  EXPECT_GT(rest, 50);
  EXPECT_LT(running, 200);
}

TEST(SensorTest, BatteryDischargesOverAWeek) {
  SensorSuite sensors(42);
  EXPECT_EQ(sensors.BatteryPercent(0), 100);
  EXPECT_LT(sensors.BatteryPercent(3ull * 24 * 3600 * 1000), 70);
  EXPECT_GE(sensors.BatteryPercent(6ull * 24 * 3600 * 1000), 0);
}

TEST(SensorTest, LightFollowsDayNight) {
  SensorSuite sensors(42);
  const uint64_t kHour = 3600ull * 1000;
  EXPECT_LT(sensors.LightLux(2 * kHour), 100) << "2am is dark";
  EXPECT_GT(sensors.LightLux(12 * kHour), 4000) << "noon is bright";
}

TEST(SensorTest, TempInPhysiologicalRange) {
  SensorSuite sensors(42);
  for (uint64_t t = 0; t < 24ull * 3600 * 1000; t += 3600 * 1000) {
    int temp = sensors.TempCentiC(t);
    EXPECT_GT(temp, 3100) << "above 31 C";
    EXPECT_LT(temp, 3600) << "below 36 C";
  }
}

TEST(SensorTest, NoiseIsDeterministicPerSeed) {
  SensorSuite a(7);
  SensorSuite b(7);
  SensorSuite c(8);
  a.set_mode(ActivityMode::kWalking);
  b.set_mode(ActivityMode::kWalking);
  c.set_mode(ActivityMode::kWalking);
  AccelSample sa = a.Accel(123);
  AccelSample sb = b.Accel(123);
  AccelSample sc = c.Accel(123);
  EXPECT_EQ(sa.x_mg, sb.x_mg);
  EXPECT_EQ(sa.y_mg, sb.y_mg);
  EXPECT_TRUE(sa.x_mg != sc.x_mg || sa.y_mg != sc.y_mg || sa.z_mg != sc.z_mg);
}

}  // namespace
}  // namespace amulet
