// Integration tests: AFT firmware builds, AmuletOS boot/dispatch, isolation
// between apps, fault policies, and the event loop.
#include <gtest/gtest.h>

#include "src/aft/aft.h"
#include "src/apps/app_sources.h"
#include "src/common/strings.h"
#include "src/os/os.h"

namespace amulet {
namespace {

constexpr char kCounterApp[] = R"(
int count;
void on_init(void) {
  count = 0;
  amulet_timer_start(0, 1000);
}
void on_timer(int timer_id) {
  count++;
  amulet_display_digits(0, count);
}
)";

constexpr char kWildWriterApp[] = R"(
int target_lo;
int target_hi;
void on_init(void) {
  amulet_button_subscribe();
}
void on_button(int id) {
  int* p;
  if (id == 0) {
    p = (int*)target_lo;
  } else {
    p = (int*)target_hi;
  }
  *p = 0x4141;
}
)";

Firmware MustBuild(const std::vector<AppSource>& apps, MemoryModel model) {
  AftOptions options;
  options.model = model;
  auto fw = BuildFirmware(apps, options);
  EXPECT_TRUE(fw.ok()) << fw.status().ToString();
  if (!fw.ok()) {
    return Firmware{};
  }
  return std::move(*fw);
}

class AllModelsTest : public ::testing::TestWithParam<MemoryModel> {};

TEST_P(AllModelsTest, LayoutInvariants) {
  Firmware fw = MustBuild({{"alpha", kCounterApp}, {"beta", kCounterApp}}, GetParam());
  ASSERT_EQ(fw.apps.size(), 2u);
  uint16_t prev_end = kFramStart;
  for (const AppImage& app : fw.apps) {
    EXPECT_GE(app.code_lo, prev_end);
    EXPECT_LT(app.code_lo, app.code_hi);
    EXPECT_EQ(app.code_hi, app.data_lo) << "data directly above code (Figure 1)";
    EXPECT_LT(app.data_lo, app.data_hi);
    EXPECT_EQ(app.code_lo % 16, 0) << "MPU granularity";
    EXPECT_EQ(app.data_lo % 16, 0);
    EXPECT_EQ(app.data_hi % 16, 0);
    EXPECT_GT(app.stack_top, app.data_lo) << "stack below the globals, grows down";
    EXPECT_GE(app.stack_bytes, 128);
    EXPECT_NE(app.dispatch_addr, 0);
    EXPECT_NE(app.handlers[static_cast<size_t>(EventType::kInit)], 0);
    prev_end = app.data_hi;
  }
  EXPECT_LE(prev_end, kFramEnd);
  EXPECT_NE(fw.nmi_handler, 0);
}

TEST_P(AllModelsTest, BootAndTimerDispatch) {
  Firmware fw = MustBuild({{"counter", kCounterApp}}, GetParam());
  Machine machine;
  AmuletOs os(&machine, std::move(fw), OsOptions{});
  ASSERT_TRUE(os.Boot().ok());
  ASSERT_TRUE(os.RunFor(5500).ok());
  // Five seconds -> five timer ticks.
  EXPECT_EQ(os.stats(0).dispatches, 1u + 5u);  // on_init + 5 timers
  auto display = os.display(0);
  ASSERT_EQ(display.count(0), 1u);
  EXPECT_EQ(display.at(0), 5);
  EXPECT_TRUE(os.faults().empty());
}

TEST_P(AllModelsTest, SuiteAppsAllBuildTogether) {
  std::vector<AppSource> sources;
  for (const AppSpec& app : AmuletAppSuite()) {
    sources.push_back({app.name, app.source});
  }
  Firmware fw = MustBuild(sources, GetParam());
  EXPECT_EQ(fw.apps.size(), AmuletAppSuite().size());
}

INSTANTIATE_TEST_SUITE_P(Models, AllModelsTest,
                         ::testing::Values(MemoryModel::kNoIsolation,
                                           MemoryModel::kFeatureLimited, MemoryModel::kMpu,
                                           MemoryModel::kSoftwareOnly));

// ---------------------------------------------------------------------------
// Cross-app isolation
// ---------------------------------------------------------------------------

struct IsolationRig {
  Machine machine;
  std::unique_ptr<AmuletOs> os;
  uint16_t victim_global = 0;

  // victim app first (lower memory), attacker second (higher memory).
  void Build(MemoryModel model, FaultPolicy policy = FaultPolicy::kLogOnly) {
    Firmware fw = MustBuild({{"victim", kCounterApp}, {"attacker", kWildWriterApp}}, model);
    victim_global = fw.image.SymbolOrZero("victim_g_count");
    ASSERT_NE(victim_global, 0);
    // Point the attacker's wild pointers at the victim's global (below the
    // attacker) and at its own data_hi + 0x10 (above the attacker).
    uint16_t lo_sym = fw.image.SymbolOrZero("attacker_g_target_lo");
    uint16_t hi_sym = fw.image.SymbolOrZero("attacker_g_target_hi");
    ASSERT_NE(lo_sym, 0);
    ASSERT_NE(hi_sym, 0);
    OsOptions options;
    options.fault_policy = policy;
    os = std::make_unique<AmuletOs>(&machine, std::move(fw), options);
    ASSERT_TRUE(os->Boot().ok());
    machine.bus().PokeWord(lo_sym, victim_global);
    machine.bus().PokeWord(hi_sym,
                           static_cast<uint16_t>(os->firmware().apps[1].data_hi + 0x10));
  }
};

TEST(IsolationOsTest, SoftwareOnlyBlocksBothDirections) {
  IsolationRig rig;
  rig.Build(MemoryModel::kSoftwareOnly);
  uint16_t before = rig.machine.bus().PeekWord(rig.victim_global);
  ASSERT_TRUE(rig.os->Deliver(1, EventType::kButton, 0).ok());  // below attacker
  ASSERT_TRUE(rig.os->Deliver(1, EventType::kButton, 1).ok());  // above attacker
  EXPECT_EQ(rig.os->faults().size(), 2u);
  EXPECT_EQ(rig.machine.bus().PeekWord(rig.victim_global), before)
      << "victim memory must be untouched";
}

TEST(IsolationOsTest, MpuBlocksBothDirections) {
  IsolationRig rig;
  rig.Build(MemoryModel::kMpu);
  uint16_t before = rig.machine.bus().PeekWord(rig.victim_global);
  // Below the app: caught by the compiler's lower-bound check.
  ASSERT_TRUE(rig.os->Deliver(1, EventType::kButton, 0).ok());
  ASSERT_EQ(rig.os->faults().size(), 1u);
  EXPECT_FALSE(rig.os->faults()[0].from_mpu) << "lower bound is the compiler's job";
  // Above the app: caught by the MPU (segment 3 no-access).
  ASSERT_TRUE(rig.os->Deliver(1, EventType::kButton, 1).ok());
  ASSERT_EQ(rig.os->faults().size(), 2u);
  EXPECT_TRUE(rig.os->faults()[1].from_mpu) << "upper bound is MPU hardware";
  EXPECT_EQ(rig.machine.bus().PeekWord(rig.victim_global), before);
}

TEST(IsolationOsTest, NoIsolationAllowsCorruption) {
  IsolationRig rig;
  rig.Build(MemoryModel::kNoIsolation);
  ASSERT_TRUE(rig.os->Deliver(1, EventType::kButton, 0).ok());
  EXPECT_TRUE(rig.os->faults().empty());
  EXPECT_EQ(rig.machine.bus().PeekWord(rig.victim_global), 0x4141)
      << "baseline really is unprotected";
}

TEST(IsolationOsTest, StackOverflowFaultsUnderMpu) {
  // Unbounded recursion: the stack descends across the MPU boundary into the
  // app's execute-only code segment and the write faults.
  constexpr char kOverflow[] = R"(
int depth;
int burn(int n) {
  depth++;
  return burn(n + 1) + n;
}
void on_init(void) { amulet_button_subscribe(); }
void on_button(int id) { depth = 0; burn(1); }
)";
  Firmware fw = MustBuild({{"deep", kOverflow}}, MemoryModel::kMpu);
  EXPECT_FALSE(fw.apps[0].stack_statically_bounded);
  Machine machine;
  OsOptions options;
  options.fault_policy = FaultPolicy::kLogOnly;
  AmuletOs os(&machine, std::move(fw), options);
  ASSERT_TRUE(os.Boot().ok());
  ASSERT_TRUE(os.Deliver(0, EventType::kButton, 0).ok());
  ASSERT_EQ(os.faults().size(), 1u);
  EXPECT_TRUE(os.faults()[0].from_mpu);
}

// ---------------------------------------------------------------------------
// Fault policies
// ---------------------------------------------------------------------------

TEST(FaultPolicyTest, RestartResetsGlobalsAndRerunsInit) {
  constexpr char kFaulty[] = R"(
int runs;
void on_init(void) {
  runs = runs + 1;
  amulet_log_value(5, runs);
  amulet_button_subscribe();
}
void on_button(int id) {
  int* p = (int*)0x1C00;
  *p = 1;
}
)";
  Firmware fw = MustBuild({{"crashy", kFaulty}}, MemoryModel::kSoftwareOnly);
  Machine machine;
  OsOptions options;
  options.fault_policy = FaultPolicy::kRestartApp;
  AmuletOs os(&machine, std::move(fw), options);
  ASSERT_TRUE(os.Boot().ok());
  ASSERT_TRUE(os.Deliver(0, EventType::kButton, 0).ok());
  EXPECT_EQ(os.stats(0).faults, 1u);
  EXPECT_EQ(os.stats(0).restarts, 1u);
  // Globals were reset before on_init re-ran: runs is 1 both times.
  ASSERT_EQ(os.log().size(), 2u);
  EXPECT_EQ(os.log()[0].value, 1);
  EXPECT_EQ(os.log()[1].value, 1);
}

TEST(FaultPolicyTest, DisableStopsDelivery) {
  constexpr char kFaulty[] = R"(
void on_init(void) { amulet_button_subscribe(); }
void on_button(int id) {
  int* p = (int*)0x0000;
  *p = 1;
}
)";
  Firmware fw = MustBuild({{"crashy", kFaulty}}, MemoryModel::kSoftwareOnly);
  Machine machine;
  OsOptions options;
  options.fault_policy = FaultPolicy::kDisableApp;
  AmuletOs os(&machine, std::move(fw), options);
  ASSERT_TRUE(os.Boot().ok());
  ASSERT_TRUE(os.Deliver(0, EventType::kButton, 0).ok());
  EXPECT_FALSE(os.app_enabled(0));
  uint64_t dispatches = os.stats(0).dispatches;
  ASSERT_TRUE(os.Deliver(0, EventType::kButton, 0).ok());
  EXPECT_EQ(os.stats(0).dispatches, dispatches) << "disabled app gets no events";
}

// ---------------------------------------------------------------------------
// Event loop + real apps
// ---------------------------------------------------------------------------

TEST(EventLoopTest, PedometerCountsStepsWhileWalking) {
  const AppSpec& ped = [] {
    for (const AppSpec& app : AmuletAppSuite()) {
      if (app.name == "pedometer") {
        return app;
      }
    }
    return AmuletAppSuite()[0];
  }();
  Firmware fw = MustBuild({{ped.name, ped.source}}, MemoryModel::kMpu);
  Machine machine;
  AmuletOs os(&machine, std::move(fw), OsOptions{});
  ASSERT_TRUE(os.Boot().ok());
  os.sensors().set_mode(ActivityMode::kWalking);
  ASSERT_TRUE(os.RunFor(30'000).ok());  // 30 s of walking at 20 Hz
  EXPECT_TRUE(os.faults().empty());
  uint16_t steps_addr = os.firmware().image.SymbolOrZero("pedometer_g_steps");
  ASSERT_NE(steps_addr, 0);
  int steps = machine.bus().PeekWord(steps_addr);
  // ~1.8 steps/s for 30 s: expect a plausible count, not an exact one.
  EXPECT_GT(steps, 20) << "should detect most steps";
  EXPECT_LT(steps, 120) << "should not wildly overcount";
}

TEST(EventLoopTest, ClockTracksSimulatedTime) {
  const AppSpec* clock = nullptr;
  for (const AppSpec& app : AmuletAppSuite()) {
    if (app.name == "clock") {
      clock = &app;
    }
  }
  ASSERT_NE(clock, nullptr);
  Firmware fw = MustBuild({{clock->name, clock->source}}, MemoryModel::kSoftwareOnly);
  Machine machine;
  AmuletOs os(&machine, std::move(fw), OsOptions{});
  ASSERT_TRUE(os.Boot().ok());
  ASSERT_TRUE(os.RunFor(125'000).ok());
  auto display = os.display(0);
  ASSERT_EQ(display.count(1), 1u);
  EXPECT_EQ(display.at(1), 2) << "two minutes elapsed";
}

TEST(EventLoopTest, NineAppSuiteRunsConcurrently) {
  std::vector<AppSource> sources;
  for (const AppSpec& app : AmuletAppSuite()) {
    sources.push_back({app.name, app.source});
  }
  Firmware fw = MustBuild(sources, MemoryModel::kMpu);
  Machine machine;
  AmuletOs os(&machine, std::move(fw), OsOptions{});
  ASSERT_TRUE(os.Boot().ok());
  os.sensors().set_mode(ActivityMode::kWalking);
  ASSERT_TRUE(os.RunFor(10'000).ok());
  EXPECT_TRUE(os.faults().empty()) << os.StatusReport();
  // The high-rate apps must actually have run.
  const Firmware& fw_ref = os.firmware();
  for (size_t i = 0; i < fw_ref.apps.size(); ++i) {
    if (fw_ref.apps[i].name == "pedometer" || fw_ref.apps[i].name == "falldetection") {
      EXPECT_GT(os.stats(static_cast<int>(i)).dispatches, 30u) << fw_ref.apps[i].name;
    }
  }
}

TEST(EventLoopTest, ButtonDeliveredOnlyToSubscribers) {
  constexpr char kNoButton[] = R"(
void on_init(void) { }
void on_button(int id) { amulet_log_value(1, id); }
)";
  constexpr char kWithButton[] = R"(
void on_init(void) { amulet_button_subscribe(); }
void on_button(int id) { amulet_log_value(2, id); }
)";
  Firmware fw = MustBuild({{"quiet", kNoButton}, {"listener", kWithButton}},
                          MemoryModel::kMpu);
  Machine machine;
  AmuletOs os(&machine, std::move(fw), OsOptions{});
  ASSERT_TRUE(os.Boot().ok());
  ASSERT_TRUE(os.PressButton(3).ok());
  ASSERT_EQ(os.log().size(), 1u);
  EXPECT_EQ(os.log()[0].tag, 2);
  EXPECT_EQ(os.log()[0].value, 3);
}

// Every periodic source of two apps falls due at t = 1000 ms. Delivery
// goes app by app in index order; within an app, timers by id (negative ids
// first), then the accelerometer, then heart rate, whatever order the app
// subscribed in.
TEST(EventLoopTest, SameMillisecondDeliveryOrder) {
  constexpr char kFirst[] = R"(
void on_init(void) {
  amulet_hr_subscribe();
  amulet_accel_subscribe(1);
  amulet_timer_start(7, 1000);
  amulet_timer_start(-3, 1000);
}
void on_timer(int timer_id) { amulet_log_value(1, timer_id); }
void on_accel(int x, int y, int z) { amulet_log_value(2, 0); }
void on_heartrate(int bpm) { amulet_log_value(3, 0); }
)";
  constexpr char kSecond[] = R"(
void on_init(void) {
  amulet_timer_start(2, 1000);
  amulet_accel_subscribe(1);
  amulet_timer_start(-9, 1000);
  amulet_hr_subscribe();
}
void on_timer(int timer_id) { amulet_log_value(1, timer_id); }
void on_accel(int x, int y, int z) { amulet_log_value(2, 0); }
void on_heartrate(int bpm) { amulet_log_value(3, 0); }
)";
  Firmware fw = MustBuild({{"first", kFirst}, {"second", kSecond}}, MemoryModel::kMpu);
  Machine machine;
  AmuletOs os(&machine, std::move(fw), OsOptions{});
  ASSERT_TRUE(os.Boot().ok());
  ASSERT_TRUE(os.RunFor(1000).ok());
  struct Delivery {
    int app;
    uint16_t tag;
    int16_t value;
  };
  const Delivery want[] = {{0, 1, -3}, {0, 1, 7}, {0, 2, 0}, {0, 3, 0},
                           {1, 1, -9}, {1, 1, 2}, {1, 2, 0}, {1, 3, 0}};
  ASSERT_EQ(os.log().size(), std::size(want));
  for (size_t i = 0; i < std::size(want); ++i) {
    const LogEntry& got = os.log()[i];
    EXPECT_EQ(got.app_index, want[i].app) << "delivery " << i;
    EXPECT_EQ(got.tag, want[i].tag) << "delivery " << i;
    EXPECT_EQ(got.value, want[i].value) << "delivery " << i;
    EXPECT_EQ(got.at_ms, 1000u) << "delivery " << i;
  }
}

// ---------------------------------------------------------------------------
// One fault of each kind, pinned
// ---------------------------------------------------------------------------

// Each case provokes one fault with a button press and pins the record's
// kind, code, address, attribution and description, and what its fault
// policy did: fleet fault ledgers and `amuletc faults` triage are built from
// these records.
struct FaultPin {
  const char* label;
  MemoryModel model;
  const char* handler;  // body of on_button(int id)
  uint16_t button;
  FaultPolicy policy;
  FaultKind kind;
  uint16_t code;
  uint16_t addr;
  uint16_t pc;
  RegionTag scope;
  const char* description;
};

std::string PinnedApp(const char* handler) {
  return StrFormat(R"(
int buf[4];
void smash(int i) {
  int frame[2];
  frame[0] = 0;
  frame[i] = 7424;  /* 0x1d00: outside the app's code */
}
void on_init(void) {
  amulet_button_subscribe();
  amulet_log_value(100, 1);
}
void on_button(int id) { %s }
)",
                   handler);
}

TEST(FaultKindPinTest, EachKindRecordsItsPinnedFault) {
  const FaultPin pins[] = {
      {"index", MemoryModel::kFeatureLimited, "buf[id] = 1;", 9, FaultPolicy::kLogOnly,
       FaultKind::kCheckIndex, 1, 9, 0x4718, RegionTag::kApp,
       "app 'pin': array index 9 out of bounds"},
      {"memory", MemoryModel::kSoftwareOnly, "int* p = (int*)7168; *p = 1;", 0,
       FaultPolicy::kRestartApp, FaultKind::kCheckMemory, 2, 0x1c00, 0x4768, RegionTag::kApp,
       "app 'pin': pointer check failed for address 0x1c00"},
      {"return", MemoryModel::kSoftwareOnly, "smash(id);", 4, FaultPolicy::kDisableApp,
       FaultKind::kCheckReturn, 3, 0x1d00, 0x46f4, RegionTag::kApp,
       "app 'pin': corrupted return address 0x1d00"},
      {"mpu", MemoryModel::kMpu, "int* p = (int*)61440; *p = 1;", 0, FaultPolicy::kRestartApp,
       FaultKind::kMpuViolation, 0x4, 0xf000, 0x47f4, RegionTag::kApp,
       "app 'pin': MPU violation (flags 0x4) at 0xf000"},
      {"runaway", MemoryModel::kMpu, "while (id == 0) { buf[1] = buf[1] + 1; }", 0,
       FaultPolicy::kLogOnly, FaultKind::kRunaway, 0xFFFF, 0x47f0, 0x47ec, RegionTag::kApp,
       "app 'pin': runaway handler stopped at 0x47f0"},
      {"crash", MemoryModel::kNoIsolation, "void (*fn)(void) = (void (*)(void))7424; fn();", 0,
       FaultPolicy::kRestartApp, FaultKind::kCpuCrash, 0xDEAD, 0x1d00, 0x1d00, RegionTag::kOther,
       "app 'pin': CRASHED THE CPU (halt reason 3 at 0x1d00) — device reset"},
  };
  for (const FaultPin& pin : pins) {
    SCOPED_TRACE(pin.label);
    // The pcs depend on the code layout, so the check optimizer is set
    // explicitly rather than left to the AMULET_CHECK_OPT build default.
    AftOptions aft;
    aft.model = pin.model;
    aft.optimize_checks = true;
    auto fw = BuildFirmware({{"pin", PinnedApp(pin.handler)}}, aft);
    ASSERT_TRUE(fw.ok()) << fw.status().ToString();
    Machine machine;
    OsOptions options;
    options.fault_policy = pin.policy;
    AmuletOs os(&machine, std::move(*fw), options);
    ASSERT_TRUE(os.Boot().ok());
    auto result = os.Deliver(0, EventType::kButton, pin.button);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->faulted);
    ASSERT_EQ(os.faults().size(), 1u);
    const FaultRecord& fault = os.faults()[0];
    EXPECT_EQ(fault.kind, pin.kind);
    EXPECT_EQ(fault.from_mpu, pin.kind == FaultKind::kMpuViolation);
    EXPECT_EQ(fault.code, pin.code);
    EXPECT_EQ(fault.addr, pin.addr);
    EXPECT_EQ(fault.pc, pin.pc);
    EXPECT_EQ(fault.scope, pin.scope);
    EXPECT_EQ(fault.description, pin.description);
    EXPECT_EQ(os.stats(0).faults, 1u);
    int inits = 0;
    for (const LogEntry& entry : os.log()) {
      inits += entry.tag == 100 ? 1 : 0;
    }
    switch (pin.policy) {
      case FaultPolicy::kLogOnly:
        EXPECT_TRUE(os.app_enabled(0));
        EXPECT_EQ(os.stats(0).restarts, 0u);
        EXPECT_EQ(inits, 1);
        break;
      case FaultPolicy::kDisableApp:
        EXPECT_FALSE(os.app_enabled(0));
        EXPECT_EQ(os.stats(0).restarts, 0u);
        EXPECT_EQ(inits, 1);
        break;
      case FaultPolicy::kRestartApp:
        EXPECT_TRUE(os.app_enabled(0));
        EXPECT_EQ(os.stats(0).restarts, 1u);
        EXPECT_EQ(inits, 2) << "on_init re-ran";
        break;
    }
  }
}

TEST(BenchmarkAppsTest, SyntheticRunsUnderAllModels) {
  for (MemoryModel model : kAllModels) {
    const AppSpec& app = SyntheticApp();
    Firmware fw = MustBuild({{app.name, app.source}}, model);
    Machine machine;
    AmuletOs os(&machine, std::move(fw), OsOptions{});
    ASSERT_TRUE(os.Boot().ok());
    for (int button = 0; button <= 2; ++button) {
      ASSERT_TRUE(os.Deliver(0, EventType::kButton, static_cast<uint16_t>(button)).ok())
          << MemoryModelName(model);
    }
    EXPECT_TRUE(os.faults().empty()) << MemoryModelName(model);
  }
}

TEST(BenchmarkAppsTest, QuicksortSortsUnderAllModels) {
  for (MemoryModel model : kAllModels) {
    const AppSpec& app = QuicksortApp();
    Firmware fw = MustBuild({{app.name, app.source}}, model);
    Machine machine;
    AmuletOs os(&machine, std::move(fw), OsOptions{});
    ASSERT_TRUE(os.Boot().ok());
    ASSERT_TRUE(os.Deliver(0, EventType::kButton, 1).ok());
    EXPECT_TRUE(os.faults().empty()) << MemoryModelName(model);
    uint16_t ok_addr = os.firmware().image.SymbolOrZero("quicksort_g_sorted_ok");
    ASSERT_NE(ok_addr, 0);
    EXPECT_EQ(machine.bus().PeekWord(ok_addr), 1u) << MemoryModelName(model);
  }
}

TEST(BenchmarkAppsTest, ActivityCasesProduceResults) {
  const AppSpec& app = ActivityApp();
  Firmware fw = MustBuild({{app.name, app.source}}, MemoryModel::kMpu);
  Machine machine;
  AmuletOs os(&machine, std::move(fw), OsOptions{});
  ASSERT_TRUE(os.Boot().ok());
  os.sensors().set_mode(ActivityMode::kWalking);
  ASSERT_TRUE(os.RunFor(5000).ok());  // fill windows with accel data
  ASSERT_TRUE(os.Deliver(0, EventType::kButton, 1).ok());
  ASSERT_TRUE(os.Deliver(0, EventType::kButton, 2).ok());
  EXPECT_TRUE(os.faults().empty());
  EXPECT_EQ(os.log().size(), 2u);
}

// Context-switch cost ordering (Table 1's second row, as a coarse invariant).
TEST(CostShapeTest, ContextSwitchCosts) {
  std::map<MemoryModel, uint64_t> cost;
  for (MemoryModel model : kAllModels) {
    const AppSpec& app = SyntheticApp();
    Firmware fw = MustBuild({{app.name, app.source}}, model);
    Machine machine;
    OsOptions options;
    options.fram_wait_states = 1;
    AmuletOs os(&machine, std::move(fw), options);
    ASSERT_TRUE(os.Boot().ok());
    auto r = os.Deliver(0, EventType::kButton, 2);  // 512 API calls
    ASSERT_TRUE(r.ok());
    cost[model] = r->cycles;
  }
  EXPECT_EQ(cost[MemoryModel::kNoIsolation], cost[MemoryModel::kFeatureLimited])
      << "both use the shared stack and no MPU";
  EXPECT_GT(cost[MemoryModel::kSoftwareOnly], cost[MemoryModel::kNoIsolation])
      << "per-app stacks add switch cost";
  EXPECT_GT(cost[MemoryModel::kMpu], cost[MemoryModel::kSoftwareOnly])
      << "MPU reconfiguration dominates (paper: 142 vs 98)";
}

TEST(CostShapeTest, MemoryAccessCosts) {
  // Measured at zero FRAM wait states: isolates the inserted check cost from
  // the FRAM-stack traffic amplification of our naive (slot-based) codegen.
  // See EXPERIMENTS.md, Table 1 discussion.
  std::map<MemoryModel, uint64_t> cost;
  for (MemoryModel model : kAllModels) {
    const AppSpec& app = SyntheticApp();
    // The synthetic app's masked index is provably in bounds, so phase 2.5
    // would elide every check; this test measures the per-check cost shape.
    AftOptions aft;
    aft.model = model;
    aft.optimize_checks = false;
    auto built = BuildFirmware({{app.name, app.source}}, aft);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    Firmware fw = std::move(*built);
    Machine machine;
    OsOptions options;
    options.fram_wait_states = 0;
    AmuletOs os(&machine, std::move(fw), options);
    ASSERT_TRUE(os.Boot().ok());
    auto r = os.Deliver(0, EventType::kButton, 1);  // 512 checked accesses
    ASSERT_TRUE(r.ok());
    cost[model] = r->cycles;
  }
  EXPECT_GT(cost[MemoryModel::kMpu], cost[MemoryModel::kNoIsolation]) << "one check";
  EXPECT_GT(cost[MemoryModel::kSoftwareOnly], cost[MemoryModel::kMpu]) << "two checks";
  EXPECT_GT(cost[MemoryModel::kFeatureLimited], cost[MemoryModel::kSoftwareOnly])
      << "routine-call bounds check is the most expensive (Table 1: 41)";
}

}  // namespace
}  // namespace amulet
