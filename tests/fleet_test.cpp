// Fleet subsystem tests: machine snapshot round-trips, snapshot-based OS
// cloning vs a fresh boot, executor correctness, and thread-count-independent
// fleet determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/aft/aft.h"
#include "src/apps/app_sources.h"
#include "src/fleet/checkpoint.h"
#include "src/fleet/device.h"
#include "src/fleet/executor.h"
#include "src/fleet/fleet.h"
#include "src/mcu/machine.h"
#include "src/mcu/snapshot.h"
#include "src/os/os.h"

namespace amulet {
namespace {

constexpr char kTickerApp[] = R"(
int ticks;
void on_init(void) {
  ticks = 0;
  amulet_timer_start(0, 100);
  amulet_accel_subscribe(10);
}
void on_timer(int timer_id) {
  ticks = ticks + 1;
  amulet_display_digits(0, ticks);
}
void on_accel(int x, int y, int z) {
  amulet_log_value(1, x + y + z);
}
)";

Firmware MustBuild(MemoryModel model) {
  AftOptions options;
  options.model = model;
  auto fw = BuildFirmware({{"ticker", kTickerApp}}, options);
  EXPECT_TRUE(fw.ok()) << fw.status().ToString();
  return std::move(*fw);
}

TEST(SnapshotTest, RoundTripPreservesMachineState) {
  Firmware fw = MustBuild(MemoryModel::kMpu);
  Machine machine;
  AmuletOs os(&machine, fw, OsOptions{});
  ASSERT_TRUE(os.Boot().ok());

  MachineSnapshot snapshot = CaptureSnapshot(machine);
  EXPECT_GT(snapshot.bytes.size(), 0x10000u);  // at least the memory image

  Machine restored;
  ASSERT_TRUE(RestoreSnapshot(snapshot, &restored).ok());
  EXPECT_EQ(restored.cpu().cycle_count(), machine.cpu().cycle_count());
  EXPECT_EQ(restored.cpu().instruction_count(), machine.cpu().instruction_count());
  EXPECT_EQ(restored.cpu().pc(), machine.cpu().pc());
  EXPECT_EQ(restored.timer().now_cycles(), machine.timer().now_cycles());
  EXPECT_EQ(restored.hostio().syscall_count(), machine.hostio().syscall_count());
  EXPECT_EQ(restored.puc_count(), machine.puc_count());
  for (uint32_t addr = 0; addr < 0x10000; ++addr) {
    if (restored.bus().PeekByte(static_cast<uint16_t>(addr)) !=
        machine.bus().PeekByte(static_cast<uint16_t>(addr))) {
      FAIL() << "memory differs at address " << addr;
    }
  }

  // Capturing the restored machine reproduces the snapshot bit-for-bit.
  MachineSnapshot again = CaptureSnapshot(restored);
  EXPECT_EQ(again.bytes, snapshot.bytes);
}

TEST(SnapshotTest, RejectsCorruptInput) {
  Machine machine;
  MachineSnapshot snapshot = CaptureSnapshot(machine);

  MachineSnapshot bad_magic = snapshot;
  bad_magic.bytes[0] ^= 0xFF;
  Machine victim;
  EXPECT_FALSE(RestoreSnapshot(bad_magic, &victim).ok());

  MachineSnapshot bad_version = snapshot;
  bad_version.bytes[4] = 0x7F;
  EXPECT_FALSE(RestoreSnapshot(bad_version, &victim).ok());

  MachineSnapshot truncated = snapshot;
  truncated.bytes.resize(truncated.bytes.size() / 2);
  EXPECT_FALSE(RestoreSnapshot(truncated, &victim).ok());

  MachineSnapshot trailing = snapshot;
  trailing.bytes.push_back(0);
  EXPECT_FALSE(RestoreSnapshot(trailing, &victim).ok());

  MachineSnapshot empty;
  EXPECT_FALSE(RestoreSnapshot(empty, &victim).ok());
}

// Runs `m` as a bare machine for `cycles` simulated cycles: a STOP (a
// syscall with no OS behind it) is acknowledged and the run goes on; a halt
// ends it.
void RunBare(Machine* m, uint64_t cycles) {
  uint64_t spent = 0;
  while (spent < cycles) {
    const Cpu::RunOutcome out = m->Run(cycles - spent);
    spent += out.cycles;
    if (out.result != StepResult::kStopped) {
      return;
    }
    m->ClearStop();
  }
}

// Seeded mutants of a booted template's snapshot (which carries no
// checksum): byte edits biased toward the section headers and device state
// around the memory image, huge lengths stamped in, truncation and trailing
// bytes. RestoreSnapshot accepts or rejects each one and never crashes, and
// an accepted snapshot runs 200,000 cycles on the fast core and on the
// interpreter to byte-identical end snapshots.
TEST(SnapshotTest, SeededMutantsRestoreOrFailAndRunAlikeOnBothCores) {
  Firmware fw = MustBuild(MemoryModel::kMpu);
  Machine booted;
  AmuletOs os(&booted, fw, OsOptions{});
  ASSERT_TRUE(os.Boot().ok());
  const MachineSnapshot snapshot = CaptureSnapshot(booted);
  const size_t size = snapshot.bytes.size();
  std::mt19937 rng(0x5A45);
  // Everything but the 64 KB memory image sits in the first and last ~100
  // bytes; aim most edits there.
  auto pick = [&]() -> size_t {
    switch (rng() % 4) {
      case 0:
      case 1:
        return rng() % 64;
      case 2:
        return size - 1 - rng() % 256;
      default:
        return rng() % size;
    }
  };
  int accepted = 0;
  for (int mutant_index = 0; mutant_index < 300; ++mutant_index) {
    MachineSnapshot mutant = snapshot;
    std::vector<uint8_t>& bytes = mutant.bytes;
    for (int e = 1 + static_cast<int>(rng() % 3); e > 0; --e) {
      switch (rng() % 5) {
        case 0: {
          const uint32_t huge = rng() % 2 == 0 ? 0xFFFFFFF0u : 0x7FFFFFFFu;
          std::memcpy(bytes.data() + std::min(pick(), bytes.size() - 4), &huge, 4);
          break;
        }
        case 1:
          bytes.resize(bytes.size() - 1 - rng() % 16);
          break;
        case 2:
          bytes.push_back(static_cast<uint8_t>(rng()));
          break;
        default:
          bytes[std::min(pick(), bytes.size() - 1)] ^= static_cast<uint8_t>(1 + rng() % 255);
          break;
      }
    }
    Machine fast;
    Machine slow;
    const Status restored = RestoreSnapshot(mutant, &fast);
    ASSERT_EQ(restored.ok(), RestoreSnapshot(mutant, &slow).ok()) << "mutant " << mutant_index;
    if (!restored.ok()) {
      continue;
    }
    ++accepted;
    fast.cpu().set_predecode(true);
    slow.cpu().set_predecode(false);
    RunBare(&fast, 200'000);
    RunBare(&slow, 200'000);
    ASSERT_EQ(CaptureSnapshot(fast).bytes, CaptureSnapshot(slow).bytes)
        << "mutant " << mutant_index << " ran differently on the two cores";
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 300);
}

// A device cloned from a boot snapshot must behave exactly like the device
// the snapshot was taken from: same dispatch outcomes, same cycle counts.
TEST(SnapshotTest, CloneMatchesFreshBoot) {
  Firmware fw = MustBuild(MemoryModel::kMpu);
  OsOptions options;
  options.sensor_seed = 77;

  Machine fresh_machine;
  AmuletOs fresh(&fresh_machine, fw, options);
  ASSERT_TRUE(fresh.Boot().ok());
  MachineSnapshot snapshot = CaptureSnapshot(fresh_machine);

  Machine cloned_machine;
  AmuletOs cloned(&cloned_machine, fw, options);
  ASSERT_TRUE(cloned.BootFromSnapshot(snapshot, fresh).ok());
  EXPECT_EQ(cloned_machine.cpu().cycle_count(), fresh_machine.cpu().cycle_count());

  // Drive both through the same simulated timeline.
  ASSERT_TRUE(fresh.RunFor(3000).ok());
  ASSERT_TRUE(cloned.RunFor(3000).ok());
  EXPECT_EQ(cloned_machine.cpu().cycle_count(), fresh_machine.cpu().cycle_count());
  EXPECT_EQ(cloned_machine.hostio().syscall_count(), fresh_machine.hostio().syscall_count());
  EXPECT_EQ(cloned.stats(0).dispatches, fresh.stats(0).dispatches);
  EXPECT_EQ(cloned.stats(0).cycles, fresh.stats(0).cycles);
  EXPECT_EQ(cloned.stats(0).syscalls, fresh.stats(0).syscalls);
  EXPECT_EQ(cloned.stats(0).faults, fresh.stats(0).faults);
  EXPECT_EQ(cloned.display(0), fresh.display(0));
  EXPECT_EQ(cloned.log().size(), fresh.log().size());
}

TEST(SnapshotTest, BootFromSnapshotRequiresBootedTemplate) {
  Firmware fw = MustBuild(MemoryModel::kMpu);
  Machine m1;
  AmuletOs not_booted(&m1, fw, OsOptions{});
  MachineSnapshot snapshot = CaptureSnapshot(m1);
  Machine m2;
  AmuletOs clone(&m2, fw, OsOptions{});
  EXPECT_FALSE(clone.BootFromSnapshot(snapshot, not_booted).ok());
}

// One executor serving repeated ParallelFor calls, the way a campaign runs
// its stages.
TEST(ExecutorTest, RunsEverySubmittedTask) {
  Executor executor(4);
  EXPECT_EQ(executor.thread_count(), 4);
  std::atomic<int> counter{0};
  for (int round = 1; round <= 10; ++round) {
    executor.ParallelFor(250, [&counter](size_t) {
      counter.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(counter.load(), 250 * round);
  }
}

TEST(ExecutorTest, ParallelForCoversEveryIndexOnce) {
  Executor executor(8);
  std::vector<int> hits(513, 0);
  executor.ParallelFor(hits.size(), [&hits](size_t i) { hits[i] += 1; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ExecutorTest, EmptyRangeRunsNothing) {
  Executor executor(4);
  std::atomic<int> calls{0};
  executor.ParallelFor(0, [&calls](size_t) { calls.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ExecutorTest, FewerIndicesThanThreads) {
  Executor executor(8);
  std::vector<int> hits(3, 0);
  executor.ParallelFor(hits.size(), [&hits](size_t i) { hits[i] += 1; });
  EXPECT_EQ(hits, std::vector<int>({1, 1, 1}));
}

// jobs == 1 is the same loop run inline: every body on the calling thread,
// in index order.
TEST(ExecutorTest, OneThreadRunsInlineInOrder) {
  Executor executor(1);
  EXPECT_EQ(executor.thread_count(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  executor.ParallelFor(5, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, std::vector<size_t>({0, 1, 2, 3, 4}));
}

FleetConfig SmallFleet(int jobs) {
  FleetConfig config;
  config.device_count = 8;
  config.apps = {"pedometer", "clock"};
  config.model = MemoryModel::kMpu;
  config.fleet_seed = 0xF1EE7;
  config.sim_ms = 500;
  config.jobs = jobs;
  return config;
}

TEST(FleetTest, DeterministicAcrossThreadCounts) {
  auto serial = RunFleet(SmallFleet(1));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  EXPECT_EQ(serial->devices.size(), 8u);
  EXPECT_GT(serial->aggregate.total_cycles, 0u);
  EXPECT_GT(serial->aggregate.total_data_accesses, 0u);
  EXPECT_GT(serial->aggregate.total_dispatches, 0u);

  const std::string serial_digest = FleetDigest(*serial);
  for (int jobs : {4, 8}) {
    auto parallel = RunFleet(SmallFleet(jobs));
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(FleetDigest(*parallel), serial_digest) << "jobs=" << jobs;
  }
}

// A cohort booted the way fleets and campaigns boot theirs.
std::unique_ptr<fleet_internal::CohortRuntime> MustBootCohort(const FleetConfig& config) {
  Cohort cohort;
  cohort.model = config.model;
  cohort.apps = config.apps;
  auto runtime = fleet_internal::BootCohort(cohort, config);
  EXPECT_TRUE(runtime.ok()) << runtime.status().ToString();
  return runtime.ok() ? std::move(*runtime) : nullptr;
}

TEST(FleetTest, ClonesShareTheTemplateFirmware) {
  const FleetConfig config = SmallFleet(1);
  const auto runtime = MustBootCohort(config);
  ASSERT_NE(runtime, nullptr);
  for (int id : {0, 1}) {
    auto device = runtime->Clone(fleet_internal::DeviceSeed(config.fleet_seed, id), config);
    ASSERT_TRUE(device.ok()) << device.status().ToString();
    EXPECT_EQ(&(*device)->os().firmware(), &runtime->os->firmware()) << "device " << id;
  }
}

TEST(FleetTest, CloneRejectsFirmwareOfAnotherAppCount) {
  const FleetConfig config = SmallFleet(1);
  const auto runtime = MustBootCohort(config);
  ASSERT_NE(runtime, nullptr);
  const Firmware other = MustBuild(MemoryModel::kMpu);  // one app, not two
  auto device = fleet_internal::ClonedDevice::Clone(1, config.fram_wait_states, other,
                                                    runtime->snapshot, *runtime->os);
  EXPECT_EQ(device.status().code(), StatusCode::kInvalidArgument);
}

// Clones of one cohort share its firmware across threads: 64 devices cloned
// and run on four executor threads must give exactly the serial rows. The
// crasher app makes every device take the fault and restart paths, which
// read the shared firmware.
TEST(FleetTest, ParallelClonesOfOneCohortMatchSerialRun) {
  FleetConfig config = SmallFleet(4);
  config.apps = {"pedometer", "clock", "crasher"};
  const auto runtime = MustBootCohort(config);
  ASSERT_NE(runtime, nullptr);
  constexpr size_t kDevices = 64;
  auto run_all = [&](int threads) {
    std::vector<DeviceStats> rows(kDevices);
    std::vector<Status> status(kDevices);
    Executor(threads).ParallelFor(kDevices, [&](size_t i) {
      const int id = static_cast<int>(i);
      auto device = runtime->Clone(fleet_internal::DeviceSeed(config.fleet_seed, id), config);
      if (!device.ok()) {
        status[i] = device.status();
        return;
      }
      rows[i].device_id = id;
      FaultLedger ledger;
      status[i] = (*device)->Run(config.sim_ms, runtime->regions, &rows[i], &ledger);
    });
    for (size_t i = 0; i < kDevices; ++i) {
      EXPECT_TRUE(status[i].ok()) << "device " << i << ": " << status[i].ToString();
    }
    return rows;
  };
  const std::vector<DeviceStats> serial = run_all(1);
  const std::vector<DeviceStats> parallel = run_all(4);
  uint64_t faults = 0;
  for (size_t i = 0; i < kDevices; ++i) {
    EXPECT_EQ(parallel[i].device_id, serial[i].device_id);
    for (const fleet_internal::DeviceCounter& c : fleet_internal::kDeviceCounters) {
      EXPECT_EQ(parallel[i].*c.stat, serial[i].*c.stat) << "device " << i << " " << c.name;
    }
    faults += serial[i].faults;
  }
  EXPECT_GE(faults, kDevices);
}

TEST(FleetTest, SeedChangesResults) {
  FleetConfig config = SmallFleet(2);
  auto a = RunFleet(config);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  config.fleet_seed ^= 1;
  auto b = RunFleet(config);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_NE(FleetDigest(*a), FleetDigest(*b));
}

TEST(FleetTest, DevicesDifferWithinAFleet) {
  auto report = RunFleet(SmallFleet(2));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Per-device seeds give devices distinct sensor streams; at least two of
  // the eight devices should disagree on measured cycles.
  bool any_difference = false;
  for (const DeviceStats& d : report->devices) {
    if (d.cycles != report->devices[0].cycles) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(FleetTest, MetricsBitIdenticalAcrossThreadCounts) {
  auto serial = RunFleet(SmallFleet(1));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  EXPECT_FALSE(serial->metrics.empty());
  EXPECT_EQ(serial->metrics.counter("fleet.devices"), 8u);
  const std::string serial_json = serial->metrics.ToJson();
  for (int jobs : {4, 8}) {
    auto parallel = RunFleet(SmallFleet(jobs));
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(parallel->metrics.ToJson(), serial_json) << "jobs=" << jobs;
  }
}

TEST(FleetTest, StreamingModeDropsDeviceRowsButKeepsTotals) {
  FleetConfig retained_config = SmallFleet(2);
  auto retained = RunFleet(retained_config);
  ASSERT_TRUE(retained.ok()) << retained.status().ToString();

  FleetConfig streaming_config = SmallFleet(2);
  streaming_config.retain_device_stats = false;
  auto streaming = RunFleet(streaming_config);
  ASSERT_TRUE(streaming.ok()) << streaming.status().ToString();

  EXPECT_TRUE(streaming->devices.empty());
  EXPECT_EQ(streaming->metrics.ToJson(), retained->metrics.ToJson());
  // Totals and count/min/max/mean come from exact integer state either way;
  // only the streaming quantiles are bucket-midpoint approximations.
  EXPECT_EQ(streaming->aggregate.total_cycles, retained->aggregate.total_cycles);
  EXPECT_EQ(streaming->aggregate.total_data_accesses,
            retained->aggregate.total_data_accesses);
  EXPECT_GT(streaming->aggregate.total_data_accesses, 0u);
  EXPECT_EQ(streaming->aggregate.total_syscalls, retained->aggregate.total_syscalls);
  EXPECT_EQ(streaming->aggregate.total_dispatches, retained->aggregate.total_dispatches);
  EXPECT_EQ(streaming->aggregate.total_faults, retained->aggregate.total_faults);
  EXPECT_EQ(streaming->aggregate.total_pucs, retained->aggregate.total_pucs);
  EXPECT_EQ(streaming->aggregate.cycles.count, retained->aggregate.cycles.count);
  EXPECT_DOUBLE_EQ(streaming->aggregate.cycles.min, retained->aggregate.cycles.min);
  EXPECT_DOUBLE_EQ(streaming->aggregate.cycles.max, retained->aggregate.cycles.max);
  EXPECT_DOUBLE_EQ(streaming->aggregate.cycles.mean, retained->aggregate.cycles.mean);
}

// The streaming-aggregation memory contract at fleet scale: the merged
// registry for 10,000 devices is byte-for-byte the same size as for 100.
// (Simulating 10k devices is far too slow for a unit test; what the fleet
// merges per device is exactly one registry shaped like this one, so merging
// synthetic registries exercises the same code path and representation.)
TEST(FleetTest, MetricsMemoryIndependentOfDeviceCount) {
  auto device_registry = [](int device_id) {
    // Mirrors RecordDeviceMetrics in src/fleet/fleet.cc: same counter and
    // histogram names, device-dependent values.
    const uint64_t id = static_cast<uint64_t>(device_id);
    MetricRegistry m;
    m.Add("fleet.devices", 1);
    m.Add("fleet.cycles", 100'000 + id * 31);
    m.Add("fleet.data_accesses", 4'000 + id * 7);
    m.Add("fleet.syscalls", 120 + id % 13);
    m.Add("fleet.dispatches", 60 + id % 5);
    m.Add("fleet.faults", id % 3);
    m.Add("fleet.pucs", id % 2);
    m.Add("fleet.watchdog_resets", id % 4);
    m.Observe("device.cycles", 100'000 + id * 31);
    m.Observe("device.data_accesses", 4'000 + id * 7);
    m.Observe("device.syscalls", 120 + id % 13);
    m.Observe("device.dispatches", 60 + id % 5);
    m.Observe("device.faults", id % 3);
    m.Observe("device.pucs", id % 2);
    m.Observe("device.watchdog_resets", id % 4);
    m.Observe("device.battery_upct", 50'000 + id * 11);
    return m;
  };

  MetricRegistry small;
  for (int i = 0; i < 100; ++i) {
    small.Merge(device_registry(i));
  }
  const size_t bytes_at_100 = small.ApproxBytes();

  MetricRegistry large;
  for (int i = 0; i < 10'000; ++i) {
    large.Merge(device_registry(i));
  }
  EXPECT_EQ(large.ApproxBytes(), bytes_at_100);
  EXPECT_EQ(large.counter("fleet.devices"), 10'000u);
  ASSERT_NE(large.histogram("device.cycles"), nullptr);
  EXPECT_EQ(large.histogram("device.cycles")->count, 10'000u);
}

TEST(FleetTest, UnknownAppIsRejected) {
  FleetConfig config = SmallFleet(1);
  config.apps = {"no_such_app"};
  auto report = RunFleet(config);
  EXPECT_FALSE(report.ok());
}

TEST(FleetTest, RenderedReportMentionsConfiguration) {
  auto report = RunFleet(SmallFleet(2));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const std::string text = RenderFleetReport(*report);
  EXPECT_NE(text.find("8 device(s)"), std::string::npos) << text;
  EXPECT_NE(text.find("pedometer"), std::string::npos) << text;
  EXPECT_NE(text.find("battery impact"), std::string::npos) << text;
  EXPECT_NE(text.find("data accesses"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Fleet checkpoints

FleetCheckpoint SampleCheckpoint() {
  FleetCheckpoint cp;
  cp.config_hash = FleetConfigHash(SmallFleet(1), 0xF00DF00Dull);
  cp.config_text = FleetConfigCanonical(SmallFleet(1), 0xF00DF00Dull);
  Machine machine;
  cp.template_snapshot = CaptureSnapshot(machine);
  cp.metrics.Add("fleet.devices", 2);
  cp.metrics.Observe("device.cycles", 12345);
  cp.device_count = 4;
  cp.completed = {true, false, true, false};
  DeviceStats d0;
  d0.device_id = 0;
  d0.cycles = 111;
  d0.data_accesses = 7;
  d0.battery_impact_percent = 0.5;
  DeviceStats d2;
  d2.device_id = 2;
  d2.cycles = 222;
  d2.pucs = 3;
  cp.devices = {d0, d2};
  return cp;
}

TEST(CheckpointTest, EncodeDecodeRoundTrip) {
  const FleetCheckpoint cp = SampleCheckpoint();
  const std::vector<uint8_t> bytes = EncodeFleetCheckpoint(cp);
  auto decoded = DecodeFleetCheckpoint(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->config_hash, cp.config_hash);
  EXPECT_EQ(decoded->config_text, cp.config_text);
  EXPECT_EQ(decoded->template_snapshot.bytes, cp.template_snapshot.bytes);
  EXPECT_EQ(decoded->metrics.ToJson(), cp.metrics.ToJson());
  EXPECT_EQ(decoded->device_count, 4);
  EXPECT_EQ(decoded->completed, cp.completed);
  EXPECT_EQ(decoded->CompletedCount(), 2);
  ASSERT_EQ(decoded->devices.size(), 2u);
  EXPECT_EQ(decoded->devices[0].data_accesses, 7u);
  EXPECT_EQ(decoded->devices[1].cycles, 222u);
  EXPECT_DOUBLE_EQ(decoded->devices[0].battery_impact_percent, 0.5);
}

// Satellite of the resume work: feeding back damaged checkpoint bytes must
// fail with InvalidArgumentError in every case — never crash, never
// half-apply.
TEST(CheckpointTest, DecodeRejectsCorruptInput) {
  const std::vector<uint8_t> bytes = EncodeFleetCheckpoint(SampleCheckpoint());
  auto expect_invalid = [](std::vector<uint8_t> damaged, const char* what) {
    auto decoded = DecodeFleetCheckpoint(damaged);
    EXPECT_FALSE(decoded.ok()) << what;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument) << what;
  };

  std::vector<uint8_t> bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  expect_invalid(bad_magic, "bad magic");

  std::vector<uint8_t> bad_version = bytes;
  bad_version[4] = 0x7F;
  expect_invalid(bad_version, "unknown version");

  expect_invalid({}, "empty");

  std::vector<uint8_t> trailing = bytes;
  trailing.push_back(0);
  expect_invalid(trailing, "trailing bytes");

  for (size_t len : {bytes.size() - 1, bytes.size() / 2, size_t{9}, size_t{1}}) {
    std::vector<uint8_t> truncated = bytes;
    truncated.resize(len);
    expect_invalid(truncated, "truncated");
  }

  // A stats row for a device the bitmap says never completed.
  FleetCheckpoint contradictory = SampleCheckpoint();
  contradictory.completed[0] = false;
  expect_invalid(EncodeFleetCheckpoint(contradictory), "row without completed bit");

  // A stats row naming a device id outside the fleet.
  FleetCheckpoint out_of_range = SampleCheckpoint();
  out_of_range.devices[1].device_id = 9;
  expect_invalid(EncodeFleetCheckpoint(out_of_range), "out-of-range device id");
}

TEST(CheckpointTest, WriteAndReadBack) {
  const std::string path = "fleet_ckpt_rw_test.bin";
  std::remove(path.c_str());
  const FleetCheckpoint cp = SampleCheckpoint();
  ASSERT_TRUE(WriteFleetCheckpoint(path, cp).ok());
  // The atomic write leaves no temp file behind.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) {
    std::fclose(tmp);
  }
  auto back = ReadFleetCheckpoint(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->config_hash, cp.config_hash);
  EXPECT_EQ(back->CompletedCount(), 2);

  EXPECT_EQ(ReadFleetCheckpoint("no_such_checkpoint.bin").status().code(),
            StatusCode::kNotFound);

  // On-disk corruption surfaces as InvalidArgument, not a crash.
  std::FILE* junk = std::fopen(path.c_str(), "wb");
  ASSERT_NE(junk, nullptr);
  std::fputs("not a checkpoint", junk);
  std::fclose(junk);
  EXPECT_EQ(ReadFleetCheckpoint(path).status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Fail-fast and resume

// A failing device must cancel the run instead of letting the rest of the
// fleet simulate first. The serial run is exactly reproducible: devices 0 and
// 1 complete, device 2 fails, devices 3..7 are never simulated — which the
// checkpoint's completed bitmap proves.
TEST(FleetTest, FailedDeviceCancelsRemainingDevices) {
  const std::string path = "fleet_ckpt_failfast.bin";
  std::remove(path.c_str());
  FleetConfig config = SmallFleet(1);
  config.checkpoint_path = path;
  config.checkpoint_every_devices = 1;
  config.fail_device_id = 2;
  auto report = RunFleet(config);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInternal);
  EXPECT_NE(report.status().message().find("device 2"), std::string::npos)
      << report.status().ToString();

  auto cp = ReadFleetCheckpoint(path);
  ASSERT_TRUE(cp.ok()) << cp.status().ToString();
  EXPECT_EQ(cp->CompletedCount(), 2);

  // The checkpoint written on the error path is a valid resume point once
  // the injected failure is removed.
  FleetConfig retry = SmallFleet(1);
  retry.checkpoint_path = path;
  auto resumed = ResumeFleet(retry);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->resumed_devices, 2);

  auto baseline = RunFleet(SmallFleet(1));
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(FleetDigest(*resumed), FleetDigest(*baseline));
  std::remove(path.c_str());
}

TEST(FleetTest, FailedDeviceCancelsParallelRun) {
  FleetConfig config = SmallFleet(4);
  config.fail_device_id = 0;
  auto report = RunFleet(config);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInternal);
}

// The tentpole acceptance: kill a run after K devices, resume from the
// checkpoint at several thread counts, and get a FleetDigest byte-identical
// to the uninterrupted run.
TEST(FleetTest, ResumeAfterAbortReproducesDigest) {
  auto baseline = RunFleet(SmallFleet(1));
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const std::string digest = FleetDigest(*baseline);

  for (int resume_jobs : {1, 4}) {
    const std::string path = "fleet_ckpt_resume_" + std::to_string(resume_jobs) + ".bin";
    std::remove(path.c_str());
    FleetConfig interrupted = SmallFleet(1);
    interrupted.checkpoint_path = path;
    interrupted.checkpoint_every_devices = 1;
    interrupted.abort_after_devices = 3;
    auto aborted = RunFleet(interrupted);
    ASSERT_FALSE(aborted.ok());
    EXPECT_EQ(aborted.status().code(), StatusCode::kCancelled)
        << aborted.status().ToString();

    FleetConfig resume_config = SmallFleet(resume_jobs);
    resume_config.checkpoint_path = path;
    auto resumed = ResumeFleet(resume_config);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(resumed->resumed_devices, 3);
    EXPECT_EQ(FleetDigest(*resumed), digest) << "jobs=" << resume_jobs;

    // The final checkpoint now covers the whole fleet; resuming again is a
    // no-op that re-yields the identical report.
    auto again = ResumeFleet(resume_config);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again->resumed_devices, 8);
    EXPECT_EQ(FleetDigest(*again), digest);
    std::remove(path.c_str());
  }
}

TEST(FleetTest, StreamingModeResumeMatchesUninterrupted) {
  FleetConfig streaming = SmallFleet(1);
  streaming.retain_device_stats = false;
  auto baseline = RunFleet(streaming);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  const std::string path = "fleet_ckpt_streaming.bin";
  std::remove(path.c_str());
  FleetConfig interrupted = streaming;
  interrupted.checkpoint_path = path;
  interrupted.checkpoint_every_devices = 1;
  interrupted.abort_after_devices = 4;
  EXPECT_EQ(RunFleet(interrupted).status().code(), StatusCode::kCancelled);

  FleetConfig resume_config = streaming;
  resume_config.checkpoint_path = path;
  auto resumed = ResumeFleet(resume_config);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->devices.empty());
  EXPECT_EQ(resumed->resumed_devices, 4);
  EXPECT_EQ(FleetDigest(*resumed), FleetDigest(*baseline));
  std::remove(path.c_str());
}

TEST(FleetTest, ResumeValidatesConfigAndPath) {
  const std::string path = "fleet_ckpt_mismatch.bin";
  std::remove(path.c_str());
  FleetConfig interrupted = SmallFleet(1);
  interrupted.checkpoint_path = path;
  interrupted.checkpoint_every_devices = 1;
  interrupted.abort_after_devices = 2;
  ASSERT_EQ(RunFleet(interrupted).status().code(), StatusCode::kCancelled);

  FleetConfig wrong_seed = SmallFleet(1);
  wrong_seed.checkpoint_path = path;
  wrong_seed.fleet_seed ^= 1;
  EXPECT_EQ(ResumeFleet(wrong_seed).status().code(), StatusCode::kInvalidArgument);

  FleetConfig wrong_count = SmallFleet(1);
  wrong_count.checkpoint_path = path;
  wrong_count.device_count = 9;
  EXPECT_EQ(ResumeFleet(wrong_count).status().code(), StatusCode::kInvalidArgument);

  FleetConfig no_path = SmallFleet(1);
  EXPECT_EQ(ResumeFleet(no_path).status().code(), StatusCode::kInvalidArgument);

  FleetConfig missing = SmallFleet(1);
  missing.checkpoint_path = "definitely_missing_checkpoint.bin";
  EXPECT_EQ(ResumeFleet(missing).status().code(), StatusCode::kNotFound);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace amulet
