// Fault-forensics coverage: structured FaultRecord parity across every
// memory model and both simulator cores, FaultLedger merge algebra and
// digest determinism, the v4 checkpoint ledger section, and ledger identity
// across fleet thread counts and kill/resume.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/aft/aft.h"
#include "src/common/binio.h"
#include "src/fleet/checkpoint.h"
#include "src/fleet/fault_ledger.h"
#include "src/fleet/fleet.h"
#include "src/mcu/machine.h"
#include "src/os/os.h"
#include "src/scope/flight_recorder.h"

namespace amulet {
namespace {

// One out-of-bounds array store, index supplied at runtime (the compiler
// rejects constant OOB indexes outright). The same app compiles under all
// four models, including FeatureLimited — no pointers, no recursion.
constexpr char kOobApp[] = R"(
int buf[4];
void on_init(void) { amulet_button_subscribe(); }
void on_button(int id) { buf[id] = 16705; }
)";

// The write target: above every app region, so the MPU model reaches the
// hardware fault (the compiler's MPU-model lower-bound check only guards
// below) — the same address the fault_injection example uses for its
// "wild write ABOVE the app" scenario.
constexpr uint16_t kTarget = 0xF000;

struct OobRun {
  Machine machine;
  std::unique_ptr<AmuletOs> os;
  FlightRecorder flight;
  uint16_t index = 0;

  void Fire(MemoryModel model, bool predecode) {
    AftOptions options;
    options.model = model;
    auto fw = BuildFirmware({{"oob", kOobApp}}, options);
    ASSERT_TRUE(fw.ok()) << fw.status().ToString();
    const uint16_t buf_addr = fw->image.SymbolOrZero("oob_g_buf");
    ASSERT_NE(buf_addr, 0u);
    ASSERT_EQ(buf_addr % 2, 0u);
    machine.cpu().set_predecode(predecode);
    os = std::make_unique<AmuletOs>(&machine, std::move(*fw), OsOptions{});
    os->AttachFlightRecorder(&flight);
    ASSERT_TRUE(os->Boot().ok());
    // buf[index] resolves to exactly kTarget; under FeatureLimited the
    // index is simply (far) out of bounds.
    index = static_cast<uint16_t>(((kTarget - buf_addr) & 0xFFFF) / 2);
    ASSERT_GE(index, 4u);
    ASSERT_TRUE(os->Deliver(0, EventType::kButton, index).ok());
  }
};

void ExpectRecordsEqual(const FaultRecord& fast, const FaultRecord& slow) {
  EXPECT_EQ(fast.app_index, slow.app_index);
  EXPECT_EQ(fast.from_mpu, slow.from_mpu);
  EXPECT_EQ(fast.code, slow.code);
  EXPECT_EQ(fast.addr, slow.addr);
  EXPECT_EQ(fast.at_cycles, slow.at_cycles);
  EXPECT_EQ(fast.description, slow.description);
  EXPECT_EQ(fast.kind, slow.kind);
  EXPECT_EQ(fast.pc, slow.pc);
  EXPECT_EQ(fast.scope, slow.scope);
  EXPECT_EQ(fast.regs, slow.regs);
  EXPECT_EQ(fast.call_stack, slow.call_stack);
  EXPECT_EQ(fast.recent_pcs, slow.recent_pcs);
  ASSERT_EQ(fast.flight.size(), slow.flight.size());
  for (size_t i = 0; i < fast.flight.size(); ++i) {
    EXPECT_TRUE(fast.flight[i] == slow.flight[i]) << "flight event " << i;
  }
}

// The same injected OOB write yields an equivalent structured record on the
// predecoded fast core and the reference interpreter, under every isolating
// model — and the model determines the fault kind.
TEST(FaultParityTest, OobWriteEquivalentAcrossCoresAndModels) {
  struct Expectation {
    MemoryModel model;
    FaultKind kind;
    bool from_mpu;
  };
  const Expectation kCases[] = {
      {MemoryModel::kFeatureLimited, FaultKind::kCheckIndex, false},
      {MemoryModel::kSoftwareOnly, FaultKind::kCheckMemory, false},
      {MemoryModel::kMpu, FaultKind::kMpuViolation, true},
  };
  for (const Expectation& expect : kCases) {
    SCOPED_TRACE(std::string(MemoryModelName(expect.model)));
    OobRun fast;
    fast.Fire(expect.model, /*predecode=*/true);
    OobRun slow;
    slow.Fire(expect.model, /*predecode=*/false);
    ASSERT_EQ(fast.os->faults().size(), 1u);
    ASSERT_EQ(slow.os->faults().size(), 1u);
    const FaultRecord& record = fast.os->faults()[0];
    EXPECT_EQ(record.kind, expect.kind);
    EXPECT_EQ(record.from_mpu, expect.from_mpu);
    if (expect.kind != FaultKind::kCheckIndex) {
      EXPECT_EQ(record.addr, kTarget);
    }
    // The signature pc points at app code, not the check stub that fired.
    EXPECT_NE(record.pc, 0u);
    EXPECT_EQ(record.scope, RegionTag::kApp);
    EXPECT_FALSE(record.recent_pcs.empty());
#ifdef AMULET_SCOPE_ENABLED
    EXPECT_FALSE(record.flight.empty());
#endif
    ExpectRecordsEqual(record, slow.os->faults()[0]);

    // The rendered dump names the classification.
    const std::string dump = RenderFaultForensics(record, fast.machine.bus());
    EXPECT_NE(dump.find(FaultKindName(record.kind)), std::string::npos) << dump;
  }
}

// NoIsolation is the control: the same write silently corrupts memory.
TEST(FaultParityTest, NoIsolationCorruptsSilently) {
  for (bool predecode : {true, false}) {
    OobRun run;
    run.Fire(MemoryModel::kNoIsolation, predecode);
    EXPECT_TRUE(run.os->faults().empty());
    EXPECT_EQ(run.machine.bus().PeekWord(kTarget), 16705u);
  }
}

// ---------------------------------------------------------------------------
// FaultLedger algebra

FaultRecord SyntheticRecord(FaultKind kind, uint16_t pc, uint16_t addr,
                            uint64_t at_cycles) {
  FaultRecord record;
  record.app_index = 0;
  record.kind = kind;
  record.pc = pc;
  record.scope = RegionTag::kApp;
  record.addr = addr;
  record.at_cycles = at_cycles;
  record.code = static_cast<uint16_t>(kind);
  record.description = "synthetic";
  record.call_stack = {pc, static_cast<uint16_t>(pc + 8)};
  return record;
}

TEST(FaultLedgerTest, RecordBucketsBySignature) {
  FaultLedger ledger;
  ledger.Record(SyntheticRecord(FaultKind::kCheckMemory, 0x8000, 0x1C00, 500), 3, "a");
  ledger.Record(SyntheticRecord(FaultKind::kCheckMemory, 0x8000, 0x1C02, 900), 3, "a");
  ledger.Record(SyntheticRecord(FaultKind::kMpuViolation, 0x8100, 0xF000, 100), 3, "a");
  EXPECT_EQ(ledger.bucket_count(), 2u);
  EXPECT_EQ(ledger.total_faults(), 3u);
  const std::vector<const FaultBucket*> top = ledger.TopK(10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0]->count, 2u);
  EXPECT_EQ(top[0]->kind, FaultKind::kCheckMemory);
  // The exemplar within one device is the earliest record.
  EXPECT_EQ(top[0]->addr, 0x1C00u);
  EXPECT_EQ(top[0]->at_cycles, 500u);
  // A per-device ledger reports one device per bucket.
  EXPECT_EQ(top[0]->devices, 1u);
  EXPECT_EQ(top[1]->devices, 1u);
}

TEST(FaultLedgerTest, MergeIsOrderIndependent) {
  // Three per-device ledgers sharing one bucket signature plus a unique
  // bucket each; merged in any order the digest must be byte-identical and
  // the exemplar must follow the lowest device id.
  auto device_ledger = [](int device_id) {
    FaultLedger ledger;
    ledger.Record(SyntheticRecord(FaultKind::kCheckMemory, 0x8000,
                                  static_cast<uint16_t>(0x1C00 + device_id),
                                  1000 + static_cast<uint64_t>(device_id)),
                  device_id, "shared");
    ledger.Record(SyntheticRecord(FaultKind::kMpuViolation,
                                  static_cast<uint16_t>(0x9000 + 2 * device_id), 0xF000,
                                  77),
                  device_id, "unique");
    return ledger;
  };

  FaultLedger forward;
  for (int id : {0, 1, 2}) {
    forward.Merge(device_ledger(id));
  }
  FaultLedger backward;
  for (int id : {2, 1, 0}) {
    backward.Merge(device_ledger(id));
  }
  FaultLedger nested;  // (2 + 0) + 1, merged pairwise
  FaultLedger pair;
  pair.Merge(device_ledger(2));
  pair.Merge(device_ledger(0));
  nested.Merge(device_ledger(1));
  nested.Merge(pair);

  const std::string digest = forward.DigestText();
  EXPECT_FALSE(digest.empty());
  EXPECT_EQ(backward.DigestText(), digest);
  EXPECT_EQ(nested.DigestText(), digest);
  EXPECT_EQ(forward.ToJsonl(), backward.ToJsonl());

  EXPECT_EQ(forward.bucket_count(), 4u);
  EXPECT_EQ(forward.total_faults(), 6u);
  const std::vector<const FaultBucket*> top = forward.TopK(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0]->count, 3u);
  EXPECT_EQ(top[0]->devices, 3u) << "distinct devices, not records";
  EXPECT_EQ(top[0]->exemplar_device, 0);
  EXPECT_EQ(top[0]->addr, 0x1C00u) << "exemplar payload follows device 0";
}

TEST(FaultLedgerTest, TriageReportNamesSignatureAndExemplar) {
  FaultLedger ledger;
  ledger.Record(SyntheticRecord(FaultKind::kCheckMemory, 0x8000, 0x1C00, 500), 4,
                "pedometer");
  const std::string triage = ledger.RenderTriage(5);
  EXPECT_NE(triage.find("1 bucket(s)"), std::string::npos) << triage;
  EXPECT_NE(triage.find("check-memory"), std::string::npos) << triage;
  EXPECT_NE(triage.find("0x8000"), std::string::npos) << triage;
  EXPECT_NE(triage.find("device 4"), std::string::npos) << triage;
}

// ---------------------------------------------------------------------------
// Checkpoint v4 ledger section

TEST(FaultLedgerTest, CheckpointRoundTripPreservesLedger) {
  FleetConfig config;
  config.device_count = 4;
  config.apps = {"pedometer"};
  FleetCheckpoint cp;
  cp.config_hash = FleetConfigHash(config, 0xF00Dull);
  cp.config_text = FleetConfigCanonical(config, 0xF00Dull);
  Machine machine;
  cp.template_snapshot = CaptureSnapshot(machine);
  cp.device_count = 4;
  cp.completed = {true, true, false, false};
  DeviceStats d0;
  d0.device_id = 0;
  DeviceStats d1;
  d1.device_id = 1;
  cp.devices = {d0, d1};
  FaultRecord record = SyntheticRecord(FaultKind::kMpuViolation, 0x9000, 0xF000, 4242);
  record.flight.push_back({/*cycles=*/4200, /*a=*/0x9000, /*b=*/0x4141,
                           FlightEventKind::kStore});
  cp.faults.Record(record, 1, "crasher");

  const std::vector<uint8_t> bytes = EncodeFleetCheckpoint(cp);
  auto decoded = DecodeFleetCheckpoint(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->faults.DigestText(), cp.faults.DigestText());
  EXPECT_EQ(decoded->faults.ToJsonl(), cp.faults.ToJsonl());
  const std::vector<const FaultBucket*> top = decoded->faults.TopK(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0]->app_name, "crasher");
  EXPECT_EQ(top[0]->call_stack, record.call_stack);
  ASSERT_EQ(top[0]->flight.size(), 1u);
  EXPECT_TRUE(top[0]->flight[0] == record.flight[0]);
}

// LoadState rejects what SaveState never writes. Each case starts from a
// real encoding and changes one thing.
std::vector<uint8_t> LedgerBytes(const FaultLedger& ledger) {
  SnapshotWriter w;
  ledger.SaveState(w);
  return w.Take();
}

StatusCode LoadCode(const std::vector<uint8_t>& bytes) {
  FaultLedger ledger;
  SnapshotReader r(bytes);
  return ledger.LoadState(r).code();
}

FaultLedger OneBucketLedger(int records) {
  FaultLedger ledger;
  FaultRecord record = SyntheticRecord(FaultKind::kCheckMemory, 0x8000, 0x1C00, 500);
  record.flight.push_back({/*cycles=*/400, /*a=*/0x1C00, /*b=*/1, FlightEventKind::kStore});
  for (int i = 0; i < records; ++i) {
    ledger.Record(record, 2, "a");
  }
  return ledger;
}

TEST(FaultLedgerTest, LoadRejectsAnUnknownFaultKind) {
  std::vector<uint8_t> bytes = LedgerBytes(OneBucketLedger(1));
  ASSERT_EQ(LoadCode(bytes), StatusCode::kOk);
  bytes[4] = 200;  // u32 bucket count, then the first bucket's kind
  EXPECT_EQ(LoadCode(bytes), StatusCode::kInvalidArgument);
}

TEST(FaultLedgerTest, LoadRejectsAnUnknownRegionTag) {
  std::vector<uint8_t> bytes = LedgerBytes(OneBucketLedger(1));
  bytes[5] = 99;  // the first bucket's scope
  EXPECT_EQ(LoadCode(bytes), StatusCode::kInvalidArgument);
}

TEST(FaultLedgerTest, LoadRejectsAnUnknownFlightEventKind) {
  std::vector<uint8_t> bytes = LedgerBytes(OneBucketLedger(1));
  for (uint8_t kind : {0, 7, 200}) {
    bytes.back() = kind;  // the last flight event's kind ends the bucket
    EXPECT_EQ(LoadCode(bytes), StatusCode::kInvalidArgument) << static_cast<int>(kind);
  }
}

TEST(FaultLedgerTest, LoadRejectsTwoBucketsWithOneSignature) {
  // Buckets of 5 and 7 records under one signature, back to back.
  const std::vector<uint8_t> five = LedgerBytes(OneBucketLedger(5));
  const std::vector<uint8_t> seven = LedgerBytes(OneBucketLedger(7));
  std::vector<uint8_t> bytes = {2, 0, 0, 0};
  bytes.insert(bytes.end(), five.begin() + 4, five.end());
  bytes.insert(bytes.end(), seven.begin() + 4, seven.end());
  EXPECT_EQ(LoadCode(bytes), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Fleet-level ledger determinism

FleetConfig CrashyFleet(int jobs) {
  FleetConfig config;
  config.device_count = 8;
  config.apps = {"pedometer", "crasher"};
  config.model = MemoryModel::kMpu;
  config.fleet_seed = 0xF1EE7;
  config.sim_ms = 500;
  config.jobs = jobs;
  return config;
}

TEST(FleetLedgerTest, LedgerIdenticalAcrossThreadCountsAndRecorderModes) {
  auto serial = RunFleet(CrashyFleet(1));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_FALSE(serial->faults.empty());
  // The crasher's wild timer write faults on every device.
  uint64_t bucket_devices = 0;
  for (const FaultBucket* bucket : serial->faults.TopK(1)) {
    bucket_devices = bucket->devices;
  }
  EXPECT_EQ(bucket_devices, 8u);
  const std::string digest = FleetDigest(*serial);
  EXPECT_NE(digest.find("ledger:"), std::string::npos);

  auto parallel = RunFleet(CrashyFleet(4));
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(FleetDigest(*parallel), digest);
  EXPECT_EQ(parallel->faults.DigestText(), serial->faults.DigestText());

  // The recorder is digest-neutral: disabling it only empties the flight
  // tails, which the digest deliberately excludes.
  FleetConfig no_recorder = CrashyFleet(2);
  no_recorder.flight_recorder = false;
  auto bare = RunFleet(no_recorder);
  ASSERT_TRUE(bare.ok()) << bare.status().ToString();
  EXPECT_EQ(FleetDigest(*bare), digest);

  // The rendered report carries the triage table.
  const std::string text = RenderFleetReport(*serial);
  EXPECT_NE(text.find("fault ledger:"), std::string::npos) << text;
}

TEST(FleetLedgerTest, LedgerSurvivesKillAndResume) {
  auto baseline = RunFleet(CrashyFleet(1));
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const std::string digest = FleetDigest(*baseline);

  const std::string path = "fleet_ckpt_ledger_test.bin";
  std::remove(path.c_str());
  FleetConfig interrupted = CrashyFleet(1);
  interrupted.checkpoint_path = path;
  interrupted.checkpoint_every_devices = 1;
  interrupted.abort_after_devices = 3;
  ASSERT_EQ(RunFleet(interrupted).status().code(), StatusCode::kCancelled);

  // The checkpoint on disk already holds the completed devices' buckets.
  auto cp = ReadFleetCheckpoint(path);
  ASSERT_TRUE(cp.ok()) << cp.status().ToString();
  EXPECT_FALSE(cp->faults.empty());

  FleetConfig resume_config = CrashyFleet(4);
  resume_config.checkpoint_path = path;
  auto resumed = ResumeFleet(resume_config);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->resumed_devices, 3);
  EXPECT_EQ(FleetDigest(*resumed), digest);
  EXPECT_EQ(resumed->faults.DigestText(), baseline->faults.DigestText());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace amulet
