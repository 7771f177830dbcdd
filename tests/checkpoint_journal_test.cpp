// Checkpoint journal (AMFJ) tests. A journal the device runner wrote replays
// to the AMFC file a Finish at the same point compacts; a torn last record is
// dropped and its devices re-run; corruption before the tail and records
// naming impossible devices are rejected; seeded mutants never crash. Also
// the length checks that keep a corrupt checkpoint length from being
// allocated.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/fleet/checkpoint.h"
#include "src/fleet/device.h"
#include "src/fleet/fleet.h"
#include "src/ota/image.h"

namespace amulet {
namespace {

using fleet_internal::ClonedDevice;
using fleet_internal::CohortRuntime;
using fleet_internal::DeviceRunner;

constexpr int kDevices = 12;
constexpr int kEvery = 2;  // devices per journal record

std::vector<uint8_t> FileBytes(const std::string& path) {
  std::vector<uint8_t> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return bytes;
  }
  uint8_t buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    bytes.insert(bytes.end(), buffer, buffer + n);
  }
  std::fclose(f);
  return bytes;
}

// A checkpoint path of the running test's own; ctest runs tests in parallel
// in one directory.
std::string TestPath(const std::string& what) {
  return std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()) + "_" +
         what + ".ckpt";
}

uint32_t U32At(const std::vector<uint8_t>& bytes, size_t at) {
  uint32_t v = 0;
  std::memcpy(&v, bytes.data() + at, 4);
  return v;
}

void PutU32(std::vector<uint8_t>* bytes, size_t at, uint32_t v) {
  std::memcpy(bytes->data() + at, &v, 4);
}

void PutU64(std::vector<uint8_t>* bytes, size_t at, uint64_t v) {
  std::memcpy(bytes->data() + at, &v, 8);
}

// End offset of an AMFJ file's header + base.
size_t BaseEnd(const std::vector<uint8_t>& journal) {
  uint64_t base_length = 0;
  std::memcpy(&base_length, journal.data() + 8, 8);
  return 16 + static_cast<size_t>(base_length);
}

// The checkpoint `bytes` decode to, re-encoded as AMFC.
std::vector<uint8_t> Compacted(const std::vector<uint8_t>& bytes) {
  Result<FleetCheckpoint> decoded = DecodeFleetCheckpoint(bytes);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return decoded.ok() ? EncodeFleetCheckpoint(*decoded) : std::vector<uint8_t>();
}

bool StartsWith(const std::vector<uint8_t>& bytes, const char* magic) {
  return bytes.size() >= 4 && std::memcmp(bytes.data(), magic, 4) == 0;
}

// What a journal run checkpoints: a plain or campaign run, with or without
// retained rows, over the whole fleet or one shard slice.
struct JournalShape {
  const char* name;
  FleetCheckpointKind kind = FleetCheckpointKind::kFleet;
  bool retain = true;
  int shard_index = 0;
  int shard_count = 1;
};

const JournalShape kShapes[] = {
    {"retained fleet"},
    {"streaming fleet", FleetCheckpointKind::kFleet, false},
    {"shard slice", FleetCheckpointKind::kFleet, true, 1, 2},
    {"campaign", FleetCheckpointKind::kCampaign},
};

FleetConfig JournalConfig(const std::string& path) {
  FleetConfig config;
  config.device_count = kDevices;
  config.apps = {"pedometer", "crasher"};  // the crasher fills the ledger
  config.fleet_seed = 0x10A7;
  config.sim_ms = 200;
  config.jobs = 2;
  config.checkpoint_path = path;
  config.checkpoint_every_devices = kEvery;
  config.checkpoint_every_seconds = 1e9;  // records by device count only
  return config;
}

std::unique_ptr<CohortRuntime> BootJournalCohort() {
  Cohort cohort;
  cohort.apps = JournalConfig("").apps;
  Result<std::unique_ptr<CohortRuntime>> booted =
      fleet_internal::BootCohort(cohort, JournalConfig(""));
  EXPECT_TRUE(booted.ok()) << booted.status().ToString();
  return booted.ok() ? std::move(*booted) : nullptr;
}

// Runs real simulated devices through the engine's DeviceRunner, one Run
// call per batch (as a campaign runs its stages), and returns the
// checkpoint file after each batch and after Finish.
std::vector<std::vector<uint8_t>> DriveRunner(const JournalShape& shape,
                                              const CohortRuntime& cohort,
                                              const std::vector<std::vector<int>>& batches,
                                              const std::string& path) {
  std::remove(path.c_str());
  const FleetConfig config = JournalConfig(path);
  FleetCheckpoint identity;
  identity.kind = shape.kind;
  identity.config_hash = 0x10A7;
  identity.config_text = shape.name;
  // Opaque to the container; kept short so mutants land on structure.
  identity.template_snapshot.bytes.assign(32, 0x5A);
  identity.device_count = kDevices;
  identity.shard_index = shape.shard_index;
  identity.shard_count = shape.shard_count;

  std::vector<DeviceStats> rows(kDevices);
  MetricRegistry metrics;
  FaultLedger ledger;
  DeviceRunner runner(
      config, "journal-test", identity, &metrics, &ledger,
      [&](const std::vector<int>& ids, std::vector<DeviceStats>* out,
          std::vector<CampaignDeviceRecord>* campaign_out) {
        for (int id : ids) {
          if (shape.retain) {
            out->push_back(rows[static_cast<size_t>(id)]);
          }
          if (shape.kind == FleetCheckpointKind::kCampaign) {
            campaign_out->push_back({id, static_cast<uint8_t>(id % 4),
                                     static_cast<uint32_t>(3 + id % 2),
                                     static_cast<uint64_t>(1000 + id)});
          }
        }
      });
  auto body = [&](int id, MetricRegistry* m, FaultLedger* l) -> Status {
    ASSIGN_OR_RETURN(std::unique_ptr<ClonedDevice> device,
                     cohort.Clone(fleet_internal::DeviceSeed(config.fleet_seed, id), config));
    DeviceStats stats;
    stats.device_id = id;
    RETURN_IF_ERROR(device->Run(config.sim_ms, cohort.regions, &stats, l));
    fleet_internal::RecordDeviceMetrics(stats, m);
    rows[static_cast<size_t>(id)] = stats;
    return OkStatus();
  };
  std::vector<std::vector<uint8_t>> files;
  for (const std::vector<int>& batch : batches) {
    EXPECT_TRUE(runner.Run(batch, body)) << shape.name;
    files.push_back(FileBytes(path));
  }
  const Status finished = runner.Finish();
  EXPECT_TRUE(finished.ok()) << finished.ToString();
  files.push_back(FileBytes(path));
  std::remove(path.c_str());
  return files;
}

// The shape's device ids in two batches: every id but the lowest kEvery,
// then those as the last record. Both run in descending id order, so the
// journal holds rows out of id order and replay has to sort them.
std::vector<std::vector<int>> Batches(const JournalShape& shape) {
  const ShardRange slice = ShardRangeFor(kDevices, shape.shard_index, shape.shard_count);
  std::vector<std::vector<int>> batches(2);
  for (int id = slice.hi - 1; id >= slice.lo; --id) {
    batches[id >= slice.lo + kEvery ? 0 : 1].push_back(id);
  }
  return batches;
}

// A journal after its first batch (j1) and second batch (j2), and the AMFC
// files a Finish compacts at each point (c1, c2).
struct JournalFiles {
  std::vector<uint8_t> j1, j2, c1, c2;
};

JournalFiles WriteJournal(const JournalShape& shape, const CohortRuntime& cohort) {
  const std::vector<std::vector<int>> batches = Batches(shape);
  JournalFiles files;
  const std::vector<std::vector<uint8_t>> first =
      DriveRunner(shape, cohort, {batches[0]}, TestPath("first"));
  files.c1 = first.back();
  const std::vector<std::vector<uint8_t>> both =
      DriveRunner(shape, cohort, batches, TestPath("both"));
  files.j1 = both[0];
  files.j2 = both[1];
  files.c2 = both[2];
  return files;
}

TEST(CheckpointJournalTest, BasePlusRecordsReplaysToTheCompactedCheckpoint) {
  const std::unique_ptr<CohortRuntime> cohort = BootJournalCohort();
  ASSERT_NE(cohort, nullptr);
  for (const JournalShape& shape : kShapes) {
    SCOPED_TRACE(shape.name);
    const JournalFiles files = WriteJournal(shape, *cohort);
    ASSERT_TRUE(StartsWith(files.j1, "AMFJ"));
    ASSERT_TRUE(StartsWith(files.c2, "AMFC"));
    // Append-only: the later journal extends the earlier one.
    ASSERT_GT(files.j2.size(), files.j1.size());
    EXPECT_TRUE(std::equal(files.j1.begin(), files.j1.end(), files.j2.begin()));
    EXPECT_EQ(Compacted(files.j1), files.c1);
    EXPECT_EQ(Compacted(files.j2), files.c2);

    Result<FleetCheckpoint> replayed = DecodeFleetCheckpoint(files.j2);
    ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
    const ShardRange slice = ShardRangeFor(kDevices, shape.shard_index, shape.shard_count);
    EXPECT_EQ(replayed->CompletedCount(), slice.size());
    EXPECT_EQ(replayed->devices.size(), shape.retain ? static_cast<size_t>(slice.size()) : 0u);
    EXPECT_FALSE(replayed->faults.empty());
    for (size_t i = 1; i < replayed->devices.size(); ++i) {
      EXPECT_LT(replayed->devices[i - 1].device_id, replayed->devices[i].device_id);
    }
  }
}

TEST(CheckpointJournalTest, TruncationDropsOnlyTheTornLastRecord) {
  const std::unique_ptr<CohortRuntime> cohort = BootJournalCohort();
  ASSERT_NE(cohort, nullptr);
  const JournalFiles files = WriteJournal(kShapes[0], *cohort);
  // The second batch is exactly one record, so j2 is j1 plus that record.
  for (size_t cut = files.j1.size() + 1; cut < files.j2.size(); ++cut) {
    const std::vector<uint8_t> torn(files.j2.begin(), files.j2.begin() + cut);
    ASSERT_EQ(Compacted(torn), files.c1) << "cut at " << cut;
  }
  // A full-length last record that fails its checksum is a torn append too.
  std::vector<uint8_t> garbled_tail = files.j2;
  garbled_tail[files.j1.size() + 4 + 1] ^= 0x10;
  EXPECT_EQ(Compacted(garbled_tail), files.c1);

  const size_t base_end = BaseEnd(files.j2);
  for (size_t cut = 0; cut < base_end; ++cut) {
    const std::vector<uint8_t> torn(files.j2.begin(), files.j2.begin() + cut);
    ASSERT_EQ(DecodeFleetCheckpoint(torn).status().code(), StatusCode::kInvalidArgument)
        << "cut at " << cut;
  }
  // Cut right after the base: the run as it stood before any device ran.
  const std::vector<uint8_t> base_only(files.j2.begin(), files.j2.begin() + base_end);
  Result<FleetCheckpoint> base = DecodeFleetCheckpoint(base_only);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_EQ(base->CompletedCount(), 0);
}

TEST(CheckpointJournalTest, CorruptOrImpossibleRecordsAreRejected) {
  const std::unique_ptr<CohortRuntime> cohort = BootJournalCohort();
  ASSERT_NE(cohort, nullptr);
  const JournalFiles files = WriteJournal(kShapes[0], *cohort);

  // A bit flip in the first record, with records after it.
  std::vector<uint8_t> flipped = files.j2;
  flipped[BaseEnd(flipped) + 4 + 1] ^= 0x10;
  EXPECT_EQ(DecodeFleetCheckpoint(flipped).status().code(), StatusCode::kInvalidArgument);

  std::vector<uint8_t> wrong_version = files.j2;
  PutU32(&wrong_version, 4, kFleetCheckpointVersion + 1);
  EXPECT_EQ(DecodeFleetCheckpoint(wrong_version).status().code(),
            StatusCode::kInvalidArgument);

  // Well-formed, checksummed last records naming devices the run cannot
  // complete: never dropped as torn, always rejected.
  Result<FleetCheckpoint> after_first = DecodeFleetCheckpoint(files.j1);
  ASSERT_TRUE(after_first.ok()) << after_first.status().ToString();
  const int completed_id = Batches(kShapes[0])[0][0];
  const int pending_id = Batches(kShapes[0])[1][0];
  auto rejects = [](const FleetCheckpoint& base, FleetCheckpointDelta delta,
                    const char* what) {
    const std::string path = TestPath("bad_record");
    auto journal = FleetCheckpointJournal::Create(path, base);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    ASSERT_TRUE((*journal)->Append(delta).ok());
    journal->reset();
    EXPECT_EQ(ReadFleetCheckpoint(path).status().code(), StatusCode::kInvalidArgument)
        << what;
    std::remove(path.c_str());
  };
  FleetCheckpointDelta delta;
  delta.ids = {kDevices};
  rejects(*after_first, delta, "out-of-range id");
  delta.ids = {-1};
  rejects(*after_first, delta, "negative id");
  delta.ids = {completed_id};
  rejects(*after_first, delta, "id the base already completed");
  delta.ids = {pending_id, pending_id};
  rejects(*after_first, delta, "id completed twice in one record");
  delta.ids = {pending_id};
  delta.devices.resize(1);
  delta.devices[0].device_id = completed_id;
  rejects(*after_first, delta, "row for another device");

  FleetCheckpoint shard = *after_first;
  shard.completed.assign(kDevices, false);
  shard.devices.clear();
  shard.shard_index = 1;
  shard.shard_count = 2;
  FleetCheckpointDelta outside;
  outside.ids = {0};
  rejects(shard, outside, "id outside the shard slice");
}

// Recomputes every checksum of a mutated journal at the record boundaries
// of the journal it was mutated from.
void RecomputeChecksums(const std::vector<uint8_t>& original, std::vector<uint8_t>* mutant) {
  const size_t base_end = BaseEnd(original);
  PutU64(mutant, base_end - 8, Fnv1a64(mutant->data() + 16, base_end - 8 - 16));
  for (size_t at = base_end; at < original.size();) {
    const uint32_t length = U32At(original, at);
    PutU64(mutant, at + 4 + length, Fnv1a64(mutant->data() + at + 4, length));
    at += 4 + length + 8;
  }
}

TEST(CheckpointJournalTest, SeededMutantsNeverCrashAndDecodeQuickly) {
  const std::unique_ptr<CohortRuntime> cohort = BootJournalCohort();
  ASSERT_NE(cohort, nullptr);
  const std::vector<uint8_t> journal = WriteJournal(kShapes[3], *cohort).j2;
  std::mt19937 rng(0x5EED);
  int accepted = 0;
  for (int mutant_index = 0; mutant_index < 2000; ++mutant_index) {
    std::vector<uint8_t> mutant = journal;
    const int edits = 1 + static_cast<int>(rng() % 3);
    for (int e = 0; e < edits; ++e) {
      const size_t at = rng() % (mutant.size() - 4);
      switch (rng() % 3) {
        case 0:
          mutant[at] ^= static_cast<uint8_t>(1 + rng() % 255);
          break;
        case 1:  // a huge count or length
          PutU32(&mutant, at, rng() % 2 == 0 ? 0xFFFFFFF0u : 0x7FFFFFFFu);
          break;
        default:
          mutant[at] = rng() % 2 == 0 ? 0x00 : 0xFF;
          break;
      }
    }
    RecomputeChecksums(journal, &mutant);
    const auto t0 = std::chrono::steady_clock::now();
    Result<FleetCheckpoint> decoded = DecodeFleetCheckpoint(mutant);
    const double ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
    ASSERT_LT(ms, 250.0) << "mutant " << mutant_index;
    if (decoded.ok()) {
      // Whatever survives replay is a consistent checkpoint.
      ++accepted;
      ASSERT_TRUE(DecodeFleetCheckpoint(EncodeFleetCheckpoint(*decoded)).ok())
          << "mutant " << mutant_index;
    } else {
      ASSERT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
          << "mutant " << mutant_index << ": " << decoded.status().ToString();
    }
  }
  EXPECT_LT(accepted, 2000);
}

TEST(CheckpointJournalTest, UnwritablePathFailsTheRunBeforeAnyDeviceRuns) {
  FleetConfig config = JournalConfig("no_such_directory/" + TestPath("journal"));
  FleetCheckpoint identity;
  identity.device_count = kDevices;
  MetricRegistry metrics;
  FaultLedger ledger;
  DeviceRunner runner(config, "journal-test", identity, &metrics, &ledger,
                      [](const std::vector<int>&, std::vector<DeviceStats>*,
                         std::vector<CampaignDeviceRecord>*) {});
  std::atomic<int> ran{0};
  const std::vector<int> ids = {0, 1, 2, 3};
  EXPECT_FALSE(runner.Run(ids, [&](int, MetricRegistry*, FaultLedger*) {
    ran.fetch_add(1);
    return OkStatus();
  }));
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(runner.Finish().code(), StatusCode::kInvalidArgument);

  config.apps = {"clock"};
  EXPECT_EQ(RunFleet(config).status().code(), StatusCode::kInvalidArgument);
}

// A real checkpoint whose template length claims ~4 GB: the decoder must
// reject it from the bytes it has, not allocate what the length says.
TEST(CheckpointTest, OversizedTemplateLengthIsRejectedWithoutAllocating) {
  FleetConfig config;
  config.device_count = 4;
  config.apps = {"clock"};
  config.sim_ms = 100;
  config.checkpoint_path = TestPath("fleet");
  ASSERT_TRUE(RunFleet(config).ok());
  std::vector<uint8_t> bytes = FileBytes(config.checkpoint_path);
  std::remove(config.checkpoint_path.c_str());
  ASSERT_TRUE(StartsWith(bytes, "AMFC"));
  // magic, version, kind | config section: tag, length, payload | template
  // section: tag, length | u32 template length.
  const size_t config_length = U32At(bytes, 9 + 1);
  const size_t template_length_at = 9 + 5 + config_length + 5;
  PutU32(&bytes, template_length_at, 0xFFFFFFF0u);
  PutU64(&bytes, bytes.size() - 8, Fnv1a64(bytes.data(), bytes.size() - 8));

  double best_ms = 1e9;
  for (int attempt = 0; attempt < 3; ++attempt) {
    const auto t0 = std::chrono::steady_clock::now();
    const Status status = DecodeFleetCheckpoint(bytes).status();
    best_ms = std::min(best_ms, std::chrono::duration<double, std::milli>(
                                    std::chrono::steady_clock::now() - t0)
                                    .count());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  }
  EXPECT_LT(best_ms, 50.0);
}

}  // namespace
}  // namespace amulet
