// Durable fleet checkpoints: a versioned on-disk container that lets a
// long fleet simulation or OTA campaign survive a crash or kill and resume
// with a digest byte-identical to an uninterrupted run (docs/fleet.md,
// "Checkpoint & resume"; docs/ota.md, "Campaign checkpoints").
//
// A checkpoint file holds one of two containers. A finished run leaves an
// AMFC file; a running or killed one leaves an AMFJ journal.
//
// AMFC (little-endian, built on src/common/binio.h):
//   u32 magic "AMFC" | u32 version | u8 kind | sections... | u64 fnv1a64
// The trailing u64 is FNV-1a 64 over every preceding byte, so any
// truncation or bit flip is rejected before section parsing begins.
// Sections (tags continue the machine-snapshot tag space, see
// src/mcu/snapshot.h):
//   kFleetConfig    config hash (FNV-1a over the canonical config string,
//                   which since v2 folds in the firmware image hash) plus
//                   the canonical string itself for diagnostics
//   kFleetTemplate  the template MachineSnapshot every device clones from;
//                   resume requires a bit-identical recapture, which pins
//                   the checkpoint to the build + config that produced it
//   kFleetMetrics   the merged streaming MetricRegistry of completed devices
//   kFleetDevices   retained DeviceStats rows (empty in streaming mode)
//   kFleetBitmap    device_count + packed completed-device bitmap
//   kCampaignDevices  per-device OTA outcome rows (campaign checkpoints
//                   only): outcome, installed firmware version, MAC-verify
//                   cycle cost
//   kFleetLedger    the merged FaultLedger of completed devices (crash
//                   buckets with exemplar forensics)
//   kFleetShard     the shard slice this checkpoint covers: shard_index and
//                   shard_count (0/1 = whole fleet). The completed bitmap is
//                   always global-sized; a shard checkpoint simply never
//                   sets bits outside its slice, which is what lets
//                   MergeFleetCheckpoints OR disjoint shards together.
//   kFleetProfile   population-profile identity: ProfileHash (0 =
//                   homogeneous) plus the canonical profile text for
//                   mismatch diagnostics
//
// AMFJ, the journal a run appends to while it runs, so a checkpoint costs
// what changed since the last one:
//   u32 magic "AMFJ" | u32 version | u64 base length | base | records...
// The base is the AMFC encoding of the run before its first device ran (the
// identity plus any resumed state). Each record is
//   u32 length | payload | u64 fnv1a64(payload)
// and its payload holds the devices completed since the previous record:
//   u32 n | n x u32 device id | device rows (empty in streaming mode) |
//   campaign rows (campaign journals only) | MetricRegistry delta |
//   FaultLedger delta
// Rows use the AMFC sections' row encoding and, when present, follow the
// id list. Decoding replays the records onto the base. A final record that
// is short or fails its checksum is a torn append: it is dropped and its
// devices re-run. A bad record with bytes after it is corruption. When the
// run ends, DeviceRunner::Finish compacts the journal into the AMFC file
// of the same state.
//
// Version history: v1 (PR 1-3) had no kind byte, no integrity trailer, no
// watchdog_resets column, and no campaign section. v3 added the
// instructions-retired column to device rows. v4 added the fault-ledger
// section. v5 added the shard-slice and population-profile sections and
// switched per-device seeding to the splitmix64 mixer (so every v4 digest is
// stale even for configs v5 can express), and then the AMFJ journal, which
// carries the same version. Files are only readable by builds of the same
// version; decoding an older file returns a clear InvalidArgumentError
// telling the caller to re-run without --resume.
//
// Every decode failure — bad magic, unsupported version, truncation,
// checksum mismatch, corrupt section or record, out-of-range ids — returns
// InvalidArgumentError; a checkpoint is never partially applied. The one
// exception is the torn final journal record above, which is dropped.
#ifndef SRC_FLEET_CHECKPOINT_H_
#define SRC_FLEET_CHECKPOINT_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/fleet/fleet.h"
#include "src/mcu/snapshot.h"

namespace amulet {

inline constexpr uint32_t kFleetCheckpointMagic = 0x43464D41;  // "AMFC"
inline constexpr uint32_t kFleetJournalMagic = 0x4A464D41;     // "AMFJ"
inline constexpr uint32_t kFleetCheckpointVersion = 5;

// What produced the checkpoint; a fleet resume rejects campaign checkpoints
// and vice versa.
enum class FleetCheckpointKind : uint8_t {
  kFleet = 0,
  kCampaign = 1,
};

// Checkpoint section tags; disjoint from SnapshotSection's machine tags.
enum class FleetCheckpointSection : uint8_t {
  kFleetConfig = 16,
  kFleetTemplate = 17,
  kFleetMetrics = 18,
  kFleetDevices = 19,
  kFleetBitmap = 20,
  kCampaignDevices = 21,
  kFleetLedger = 22,
  kFleetShard = 23,
  kFleetProfile = 24,
};

// One completed device's OTA outcome (campaign checkpoints only). `outcome`
// stores an ota::OtaOutcome value; kept as a raw byte here so the container
// layer does not depend on the campaign driver.
struct CampaignDeviceRecord {
  int device_id = 0;
  uint8_t outcome = 0;
  uint32_t firmware_version = 0;
  uint64_t verify_cycles = 0;  // simulated MAC-verification cost
};

// In-memory image of one checkpoint.
struct FleetCheckpoint {
  FleetCheckpointKind kind = FleetCheckpointKind::kFleet;
  uint64_t config_hash = 0;
  std::string config_text;  // canonical config, for mismatch diagnostics
  MachineSnapshot template_snapshot;
  MetricRegistry metrics;             // merged over completed devices
  FaultLedger faults;                 // merged crash buckets of completed devices
  std::vector<DeviceStats> devices;   // completed rows only; empty when streaming
  // Campaign checkpoints only; one row per completed device.
  std::vector<CampaignDeviceRecord> campaign_devices;
  std::vector<bool> completed;        // indexed by GLOBAL device id
  int device_count = 0;               // fleet-wide total, not the shard's
  // The shard slice this checkpoint covers (0/1 = the whole fleet) and the
  // population-profile identity of the run that wrote it (hash 0 =
  // homogeneous). The config hash above is shard-INDEPENDENT — all shards of
  // one fleet share it, and the merge validates that equality.
  int shard_index = 0;
  int shard_count = 1;
  uint64_t profile_hash = 0;
  std::string profile_text;  // ProfileCanonical, for mismatch diagnostics

  int CompletedCount() const {
    int n = 0;
    for (bool bit : completed) {
      n += bit ? 1 : 0;
    }
    return n;
  }
};

// Canonical description of everything seed-relevant in a FleetConfig:
// device count, resolved app list, model, seed, duration, wait states,
// retention mode, energy-model constants, and the FNV-1a hash of the
// firmware image's loadable bytes (FirmwareImageHash) — so a resume against
// a different firmware build fails InvalidArgument instead of mixing
// incompatible results. Host-side knobs that cannot change results (jobs,
// verbosity, checkpoint cadence, fault-injection hooks) are deliberately
// excluded so a run may be resumed at a different thread count or with the
// injected failure removed.
// `shard_index`/`shard_count` are also excluded: every shard of one fleet
// shares the config hash (the shard slice lives in its own checkpoint
// section), which is the equality MergeFleetCheckpoints validates.
std::string FleetConfigCanonical(const FleetConfig& config, uint64_t firmware_hash);

// Heterogeneous-fleet variant: appends `;profile=<hash>` (ProfileHash over
// the cohort list + per-cohort firmware hashes; 0 for a homogeneous run) so
// two runs differing only in population mix hash differently.
std::string FleetConfigCanonical(const FleetConfig& config, uint64_t firmware_hash,
                                 uint64_t profile_hash);

// FNV-1a 64 over FleetConfigCanonical(config, firmware_hash).
uint64_t FleetConfigHash(const FleetConfig& config, uint64_t firmware_hash);
uint64_t FleetConfigHash(const FleetConfig& config, uint64_t firmware_hash,
                         uint64_t profile_hash);

// Serializes/parses the container. Decode validates magic, version, the
// whole-file checksum, every section, the bitmap/device-row consistency,
// and full consumption. It also reads AMFJ journals: it decodes the base,
// replays the records in order — every id must be in range, inside the
// shard slice and not yet completed — and returns rows in ascending id
// order, the same checkpoint a Finish at that point would have compacted.
std::vector<uint8_t> EncodeFleetCheckpoint(const FleetCheckpoint& checkpoint);
Result<FleetCheckpoint> DecodeFleetCheckpoint(const std::vector<uint8_t>& bytes);

// Atomic persistence: writes to `path + ".tmp"` then renames over `path`,
// so a reader (or a resume after a kill mid-write) only ever sees the old
// complete checkpoint or the new complete checkpoint.
Status WriteFleetCheckpoint(const std::string& path, const FleetCheckpoint& checkpoint);
Result<FleetCheckpoint> ReadFleetCheckpoint(const std::string& path);

// The devices completed since the previous journal record and what they
// contributed: one AMFJ record.
struct FleetCheckpointDelta {
  std::vector<int> ids;
  std::vector<DeviceStats> devices;  // rows of `ids`, in order; empty when streaming
  std::vector<CampaignDeviceRecord> campaign_devices;  // campaign runs only
  MetricRegistry metrics;
  FaultLedger faults;
};

// An open AMFJ journal. Not thread-safe: DeviceRunner appends under its
// merge lock.
class FleetCheckpointJournal {
 public:
  // Writes the header and `base` to `path + ".tmp"`, renames it over `path`
  // and keeps the file open for appends.
  static Result<std::unique_ptr<FleetCheckpointJournal>> Create(const std::string& path,
                                                                const FleetCheckpoint& base);
  ~FleetCheckpointJournal();
  FleetCheckpointJournal(const FleetCheckpointJournal&) = delete;
  FleetCheckpointJournal& operator=(const FleetCheckpointJournal&) = delete;

  // Appends one record and flushes it to the file.
  Status Append(const FleetCheckpointDelta& delta);

 private:
  FleetCheckpointJournal(std::FILE* file, std::string path, FleetCheckpointKind kind);

  std::FILE* const file_;
  const std::string path_;
  const FleetCheckpointKind kind_;  // campaign journals carry campaign rows
};

}  // namespace amulet

#endif  // SRC_FLEET_CHECKPOINT_H_
