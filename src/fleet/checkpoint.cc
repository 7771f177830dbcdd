#include "src/fleet/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "src/apps/app_sources.h"
#include "src/common/strings.h"
#include "src/fleet/device.h"
#include "src/ota/image.h"

namespace amulet {

namespace {

// Decode failures must all surface as InvalidArgumentError (a checkpoint is
// caller-supplied input, unlike the internal reader's OutOfRange bookkeeping).
Status AsCheckpointError(const Status& status) {
  if (status.ok() || status.code() == StatusCode::kInvalidArgument) {
    return status;
  }
  return InvalidArgumentError(
      StrFormat("fleet checkpoint corrupt: %s", status.message().c_str()));
}

// The one row layout of the AMFC device and campaign sections and of the
// journal records: u32 count, then the rows.
void WriteDeviceRows(SnapshotWriter& w, const std::vector<DeviceStats>& rows) {
  w.U32(static_cast<uint32_t>(rows.size()));
  for (const DeviceStats& d : rows) {
    w.U32(static_cast<uint32_t>(d.device_id));
    for (const fleet_internal::DeviceCounter& c : fleet_internal::kDeviceCounters) {
      w.U64(d.*c.stat);
    }
    w.F64(d.battery_impact_percent);
  }
}

void ReadDeviceRows(SnapshotReader& r, std::vector<DeviceStats>* rows) {
  const uint32_t count = r.U32();
  for (uint32_t i = 0; r.ok() && i < count; ++i) {
    DeviceStats d;
    d.device_id = static_cast<int>(r.U32());
    for (const fleet_internal::DeviceCounter& c : fleet_internal::kDeviceCounters) {
      d.*c.stat = r.U64();
    }
    d.battery_impact_percent = r.F64();
    rows->push_back(d);
  }
}

void WriteCampaignRows(SnapshotWriter& w, const std::vector<CampaignDeviceRecord>& rows) {
  w.U32(static_cast<uint32_t>(rows.size()));
  for (const CampaignDeviceRecord& rec : rows) {
    w.U32(static_cast<uint32_t>(rec.device_id));
    w.U8(rec.outcome);
    w.U32(rec.firmware_version);
    w.U64(rec.verify_cycles);
  }
}

void ReadCampaignRows(SnapshotReader& r, std::vector<CampaignDeviceRecord>* rows) {
  const uint32_t count = r.U32();
  for (uint32_t i = 0; r.ok() && i < count; ++i) {
    CampaignDeviceRecord rec;
    rec.device_id = static_cast<int>(r.U32());
    rec.outcome = r.U8();
    rec.firmware_version = r.U32();
    rec.verify_cycles = r.U64();
    rows->push_back(rec);
  }
}

// Writes `bytes` to `path + ".tmp"` and renames it over `path`, so a reader
// sees the old file or the new one, never a torn one. With `keep_open` the
// handle stays open at the end of the file and is returned; else null.
Result<std::FILE*> ReplaceFile(const std::string& path, const std::vector<uint8_t>& bytes,
                               bool keep_open) {
  const std::string tmp_path = path + ".tmp";
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) {
    return InvalidArgumentError(StrFormat("cannot write %s", tmp_path.c_str()));
  }
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fflush(f) == 0;
  if (written != bytes.size() || !flushed) {
    std::fclose(f);
    std::remove(tmp_path.c_str());
    return InternalError(StrFormat("short write to %s", tmp_path.c_str()));
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::fclose(f);
    std::remove(tmp_path.c_str());
    return InternalError(
        StrFormat("cannot rename %s over %s", tmp_path.c_str(), path.c_str()));
  }
  if (!keep_open) {
    std::fclose(f);
    return nullptr;
  }
  return f;
}

std::vector<uint8_t> EncodeJournalRecord(FleetCheckpointKind kind,
                                         const FleetCheckpointDelta& delta) {
  SnapshotWriter payload;
  payload.U32(static_cast<uint32_t>(delta.ids.size()));
  for (int id : delta.ids) {
    payload.U32(static_cast<uint32_t>(id));
  }
  WriteDeviceRows(payload, delta.devices);
  if (kind == FleetCheckpointKind::kCampaign) {
    WriteCampaignRows(payload, delta.campaign_devices);
  }
  delta.metrics.SaveState(payload);
  delta.faults.SaveState(payload);
  const std::vector<uint8_t>& body = payload.bytes();
  SnapshotWriter w;
  w.U32(static_cast<uint32_t>(body.size()));
  w.Bytes(body.data(), body.size());
  w.U64(Fnv1a64(body.data(), body.size()));
  return w.Take();
}

}  // namespace

std::string FleetConfigCanonical(const FleetConfig& config, uint64_t firmware_hash) {
  std::string apps;
  if (config.apps.empty()) {
    for (const AppSpec& app : AmuletAppSuite()) {
      if (!apps.empty()) {
        apps += ",";
      }
      apps += app.name;
    }
  } else {
    for (const std::string& name : config.apps) {
      if (!apps.empty()) {
        apps += ",";
      }
      apps += name;
    }
  }
  return StrFormat(
      "devices=%d;apps=%s;model=%d;seed=%u;sim_ms=%llu;fram_ws=%d;retain=%d;"
      "energy=%a,%a,%a;fw=%016llx",
      config.device_count, apps.c_str(), static_cast<int>(config.model),
      config.fleet_seed, static_cast<unsigned long long>(config.sim_ms),
      config.fram_wait_states, config.retain_device_stats ? 1 : 0, config.energy.cpu_mhz,
      config.energy.active_ua_per_mhz, config.energy.battery_mah,
      static_cast<unsigned long long>(firmware_hash));
}

std::string FleetConfigCanonical(const FleetConfig& config, uint64_t firmware_hash,
                                 uint64_t profile_hash) {
  return FleetConfigCanonical(config, firmware_hash) +
         StrFormat(";profile=%016llx", static_cast<unsigned long long>(profile_hash));
}

uint64_t FleetConfigHash(const FleetConfig& config, uint64_t firmware_hash) {
  const std::string canonical = FleetConfigCanonical(config, firmware_hash);
  return Fnv1a64(reinterpret_cast<const uint8_t*>(canonical.data()), canonical.size());
}

uint64_t FleetConfigHash(const FleetConfig& config, uint64_t firmware_hash,
                         uint64_t profile_hash) {
  const std::string canonical = FleetConfigCanonical(config, firmware_hash, profile_hash);
  return Fnv1a64(reinterpret_cast<const uint8_t*>(canonical.data()), canonical.size());
}

std::vector<uint8_t> EncodeFleetCheckpoint(const FleetCheckpoint& checkpoint) {
  SnapshotWriter w;
  w.U32(kFleetCheckpointMagic);
  w.U32(kFleetCheckpointVersion);
  w.U8(static_cast<uint8_t>(checkpoint.kind));

  w.BeginSection(FleetCheckpointSection::kFleetConfig);
  w.U64(checkpoint.config_hash);
  w.Str(checkpoint.config_text);
  w.EndSection();

  w.BeginSection(FleetCheckpointSection::kFleetTemplate);
  w.U32(static_cast<uint32_t>(checkpoint.template_snapshot.bytes.size()));
  w.Bytes(checkpoint.template_snapshot.bytes.data(),
          checkpoint.template_snapshot.bytes.size());
  w.EndSection();

  w.BeginSection(FleetCheckpointSection::kFleetMetrics);
  checkpoint.metrics.SaveState(w);
  w.EndSection();

  w.BeginSection(FleetCheckpointSection::kFleetDevices);
  WriteDeviceRows(w, checkpoint.devices);
  w.EndSection();

  w.BeginSection(FleetCheckpointSection::kFleetBitmap);
  w.U32(static_cast<uint32_t>(checkpoint.device_count));
  const size_t bitmap_bytes = (static_cast<size_t>(checkpoint.device_count) + 7) / 8;
  std::vector<uint8_t> bitmap(bitmap_bytes, 0);
  for (int i = 0; i < checkpoint.device_count; ++i) {
    if (i < static_cast<int>(checkpoint.completed.size()) && checkpoint.completed[i]) {
      bitmap[static_cast<size_t>(i) / 8] |= static_cast<uint8_t>(1u << (i % 8));
    }
  }
  w.Bytes(bitmap.data(), bitmap.size());
  w.EndSection();

  w.BeginSection(FleetCheckpointSection::kFleetLedger);
  checkpoint.faults.SaveState(w);
  w.EndSection();

  w.BeginSection(FleetCheckpointSection::kFleetShard);
  w.U32(static_cast<uint32_t>(checkpoint.shard_index));
  w.U32(static_cast<uint32_t>(checkpoint.shard_count));
  w.EndSection();

  w.BeginSection(FleetCheckpointSection::kFleetProfile);
  w.U64(checkpoint.profile_hash);
  w.Str(checkpoint.profile_text);
  w.EndSection();

  if (checkpoint.kind == FleetCheckpointKind::kCampaign) {
    w.BeginSection(FleetCheckpointSection::kCampaignDevices);
    WriteCampaignRows(w, checkpoint.campaign_devices);
    w.EndSection();
  }

  // Whole-file integrity trailer: FNV-1a 64 over everything written so far.
  std::vector<uint8_t> bytes = w.Take();
  const uint64_t sum = Fnv1a64(bytes.data(), bytes.size());
  for (int i = 0; i < 8; ++i) {
    bytes.push_back(static_cast<uint8_t>(sum >> (8 * i)));
  }
  return bytes;
}

namespace {

Result<FleetCheckpoint> DecodeAmfc(const std::vector<uint8_t>& bytes) {
  // Header + trailer minimum: magic, version, kind byte, checksum.
  if (bytes.size() < 4 + 4 + 1 + 8) {
    return InvalidArgumentError("fleet checkpoint truncated");
  }
  {
    uint32_t magic = 0;
    std::memcpy(&magic, bytes.data(), 4);
    if (magic != kFleetCheckpointMagic) {
      return InvalidArgumentError(StrFormat("not a fleet checkpoint (magic 0x%08x)", magic));
    }
    uint32_t version = 0;
    std::memcpy(&version, bytes.data() + 4, 4);
    if (version == 1) {
      return InvalidArgumentError(
          "fleet checkpoint version 1 was written by an older build and cannot be "
          "resumed (v2 added firmware hashing, watchdog counters, and an integrity "
          "checksum); delete the checkpoint and re-run without --resume");
    }
    if (version == 2) {
      return InvalidArgumentError(
          "fleet checkpoint version 2 was written by an older build and cannot be "
          "resumed (v3 added the instructions-retired column to device rows); delete "
          "the checkpoint and re-run without --resume");
    }
    if (version == 3) {
      return InvalidArgumentError(
          "fleet checkpoint version 3 was written by an older build and cannot be "
          "resumed (v4 added the fault-ledger section); delete the checkpoint and "
          "re-run without --resume");
    }
    if (version == 4) {
      return InvalidArgumentError(
          "fleet checkpoint version 4 was written by an older build and cannot be "
          "resumed (v5 added shard-slice and population-profile sections and changed "
          "the per-device seed mixer, so v4 device results are stale); delete the "
          "checkpoint and re-run without --resume");
    }
    if (version != kFleetCheckpointVersion) {
      return InvalidArgumentError(
          StrFormat("unsupported fleet checkpoint version %u (supported: %u)", version,
                    kFleetCheckpointVersion));
    }
  }
  // Verify the whole-file checksum before trusting any section content, so
  // truncation and bit flips are rejected up front.
  const size_t body_size = bytes.size() - 8;
  uint64_t stored_sum = 0;
  std::memcpy(&stored_sum, bytes.data() + body_size, 8);
  if (Fnv1a64(bytes.data(), body_size) != stored_sum) {
    return InvalidArgumentError(
        "fleet checkpoint checksum mismatch (file is truncated or corrupt)");
  }
  const std::vector<uint8_t> body(bytes.begin(), bytes.begin() + body_size);

  SnapshotReader r(body);
  (void)r.U32();  // magic, validated above
  (void)r.U32();  // version, validated above
  const uint8_t kind_byte = r.U8();
  if (r.ok() && kind_byte > static_cast<uint8_t>(FleetCheckpointKind::kCampaign)) {
    return InvalidArgumentError(
        StrFormat("fleet checkpoint has unknown kind %u", kind_byte));
  }

  FleetCheckpoint out;
  out.kind = static_cast<FleetCheckpointKind>(kind_byte);
  r.EnterSection(FleetCheckpointSection::kFleetConfig);
  out.config_hash = r.U64();
  out.config_text = r.Str();
  r.LeaveSection();

  r.EnterSection(FleetCheckpointSection::kFleetTemplate);
  out.template_snapshot.bytes = r.Blob(r.U32());
  r.LeaveSection();

  r.EnterSection(FleetCheckpointSection::kFleetMetrics);
  if (r.ok()) {
    const Status metrics_status = out.metrics.LoadState(r);
    if (!metrics_status.ok()) {
      return AsCheckpointError(metrics_status);
    }
  }
  r.LeaveSection();

  r.EnterSection(FleetCheckpointSection::kFleetDevices);
  ReadDeviceRows(r, &out.devices);
  r.LeaveSection();

  r.EnterSection(FleetCheckpointSection::kFleetBitmap);
  out.device_count = static_cast<int>(r.U32());
  if (r.ok()) {
    if (out.device_count <= 0) {
      return InvalidArgumentError("fleet checkpoint has no devices");
    }
    const std::vector<uint8_t> bitmap =
        r.Blob((static_cast<size_t>(out.device_count) + 7) / 8);
    if (r.ok()) {
      out.completed.assign(static_cast<size_t>(out.device_count), false);
      for (int i = 0; i < out.device_count; ++i) {
        out.completed[i] = (bitmap[static_cast<size_t>(i) / 8] >> (i % 8) & 1u) != 0;
      }
    }
  }
  r.LeaveSection();

  r.EnterSection(FleetCheckpointSection::kFleetLedger);
  if (r.ok()) {
    const Status ledger_status = out.faults.LoadState(r);
    if (!ledger_status.ok()) {
      return AsCheckpointError(ledger_status);
    }
  }
  r.LeaveSection();

  r.EnterSection(FleetCheckpointSection::kFleetShard);
  out.shard_index = static_cast<int>(r.U32());
  out.shard_count = static_cast<int>(r.U32());
  r.LeaveSection();
  if (r.ok() && (out.shard_count < 1 || out.shard_index < 0 ||
                 out.shard_index >= out.shard_count)) {
    return InvalidArgumentError(StrFormat("fleet checkpoint has invalid shard slice %d/%d",
                                          out.shard_index, out.shard_count));
  }

  r.EnterSection(FleetCheckpointSection::kFleetProfile);
  out.profile_hash = r.U64();
  out.profile_text = r.Str();
  r.LeaveSection();

  if (out.kind == FleetCheckpointKind::kCampaign && r.ok()) {
    r.EnterSection(FleetCheckpointSection::kCampaignDevices);
    ReadCampaignRows(r, &out.campaign_devices);
    r.LeaveSection();
  }

  if (!r.ok()) {
    return AsCheckpointError(r.status());
  }
  if (!r.AtEnd()) {
    return InvalidArgumentError("fleet checkpoint has trailing bytes");
  }
  // Cross-section consistency: every retained row names a completed device,
  // at most once. Campaign rows follow the same rule independently.
  std::vector<bool> seen(static_cast<size_t>(out.device_count), false);
  for (const DeviceStats& d : out.devices) {
    if (d.device_id < 0 || d.device_id >= out.device_count) {
      return InvalidArgumentError(
          StrFormat("fleet checkpoint row for out-of-range device %d", d.device_id));
    }
    if (!out.completed[d.device_id] || seen[d.device_id]) {
      return InvalidArgumentError(StrFormat(
          "fleet checkpoint row for device %d contradicts the completed bitmap",
          d.device_id));
    }
    seen[d.device_id] = true;
  }
  std::vector<bool> seen_campaign(static_cast<size_t>(out.device_count), false);
  for (const CampaignDeviceRecord& rec : out.campaign_devices) {
    if (rec.device_id < 0 || rec.device_id >= out.device_count) {
      return InvalidArgumentError(StrFormat(
          "fleet checkpoint campaign row for out-of-range device %d", rec.device_id));
    }
    if (!out.completed[rec.device_id] || seen_campaign[rec.device_id]) {
      return InvalidArgumentError(StrFormat(
          "fleet checkpoint campaign row for device %d contradicts the completed bitmap",
          rec.device_id));
    }
    seen_campaign[rec.device_id] = true;
  }
  // A shard checkpoint may only claim devices inside its slice.
  if (out.shard_count > 1) {
    const ShardRange range =
        ShardRangeFor(out.device_count, out.shard_index, out.shard_count);
    for (int i = 0; i < out.device_count; ++i) {
      if (out.completed[static_cast<size_t>(i)] && !range.Contains(i)) {
        return InvalidArgumentError(StrFormat(
            "fleet checkpoint for shard %d/%d claims device %d outside its slice "
            "[%d, %d)",
            out.shard_index, out.shard_count, i, range.lo, range.hi));
      }
    }
  }
  return out;
}

// Rows, when a record has any, are its devices in id-list order.
template <typename Row>
bool RowsFollowIds(const std::vector<Row>& rows, const std::vector<int>& ids) {
  if (rows.empty()) {
    return true;
  }
  if (rows.size() != ids.size()) {
    return false;
  }
  for (size_t k = 0; k < ids.size(); ++k) {
    if (rows[k].device_id != ids[k]) {
      return false;
    }
  }
  return true;
}

// Replays one checksum-verified journal record onto `out`.
Status ApplyJournalRecord(const std::vector<uint8_t>& payload, int record,
                          FleetCheckpoint* out) {
  SnapshotReader r(payload);
  std::vector<int> ids;
  const uint32_t id_count = r.U32();
  for (uint32_t i = 0; r.ok() && i < id_count; ++i) {
    ids.push_back(static_cast<int>(r.U32()));
  }
  std::vector<DeviceStats> rows;
  ReadDeviceRows(r, &rows);
  std::vector<CampaignDeviceRecord> campaign_rows;
  if (out->kind == FleetCheckpointKind::kCampaign) {
    ReadCampaignRows(r, &campaign_rows);
  }
  // Each LoadState returns the reader's status, so an earlier short read
  // surfaces here too.
  MetricRegistry metrics;
  RETURN_IF_ERROR(AsCheckpointError(metrics.LoadState(r)));
  FaultLedger faults;
  RETURN_IF_ERROR(AsCheckpointError(faults.LoadState(r)));
  if (!r.AtEnd()) {
    return InvalidArgumentError(
        StrFormat("fleet checkpoint journal record %d has trailing bytes", record));
  }
  const ShardRange slice =
      ShardRangeFor(out->device_count, out->shard_index, out->shard_count);
  for (int id : ids) {
    if (id < 0 || id >= out->device_count) {
      return InvalidArgumentError(StrFormat(
          "fleet checkpoint journal record %d names out-of-range device %d", record, id));
    }
    if (!slice.Contains(id)) {
      return InvalidArgumentError(StrFormat(
          "fleet checkpoint journal record %d names device %d outside shard %d/%d's slice "
          "[%d, %d)",
          record, id, out->shard_index, out->shard_count, slice.lo, slice.hi));
    }
    if (out->completed[static_cast<size_t>(id)]) {
      return InvalidArgumentError(StrFormat(
          "fleet checkpoint journal record %d completes device %d a second time", record,
          id));
    }
    out->completed[static_cast<size_t>(id)] = true;
  }
  if (!RowsFollowIds(rows, ids) || !RowsFollowIds(campaign_rows, ids)) {
    return InvalidArgumentError(StrFormat(
        "fleet checkpoint journal record %d has rows that do not match its devices", record));
  }
  out->devices.insert(out->devices.end(), rows.begin(), rows.end());
  out->campaign_devices.insert(out->campaign_devices.end(), campaign_rows.begin(),
                               campaign_rows.end());
  out->metrics.Merge(metrics);
  out->faults.Merge(faults);
  return OkStatus();
}

Result<FleetCheckpoint> DecodeJournal(const std::vector<uint8_t>& bytes) {
  SnapshotReader r(bytes);
  (void)r.U32();  // magic, checked by the caller
  const uint32_t version = r.U32();
  if (r.ok() && version != kFleetCheckpointVersion) {
    return InvalidArgumentError(
        StrFormat("unsupported fleet checkpoint journal version %u (supported: %u)", version,
                  kFleetCheckpointVersion));
  }
  const std::vector<uint8_t> base = r.Blob(r.U64());
  if (!r.ok()) {
    return InvalidArgumentError("fleet checkpoint journal truncated inside its base");
  }
  ASSIGN_OR_RETURN(FleetCheckpoint out, DecodeAmfc(base));
  for (int record = 0; !r.AtEnd(); ++record) {
    const uint32_t length = r.U32();
    const std::vector<uint8_t> payload = r.Blob(length);
    const uint64_t sum = r.U64();
    if (!r.ok()) {
      break;  // short: only the last record can be, and it is a torn append
    }
    if (Fnv1a64(payload.data(), payload.size()) != sum) {
      if (r.AtEnd()) {
        break;  // a torn last append
      }
      return InvalidArgumentError(StrFormat(
          "fleet checkpoint journal record %d fails its checksum and is not the last",
          record));
    }
    RETURN_IF_ERROR(ApplyJournalRecord(payload, record, &out));
  }
  std::sort(out.devices.begin(), out.devices.end(),
            [](const DeviceStats& a, const DeviceStats& b) { return a.device_id < b.device_id; });
  std::sort(out.campaign_devices.begin(), out.campaign_devices.end(),
            [](const CampaignDeviceRecord& a, const CampaignDeviceRecord& b) {
              return a.device_id < b.device_id;
            });
  return out;
}

}  // namespace

Result<FleetCheckpoint> DecodeFleetCheckpoint(const std::vector<uint8_t>& bytes) {
  uint32_t magic = 0;
  if (bytes.size() >= 4) {
    std::memcpy(&magic, bytes.data(), 4);
  }
  return magic == kFleetJournalMagic ? DecodeJournal(bytes) : DecodeAmfc(bytes);
}

Status WriteFleetCheckpoint(const std::string& path, const FleetCheckpoint& checkpoint) {
  return ReplaceFile(path, EncodeFleetCheckpoint(checkpoint), /*keep_open=*/false).status();
}

Result<FleetCheckpoint> ReadFleetCheckpoint(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return NotFoundError(StrFormat("no fleet checkpoint at %s", path.c_str()));
  }
  std::vector<uint8_t> bytes;
  uint8_t buffer[64 * 1024];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    bytes.insert(bytes.end(), buffer, buffer + n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return InternalError(StrFormat("error reading %s", path.c_str()));
  }
  return DecodeFleetCheckpoint(bytes);
}

Result<std::unique_ptr<FleetCheckpointJournal>> FleetCheckpointJournal::Create(
    const std::string& path, const FleetCheckpoint& base) {
  const std::vector<uint8_t> amfc = EncodeFleetCheckpoint(base);
  SnapshotWriter w;
  w.U32(kFleetJournalMagic);
  w.U32(kFleetCheckpointVersion);
  w.U64(amfc.size());
  w.Bytes(amfc.data(), amfc.size());
  ASSIGN_OR_RETURN(std::FILE* file, ReplaceFile(path, w.bytes(), /*keep_open=*/true));
  return std::unique_ptr<FleetCheckpointJournal>(
      new FleetCheckpointJournal(file, path, base.kind));
}

FleetCheckpointJournal::FleetCheckpointJournal(std::FILE* file, std::string path,
                                               FleetCheckpointKind kind)
    : file_(file), path_(std::move(path)), kind_(kind) {}

FleetCheckpointJournal::~FleetCheckpointJournal() { std::fclose(file_); }

Status FleetCheckpointJournal::Append(const FleetCheckpointDelta& delta) {
  const std::vector<uint8_t> record = EncodeJournalRecord(kind_, delta);
  if (std::fwrite(record.data(), 1, record.size(), file_) != record.size() ||
      std::fflush(file_) != 0) {
    return InternalError(StrFormat("short append to %s", path_.c_str()));
  }
  return OkStatus();
}

}  // namespace amulet
