#include "src/fleet/campaign.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <numeric>
#include <utility>

#include "src/common/strings.h"
#include "src/fleet/checkpoint.h"
#include "src/fleet/device.h"
#include "src/ota/bootloader.h"
#include "src/ota/image.h"

namespace amulet {

namespace {

using fleet_internal::ClonedDevice;
using fleet_internal::CohortRuntime;
using fleet_internal::SecondsSince;

const std::vector<CampaignStage>& DefaultStages() {
  static const std::vector<CampaignStage> kStages = {
      {5, 0.25}, {50, 0.25}, {100, 0.25}};
  return kStages;
}

Status ValidateStages(const std::vector<CampaignStage>& stages) {
  if (stages.empty()) {
    return InvalidArgumentError("campaign needs at least one stage");
  }
  int prev = 0;
  for (const CampaignStage& stage : stages) {
    if (stage.percent <= prev || stage.percent > 100) {
      return InvalidArgumentError(
          StrFormat("campaign stage percents must be strictly increasing in (0, 100], "
                    "got %d after %d",
                    stage.percent, prev));
    }
    if (stage.max_failure_rate < 0 || stage.max_failure_rate > 1) {
      return InvalidArgumentError(
          StrFormat("campaign stage abort threshold %g is outside [0, 1]",
                    stage.max_failure_rate));
    }
    prev = stage.percent;
  }
  if (stages.back().percent != 100) {
    return InvalidArgumentError("the last campaign stage must roll out to 100%");
  }
  return OkStatus();
}

// Everything seed-relevant about a campaign, folded over the fleet canonical
// (which itself pins the old firmware's image hash): the new app list, both
// version numbers, the staging plan, rollout/health/storm parameters, the
// MAC key, the new firmware's image hash, and the FNV of the exact container
// bytes being deployed (so a tampered image cannot resume a clean campaign's
// checkpoint or vice versa).
std::string CampaignConfigCanonical(const CampaignConfig& config, uint64_t fw1_hash,
                                    uint64_t fw2_hash, uint64_t image_fnv) {
  std::string out = "campaign;";
  out += FleetConfigCanonical(config.fleet, fw1_hash);
  out += ";to_apps=";
  for (size_t i = 0; i < config.to_apps.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += config.to_apps[i];
  }
  out += StrFormat(";from=%u;to=%u;rollout=%u;health=%llu;storm=%d;stages=",
                   config.from_version, config.to_version, config.rollout_seed,
                   static_cast<unsigned long long>(config.health_ms),
                   config.storm_threshold);
  for (size_t i = 0; i < config.stages.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += StrFormat("%d:%a", config.stages[i].percent, config.stages[i].max_failure_rate);
  }
  out += StrFormat(";key=%04x%04x%04x%04x;fw2=%016llx;img=%016llx", config.key.words[0],
                   config.key.words[1], config.key.words[2], config.key.words[3],
                   static_cast<unsigned long long>(fw2_hash),
                   static_cast<unsigned long long>(image_fnv));
  return out;
}

void RecordCampaignDeviceMetrics(const CampaignDeviceRow& row, MetricRegistry* m) {
  fleet_internal::RecordDeviceMetrics(row.stats, m);
  switch (row.outcome) {
    case OtaOutcome::kUpdated:
      m->Add("campaign.updated", 1);
      break;
    case OtaOutcome::kRejected:
      m->Add("campaign.rejected", 1);
      break;
    case OtaOutcome::kRolledBack:
      m->Add("campaign.rolled_back", 1);
      break;
    case OtaOutcome::kNotAttempted:
      break;
  }
  m->Add(StrFormat("campaign.version.%u", row.firmware_version), 1);
  m->Add("campaign.verify_cycles", row.verify_cycles);
  m->Observe("device.verify_cycles", row.verify_cycles);
}

// Everything per-device work needs, shared read-only across worker threads.
struct CampaignContext {
  const CampaignConfig* config = nullptr;
  const CohortRuntime* from = nullptr;  // old firmware
  const CohortRuntime* to = nullptr;    // new firmware
  const OtaImage* deploy = nullptr;
};

// One device's full campaign experience: normal workload on the old
// firmware, bootloader MAC verification of the staged image on the simulated
// CPU, and — if the image is authentic — activation of the new bank plus a
// health window in which a watchdog-reset storm rolls the device back.
Status RunCampaignDevice(int device_id, const CampaignContext& ctx,
                         CampaignDeviceRow* row, FaultLedger* ledger) {
  const CampaignConfig& config = *ctx.config;
  const uint32_t device_seed =
      fleet_internal::DeviceSeed(config.fleet.fleet_seed, device_id);
  row->stats.device_id = device_id;
  row->firmware_version = config.from_version;

  // Phase 1: the device's ordinary workload on the old firmware.
  ASSIGN_OR_RETURN(std::unique_ptr<ClonedDevice> device,
                   ctx.from->Clone(device_seed, config.fleet));
  RETURN_IF_ERROR(device->Run(config.fleet.sim_ms, ctx.from->regions, &row->stats, ledger));

  // Phase 2: the bootloader verifies the staged image's MAC as simulated
  // MSP430 code; the cycle cost is this device's genuine verification bill.
  ASSIGN_OR_RETURN(
      MacVerifyRun verify,
      SimulateImageVerify(*ctx.deploy, config.key, config.fleet.fram_wait_states,
                          config.fleet.predecode));
  row->verify_cycles = verify.cycles;
  uint64_t span_ms = config.fleet.sim_ms;

  if (!verify.accepted) {
    row->outcome = OtaOutcome::kRejected;
  } else {
    // Phase 3: activate bank B and watch the health window. The health
    // phase gets its own derived seed so old- and new-firmware sensor
    // streams stay decorrelated but deterministic.
    const uint32_t health_seed = device_seed ^ fleet_internal::Mix32(config.to_version);
    ASSIGN_OR_RETURN(std::unique_ptr<ClonedDevice> updated,
                     ctx.to->Clone(health_seed, config.fleet));
    BlData bl;
    bl.active_bank = 1;
    bl.attempt_count = 1;
    bl.current_version = config.to_version;
    bl.prior_version = config.from_version;
    WriteBlData(&updated->machine().bus(), bl);

    DeviceStats health;
    health.device_id = device_id;
    RETURN_IF_ERROR(updated->Run(config.health_ms, ctx.to->regions, &health, ledger));
    for (const fleet_internal::DeviceCounter& c : fleet_internal::kDeviceCounters) {
      row->stats.*c.stat += health.*c.stat;
    }
    span_ms += config.health_ms;

    ASSIGN_OR_RETURN(BlData after, ReadBlData(updated->machine().bus()));
    const uint64_t storm = health.pucs + health.watchdog_resets;
    if (storm >= static_cast<uint64_t>(config.storm_threshold)) {
      // Watchdog-reset storm: the bootloader flips back to the known-good
      // bank and the device stays on the old version.
      after.active_bank = 0;
      after.attempt_count = 0;
      after.rollback_count = static_cast<uint16_t>(after.rollback_count + 1);
      after.current_version = config.from_version;
      after.prior_version = config.to_version;
      WriteBlData(&updated->machine().bus(), after);
      row->outcome = OtaOutcome::kRolledBack;
    } else {
      after.attempt_count = 0;
      WriteBlData(&updated->machine().bus(), after);
      row->outcome = OtaOutcome::kUpdated;
      row->firmware_version = config.to_version;
    }
  }
  row->stats.battery_impact_percent = fleet_internal::BatteryPercentFor(
      row->stats.cycles, span_ms, config.fleet.energy);
  return OkStatus();
}

Result<CampaignReport> RunCampaignImpl(const CampaignConfig& config_in,
                                       const FleetCheckpoint* resume) {
  CampaignConfig config = config_in;
  if (config.fleet.device_count <= 0) {
    return InvalidArgumentError("campaign needs at least one device");
  }
  if (config.to_version == config.from_version) {
    return InvalidArgumentError("campaign to_version must differ from from_version");
  }
  if (config.storm_threshold < 1) {
    return InvalidArgumentError("campaign storm_threshold must be >= 1");
  }
  if (config.fleet.shard_index != 0 || config.fleet.shard_count != 1) {
    return InvalidArgumentError(
        "campaigns do not support --shard: the staged rollout schedule is a "
        "fleet-wide ordering, so run the campaign on one host");
  }
  if (!config.fleet.profile.empty()) {
    return InvalidArgumentError(
        "campaigns do not support population profiles yet: the A/B firmware pair "
        "assumes one app mix per fleet");
  }
  if (config.stages.empty()) {
    config.stages = DefaultStages();
  }
  RETURN_IF_ERROR(ValidateStages(config.stages));
  // Stage accounting always needs per-device rows.
  config.fleet.retain_device_stats = true;
  if (config.to_apps.empty()) {
    config.to_apps = config.fleet.apps;
  }

  // Template boots for both firmware versions, built with the fleet's
  // check_opt; every device clones from these snapshots instead of
  // re-paying boot cost.
  const auto boot_t0 = std::chrono::steady_clock::now();
  Cohort from_cohort;
  from_cohort.apps = config.fleet.apps;
  from_cohort.model = config.fleet.model;
  Cohort to_cohort = from_cohort;
  to_cohort.apps = config.to_apps;
  ASSIGN_OR_RETURN(std::unique_ptr<CohortRuntime> from,
                   fleet_internal::BootCohort(from_cohort, config.fleet));
  ASSIGN_OR_RETURN(std::unique_ptr<CohortRuntime> to,
                   fleet_internal::BootCohort(to_cohort, config.fleet));
  config.fleet.apps = from->cohort.apps;
  config.to_apps = to->cohort.apps;

  // The deployed container: either the freshly packed new firmware or the
  // caller-supplied bytes (the tamper hook). Decode validates the transport
  // checksums; authenticity is each device's simulated MAC check.
  std::vector<uint8_t> deploy_bytes;
  if (config.image_override.empty()) {
    deploy_bytes = EncodeOtaImage(
        PackOtaImage(to->firmware().image, config.to_version, config.fleet.model, config.key));
  } else {
    deploy_bytes = config.image_override;
  }
  ASSIGN_OR_RETURN(OtaImage deploy, DecodeOtaImage(deploy_bytes));

  const int device_count = config.fleet.device_count;
  FleetCheckpoint identity;
  identity.kind = FleetCheckpointKind::kCampaign;
  identity.config_text = CampaignConfigCanonical(
      config, from->firmware_hash, to->firmware_hash,
      Fnv1a64(deploy_bytes.data(), deploy_bytes.size()));
  identity.config_hash =
      Fnv1a64(reinterpret_cast<const uint8_t*>(identity.config_text.data()),
              identity.config_text.size());
  identity.template_snapshot = from->snapshot;
  identity.device_count = device_count;

  CampaignReport report;
  report.config = config;
  report.snapshot_bytes = from->snapshot.bytes.size() + to->snapshot.bytes.size();
  report.boot_seconds = SecondsSince(boot_t0);
  report.devices.resize(static_cast<size_t>(device_count));
  for (int i = 0; i < device_count; ++i) {
    report.devices[static_cast<size_t>(i)].stats.device_id = i;
    report.devices[static_cast<size_t>(i)].firmware_version = config.from_version;
  }

  fleet_internal::DeviceRunner runner(
      config.fleet, "campaign", std::move(identity), &report.metrics, &report.faults,
      [&](const std::vector<int>& ids, std::vector<DeviceStats>* rows,
          std::vector<CampaignDeviceRecord>* campaign_rows) {
        for (int id : ids) {
          const CampaignDeviceRow& row = report.devices[static_cast<size_t>(id)];
          rows->push_back(row.stats);
          campaign_rows->push_back({id, static_cast<uint8_t>(row.outcome),
                                    row.firmware_version, row.verify_cycles});
        }
      });
  if (resume != nullptr) {
    RETURN_IF_ERROR(runner.Resume(*resume));
    report.resumed_devices = resume->CompletedCount();
    for (const DeviceStats& d : resume->devices) {
      report.devices[static_cast<size_t>(d.device_id)].stats = d;
    }
    for (const CampaignDeviceRecord& rec : resume->campaign_devices) {
      CampaignDeviceRow& row = report.devices[static_cast<size_t>(rec.device_id)];
      row.outcome = static_cast<OtaOutcome>(rec.outcome);
      row.firmware_version = rec.firmware_version;
      row.verify_cycles = rec.verify_cycles;
    }
  }
  report.config.fleet.jobs = runner.thread_count();

  CampaignContext ctx;
  ctx.config = &config;
  ctx.from = from.get();
  ctx.to = to.get();
  ctx.deploy = &deploy;
  auto body = [&](int id, MetricRegistry* metrics, FaultLedger* ledger) -> Status {
    CampaignDeviceRow row;
    RETURN_IF_ERROR(RunCampaignDevice(id, ctx, &row, ledger));
    RecordCampaignDeviceMetrics(row, metrics);
    report.devices[static_cast<size_t>(id)] = row;
    return OkStatus();
  };

  // Stage loop: each stage runs its not-yet-completed slice of the rollout
  // order, then its failure rate is evaluated over ALL its devices (restored
  // rows included) — so a resumed campaign replays identical abort decisions.
  const std::vector<int> order = CampaignRolloutOrder(device_count, config.rollout_seed);
  const auto run_t0 = std::chrono::steady_clock::now();
  size_t stage_begin = 0;
  for (size_t s = 0; s < config.stages.size(); ++s) {
    const CampaignStage& stage = config.stages[s];
    const size_t stage_end = std::min<size_t>(
        static_cast<size_t>(device_count),
        (static_cast<size_t>(device_count) * static_cast<size_t>(stage.percent) + 99) /
            100);
    std::vector<int> todo;
    for (size_t k = stage_begin; k < stage_end; ++k) {
      if (!runner.completed(order[k])) {
        todo.push_back(order[k]);
      }
    }
    if (config.fleet.verbosity >= 1) {
      std::fprintf(stderr, "campaign: stage %zu (%d%%): %zu device(s), %zu to run\n", s,
                   stage.percent, stage_end - stage_begin, todo.size());
    }
    if (!runner.Run(todo, body)) {
      // Kill, device failure, or checkpoint failure mid-stage; the stage is
      // incomplete, so no threshold decision is made here.
      break;
    }

    CampaignStageResult result;
    result.percent = stage.percent;
    result.first_slot = static_cast<int>(stage_begin);
    result.device_count = static_cast<int>(stage_end - stage_begin);
    for (size_t k = stage_begin; k < stage_end; ++k) {
      switch (report.devices[static_cast<size_t>(order[k])].outcome) {
        case OtaOutcome::kUpdated:
          ++result.updated;
          break;
        case OtaOutcome::kRejected:
          ++result.rejected;
          break;
        case OtaOutcome::kRolledBack:
          ++result.rolled_back;
          break;
        case OtaOutcome::kNotAttempted:
          break;
      }
    }
    if (result.device_count > 0) {
      result.failure_rate =
          static_cast<double>(result.rejected + result.rolled_back) /
          static_cast<double>(result.device_count);
    }
    if (result.failure_rate > stage.max_failure_rate) {
      result.aborted_after = true;
      report.aborted_stage = static_cast<int>(s);
      report.stages.push_back(result);
      break;
    }
    report.stages.push_back(result);
    stage_begin = stage_end;
  }
  report.run_seconds = SecondsSince(run_t0);
  RETURN_IF_ERROR(runner.Finish());

  // Devices a threshold abort left untouched stay on the old version; fold
  // them into the report-level version-skew counters (NOT the checkpointed
  // registry, which covers attempted devices only — resume re-derives this).
  uint64_t not_attempted = 0;
  for (const CampaignDeviceRow& row : report.devices) {
    if (row.outcome == OtaOutcome::kNotAttempted) {
      ++not_attempted;
    }
  }
  if (not_attempted > 0) {
    report.metrics.Add("campaign.not_attempted", not_attempted);
    report.metrics.Add(StrFormat("campaign.version.%u", config.from_version),
                       not_attempted);
  }
  return report;
}

}  // namespace

const char* OtaOutcomeName(OtaOutcome outcome) {
  switch (outcome) {
    case OtaOutcome::kNotAttempted:
      return "not-attempted";
    case OtaOutcome::kUpdated:
      return "updated";
    case OtaOutcome::kRejected:
      return "rejected";
    case OtaOutcome::kRolledBack:
      return "rolled-back";
  }
  return "unknown";
}

std::vector<int> CampaignRolloutOrder(int device_count, uint32_t rollout_seed) {
  std::vector<int> order(static_cast<size_t>(std::max(0, device_count)));
  std::iota(order.begin(), order.end(), 0);
  uint32_t state = rollout_seed ^ 0x9E3779B9u;
  for (size_t i = order.size(); i > 1; --i) {
    state = fleet_internal::Mix32(state + static_cast<uint32_t>(i));
    std::swap(order[i - 1], order[state % i]);
  }
  return order;
}

Result<CampaignReport> RunCampaign(const CampaignConfig& config) {
  return RunCampaignImpl(config, nullptr);
}

Result<CampaignReport> ResumeCampaign(const CampaignConfig& config) {
  if (config.fleet.checkpoint_path.empty()) {
    return InvalidArgumentError("ResumeCampaign requires fleet.checkpoint_path");
  }
  ASSIGN_OR_RETURN(FleetCheckpoint checkpoint,
                   ReadFleetCheckpoint(config.fleet.checkpoint_path));
  return RunCampaignImpl(config, &checkpoint);
}

std::string CampaignDigest(const CampaignReport& report) {
  std::string out;
  for (const CampaignDeviceRow& row : report.devices) {
    out += fleet_internal::DeviceDigestRow(row.stats) +
           StrFormat(",o%d,v%u,vc%llu\n", static_cast<int>(row.outcome), row.firmware_version,
                     static_cast<unsigned long long>(row.verify_cycles));
  }
  for (size_t s = 0; s < report.stages.size(); ++s) {
    const CampaignStageResult& r = report.stages[s];
    out += StrFormat("s%d:%d,%d,%d,%d,%d,%d,%a,%d\n", static_cast<int>(s), r.percent,
                     r.first_slot, r.device_count, r.updated, r.rejected, r.rolled_back,
                     r.failure_rate, r.aborted_after ? 1 : 0);
  }
  out += StrFormat("aborted_stage:%d\n", report.aborted_stage);
  out += "metrics:";
  out += report.metrics.ToJson();
  out += "\n";
  out += "ledger:\n";
  out += report.faults.DigestText();
  return out;
}

std::string RenderCampaignReport(const CampaignReport& report) {
  const CampaignConfig& config = report.config;
  std::string out = StrFormat(
      "campaign: %d device(s), v%u -> v%u, model=%s, rollout_seed=%u, %d worker "
      "thread(s)\n",
      config.fleet.device_count, config.from_version, config.to_version,
      std::string(MemoryModelName(config.fleet.model)).c_str(), config.rollout_seed,
      config.fleet.jobs);
  out += StrFormat(
      "workload %.1f s/device on v%u, health window %.1f s, storm threshold %d "
      "reset(s)\n",
      static_cast<double>(config.fleet.sim_ms) / 1000.0, config.from_version,
      static_cast<double>(config.health_ms) / 1000.0, config.storm_threshold);
  if (report.resumed_devices > 0) {
    out += StrFormat("resumed: %d device(s) restored from checkpoint\n",
                     report.resumed_devices);
  }
  out += StrFormat("boot %.3f s (snapshots %zu bytes); campaign run %.3f s\n",
                   report.boot_seconds, report.snapshot_bytes, report.run_seconds);
  out += StrFormat("  %-7s %8s %8s %8s %8s %10s %s\n", "stage", "devices", "updated",
                   "rejected", "rollback", "fail-rate", "");
  for (size_t s = 0; s < report.stages.size(); ++s) {
    const CampaignStageResult& r = report.stages[s];
    out += StrFormat("  %3d%%    %8d %8d %8d %8d %9.1f%% %s\n", r.percent, r.device_count,
                     r.updated, r.rejected, r.rolled_back, r.failure_rate * 100.0,
                     r.aborted_after ? "<- aborted" : "");
  }
  uint64_t updated = 0, rejected = 0, rolled_back = 0, not_attempted = 0;
  uint64_t verify_cycles = 0;
  for (const CampaignDeviceRow& row : report.devices) {
    verify_cycles += row.verify_cycles;
    switch (row.outcome) {
      case OtaOutcome::kUpdated:
        ++updated;
        break;
      case OtaOutcome::kRejected:
        ++rejected;
        break;
      case OtaOutcome::kRolledBack:
        ++rolled_back;
        break;
      case OtaOutcome::kNotAttempted:
        ++not_attempted;
        break;
    }
  }
  out += StrFormat(
      "outcomes: %llu updated, %llu rejected, %llu rolled back, %llu not attempted\n",
      static_cast<unsigned long long>(updated), static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(rolled_back),
      static_cast<unsigned long long>(not_attempted));
  out += StrFormat("version skew: %llu device(s) on v%u, %llu on v%u\n",
                   static_cast<unsigned long long>(rejected + rolled_back + not_attempted),
                   config.from_version, static_cast<unsigned long long>(updated),
                   config.to_version);
  out += StrFormat("MAC verification: %llu simulated cycles total across the fleet\n",
                   static_cast<unsigned long long>(verify_cycles));
  if (report.aborted_stage >= 0) {
    out += StrFormat("campaign ABORTED after stage %d exceeded its failure threshold\n",
                     report.aborted_stage);
    if (!report.faults.empty()) {
      out += "dominant fault buckets behind the abort:\n";
      const std::vector<const FaultBucket*> top = report.faults.TopK(3);
      for (size_t i = 0; i < top.size(); ++i) {
        const FaultBucket& b = *top[i];
        out += StrFormat(
            "  %zu. %llu fault(s) on %llu device(s): %s at pc %s in %s (%s)\n", i + 1,
            static_cast<unsigned long long>(b.count),
            static_cast<unsigned long long>(b.devices), FaultKindName(b.kind),
            HexWord(b.pc).c_str(), RegionTagName(b.scope),
            b.app_name.empty() ? b.description.c_str() : b.app_name.c_str());
      }
    }
  }
  return out;
}

}  // namespace amulet
