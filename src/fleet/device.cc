#include "src/fleet/device.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/strings.h"
#include "src/ota/image.h"

namespace amulet {
namespace fleet_internal {

namespace {
constexpr double kMsPerWeek = 7 * 24 * 3600 * 1000.0;
}  // namespace

uint32_t Mix32(uint32_t x) {
  x ^= x >> 16;
  x *= 0x85EBCA6Bu;
  x ^= x >> 13;
  x *= 0xC2B2AE35u;
  x ^= x >> 16;
  return x;
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

uint32_t DeviceSeed(uint32_t fleet_seed, int device_id) {
  const uint64_t mixed = SplitMix64(
      (static_cast<uint64_t>(fleet_seed) << 32) | static_cast<uint32_t>(device_id));
  return static_cast<uint32_t>(mixed ^ (mixed >> 32));
}

ActivityMode ModeFor(uint32_t device_seed) {
  switch (Mix32(device_seed) % 3) {
    case 0:
      return ActivityMode::kRest;
    case 1:
      return ActivityMode::kWalking;
    default:
      return ActivityMode::kRunning;
  }
}

Result<const AppSpec*> FindSuiteApp(const std::string& name) {
  for (const AppSpec& app : AmuletAppSuite()) {
    if (app.name == name) {
      return &app;
    }
  }
  if (name == SyntheticApp().name) {
    return &SyntheticApp();
  }
  if (name == ActivityApp().name) {
    return &ActivityApp();
  }
  if (name == QuicksortApp().name) {
    return &QuicksortApp();
  }
  if (name == CrasherApp().name) {
    return &CrasherApp();
  }
  return NotFoundError(StrFormat("unknown fleet app '%s'", name.c_str()));
}

Result<std::vector<AppSource>> ResolveApps(std::vector<std::string>* names) {
  if (names->empty()) {
    for (const AppSpec& app : AmuletAppSuite()) {
      names->push_back(app.name);
    }
  }
  std::vector<AppSource> sources;
  for (const std::string& name : *names) {
    ASSIGN_OR_RETURN(const AppSpec* spec, FindSuiteApp(name));
    sources.push_back({spec->name, spec->source});
  }
  return sources;
}

DataRegions DataRegions::For(const Firmware& firmware) {
  DataRegions regions;
  for (const AppImage& app : firmware.apps) {
    regions.spans.emplace_back(app.data_lo, app.data_hi);
  }
  return regions;
}

ClonedDevice::ClonedDevice(std::shared_ptr<const Firmware> firmware, int fram_wait_states,
                           uint32_t device_seed)
    : os_(&machine_, std::move(firmware), [&] {
        OsOptions options;
        options.fram_wait_states = fram_wait_states;
        options.fault_policy = FaultPolicy::kRestartApp;
        options.sensor_seed = device_seed;
        return options;
      }()) {}

Result<std::unique_ptr<ClonedDevice>> ClonedDevice::Clone(uint32_t device_seed,
                                                          int fram_wait_states,
                                                          const Firmware& firmware,
                                                          const MachineSnapshot& snapshot,
                                                          const AmuletOs& booted,
                                                          bool predecode,
                                                          bool flight_recorder) {
  if (firmware.apps.size() != static_cast<size_t>(booted.app_count())) {
    return InvalidArgumentError(StrFormat("firmware has %zu app(s) but template has %d",
                                          firmware.apps.size(), booted.app_count()));
  }
  std::unique_ptr<ClonedDevice> device(
      new ClonedDevice(booted.shared_firmware(), fram_wait_states, device_seed));
  device->machine_.cpu().set_predecode(predecode);
  RETURN_IF_ERROR(device->os_.BootFromSnapshot(snapshot, booted));
  if (flight_recorder) {
    device->os_.AttachFlightRecorder(&device->flight_);
  }
  // The clone carries the template's sensor/RNG state; apply this device's
  // identity before any event is delivered.
  device->os_.sensors().Reseed(device_seed);
  device->os_.sensors().set_mode(ModeFor(device_seed));
  return device;
}

Status ClonedDevice::Run(uint64_t sim_ms, const DataRegions& regions, DeviceStats* out,
                         FaultLedger* ledger) {
  const size_t faults_watermark = os_.faults().size();
  machine_.bus().SetCountedRegions(regions.spans);

  // Deltas relative to the call point, so neither the template's boot cost
  // nor a previous phase of the same device leaks into this span's numbers.
  const uint64_t data_accesses_before = machine_.bus().counted_accesses();
  const uint64_t cycles_before = machine_.cpu().cycle_count();
  const uint64_t instructions_before = machine_.cpu().instruction_count();
  const uint64_t syscalls_before = machine_.hostio().syscall_count();
  const uint64_t pucs_before = machine_.puc_count();
  const uint64_t wdt_before = machine_.watchdog().expiries();
  uint64_t dispatches_before = 0;
  uint64_t faults_before = 0;
  uint64_t restarts_before = 0;
  for (int i = 0; i < os_.app_count(); ++i) {
    dispatches_before += os_.stats(i).dispatches;
    faults_before += os_.stats(i).faults;
    restarts_before += os_.stats(i).restarts;
  }
  RETURN_IF_ERROR(os_.RunFor(sim_ms));

  out->cycles += machine_.cpu().cycle_count() - cycles_before;
  out->instructions += machine_.cpu().instruction_count() - instructions_before;
  out->data_accesses += machine_.bus().counted_accesses() - data_accesses_before;
  out->syscalls += machine_.hostio().syscall_count() - syscalls_before;
  out->pucs += machine_.puc_count() - pucs_before;
  uint64_t dispatches_after = 0;
  uint64_t faults_after = 0;
  uint64_t restarts_after = 0;
  for (int i = 0; i < os_.app_count(); ++i) {
    dispatches_after += os_.stats(i).dispatches;
    faults_after += os_.stats(i).faults;
    restarts_after += os_.stats(i).restarts;
  }
  out->dispatches += dispatches_after - dispatches_before;
  out->faults += faults_after - faults_before;
  // A fault-forced app restart is a watchdog-style reset on real hardware
  // (the MPU NMI path ends in a restart, cf. the paper's fault recovery), so
  // both genuine WDT expiries and forced restarts count here.
  out->watchdog_resets += (machine_.watchdog().expiries() - wdt_before) +
                          (restarts_after - restarts_before);
  if (ledger != nullptr) {
    for (size_t i = faults_watermark; i < os_.faults().size(); ++i) {
      const FaultRecord& record = os_.faults()[i];
      std::string app_name;
      if (record.app_index >= 0 &&
          record.app_index < static_cast<int>(os_.firmware().apps.size())) {
        app_name = os_.firmware().apps[record.app_index].name;
      }
      ledger->Record(record, out->device_id, app_name);
    }
  }
  return OkStatus();
}

Result<std::unique_ptr<ClonedDevice>> CohortRuntime::Clone(uint32_t device_seed,
                                                           const FleetConfig& config) const {
  return ClonedDevice::Clone(device_seed, config.fram_wait_states, firmware(), snapshot, *os,
                             config.predecode, config.flight_recorder);
}

Result<std::unique_ptr<CohortRuntime>> BootCohort(const Cohort& cohort,
                                                  const FleetConfig& config) {
  auto runtime = std::make_unique<CohortRuntime>();
  runtime->cohort = cohort;
  ASSIGN_OR_RETURN(std::vector<AppSource> sources, ResolveApps(&runtime->cohort.apps));
  AftOptions aft;
  aft.model = cohort.model;
  aft.optimize_checks = config.check_opt;
  ASSIGN_OR_RETURN(Firmware firmware, BuildFirmware(sources, aft));

  runtime->machine = std::make_unique<Machine>();
  runtime->machine->cpu().set_predecode(config.predecode);
  OsOptions template_options;
  template_options.fram_wait_states = config.fram_wait_states;
  template_options.fault_policy = FaultPolicy::kRestartApp;
  template_options.sensor_seed = config.fleet_seed;
  runtime->os = std::make_unique<AmuletOs>(runtime->machine.get(), std::move(firmware),
                                           template_options);
  runtime->regions = DataRegions::For(runtime->firmware());
  RETURN_IF_ERROR(runtime->os->Boot());
  runtime->snapshot = CaptureSnapshot(*runtime->machine);
  runtime->firmware_hash = FirmwareImageHash(runtime->firmware().image);
  return runtime;
}

DeviceRunner::DeviceRunner(const FleetConfig& config, const char* label,
                           FleetCheckpoint identity, MetricRegistry* metrics,
                           FaultLedger* ledger, AddRows add_rows)
    : config_(config),
      label_(label),
      identity_(std::move(identity)),
      metrics_(metrics),
      ledger_(ledger),
      add_rows_(std::move(add_rows)),
      executor_(config.jobs),
      completed_(static_cast<size_t>(identity_.device_count), false),
      last_checkpoint_(std::chrono::steady_clock::now()) {}

Status DeviceRunner::Resume(const FleetCheckpoint& resume) {
  const FleetCheckpoint& run = identity_;
  if (resume.kind != run.kind) {
    return InvalidArgumentError(
        run.kind == FleetCheckpointKind::kFleet
            ? "checkpoint was written by a campaign run; resume it with the campaign driver"
            : "checkpoint was written by a plain fleet run; resume it without --campaign");
  }
  // Specific shard/profile mismatches before the generic config-hash check,
  // so a wrong --shard or --profile names both values instead of dumping two
  // canonical strings.
  if (resume.shard_index != run.shard_index || resume.shard_count != run.shard_count) {
    const ShardRange ckpt = ShardRangeFor(run.device_count, resume.shard_index, resume.shard_count);
    const ShardRange want = ShardRangeFor(run.device_count, run.shard_index, run.shard_count);
    return InvalidArgumentError(StrFormat(
        "checkpoint shard mismatch: checkpoint covers shard %d/%d (devices [%d, %d)), "
        "this run requests shard %d/%d (devices [%d, %d))",
        resume.shard_index, resume.shard_count, ckpt.lo, ckpt.hi, run.shard_index,
        run.shard_count, want.lo, want.hi));
  }
  if (resume.profile_hash != run.profile_hash) {
    return InvalidArgumentError(StrFormat(
        "checkpoint profile mismatch: checkpoint profile hash %016llx [%s], this run's "
        "profile hash %016llx [%s]",
        static_cast<unsigned long long>(resume.profile_hash),
        resume.profile_hash == 0 ? "homogeneous" : resume.profile_text.c_str(),
        static_cast<unsigned long long>(run.profile_hash),
        run.profile_hash == 0 ? "homogeneous" : run.profile_text.c_str()));
  }
  if (resume.config_hash != run.config_hash) {
    return InvalidArgumentError(
        StrFormat("checkpoint config mismatch: checkpoint was written by [%s], this run is [%s]",
                  resume.config_text.c_str(), run.config_text.c_str()));
  }
  if (resume.template_snapshot.bytes != run.template_snapshot.bytes) {
    return InvalidArgumentError(
        "checkpoint template snapshot does not match the one this build and config produce");
  }
  *metrics_ = resume.metrics;
  *ledger_ = resume.faults;
  completed_ = resume.completed;
  return OkStatus();
}

bool DeviceRunner::Run(const std::vector<int>& ids, const Body& body) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!config_.checkpoint_path.empty() && journal_ == nullptr && checkpoint_status_.ok()) {
      Result<std::unique_ptr<FleetCheckpointJournal>> journal =
          FleetCheckpointJournal::Create(config_.checkpoint_path, Checkpoint());
      if (journal.ok()) {
        journal_ = std::move(*journal);
      } else {
        checkpoint_status_ = journal.status();
        cancelled_.store(true, std::memory_order_relaxed);
      }
    }
    batch_size_ = ids.size();
    batch_done_ = 0;
    batch_start_ = last_progress_ = std::chrono::steady_clock::now();
  }
  executor_.ParallelFor(ids.size(), [&](size_t k) {
    if (!cancelled_.load(std::memory_order_relaxed)) {
      RunOne(ids[k], body);
    }
  });
  return !cancelled_.load(std::memory_order_relaxed);
}

void DeviceRunner::RunOne(int id, const Body& body) {
  MetricRegistry device_metrics;
  FaultLedger device_ledger;
  const Status status = id == config_.fail_device_id
                            ? InternalError(StrFormat("injected failure on device %d", id))
                            : body(id, &device_metrics, &device_ledger);
  std::lock_guard<std::mutex> lock(mu_);
  ++batch_done_;
  if (!status.ok()) {
    if (failure_.ok() || id < failure_id_) {
      failure_ = status;
      failure_id_ = id;
    }
    cancelled_.store(true, std::memory_order_relaxed);
    return;
  }
  // Merge order varies with scheduling; the registry's and ledger's integer
  // state makes the result order-independent, and folding the pending delta
  // into the run later is one more merge.
  pending_.metrics.Merge(device_metrics);
  pending_.faults.Merge(device_ledger);
  completed_[static_cast<size_t>(id)] = true;
  ++completed_this_run_;
  if (config_.abort_after_devices > 0 && completed_this_run_ >= config_.abort_after_devices) {
    cancelled_.store(true, std::memory_order_relaxed);
  }
  if (journal_ != nullptr) {
    pending_.ids.push_back(id);
    if (pending_.ids.size() >= static_cast<size_t>(std::max(1, config_.checkpoint_every_devices)) ||
        SecondsSince(last_checkpoint_) >= config_.checkpoint_every_seconds) {
      add_rows_(pending_.ids, &pending_.devices, &pending_.campaign_devices);
      checkpoint_status_ = journal_->Append(pending_);
      if (!checkpoint_status_.ok()) {
        journal_.reset();
        cancelled_.store(true, std::memory_order_relaxed);
      }
      FoldPending();
      last_checkpoint_ = std::chrono::steady_clock::now();
    }
  }
  const size_t step = std::max<size_t>(1, batch_size_ / 20);
  if (config_.verbosity >= 1 && (batch_done_ == batch_size_ || batch_done_ % step == 0 ||
                                 SecondsSince(last_progress_) >= 2.0)) {
    last_progress_ = std::chrono::steady_clock::now();
    const double elapsed = SecondsSince(batch_start_);
    const double rate = elapsed > 0 ? static_cast<double>(batch_done_) / elapsed : 0.0;
    const double eta = rate > 0 ? static_cast<double>(batch_size_ - batch_done_) / rate : 0.0;
    std::fprintf(stderr, "%s: %zu/%zu devices (%.1f devices/s, ETA %.1f s)\n", label_,
                 batch_done_, batch_size_, rate, eta);
  }
}

void DeviceRunner::FoldPending() {
  metrics_->Merge(pending_.metrics);
  ledger_->Merge(pending_.faults);
  pending_ = FleetCheckpointDelta();
}

FleetCheckpoint DeviceRunner::Checkpoint() const {
  FleetCheckpoint cp = identity_;
  cp.metrics = *metrics_;
  cp.faults = *ledger_;
  cp.completed = completed_;
  std::vector<int> ids;
  for (size_t i = 0; i < completed_.size(); ++i) {
    if (completed_[i]) {
      ids.push_back(static_cast<int>(i));
    }
  }
  add_rows_(ids, &cp.devices, &cp.campaign_devices);
  return cp;
}

Status DeviceRunner::Finish() {
  std::lock_guard<std::mutex> lock(mu_);
  FoldPending();
  journal_.reset();
  // The final checkpoint is written on every exit path — success, device
  // error, abort — so no completed device's work is ever lost. It replaces
  // the journal with the AMFC file of the same state. After a failed
  // append the journal is left as it is; it is still a valid resume point.
  if (!config_.checkpoint_path.empty() && checkpoint_status_.ok()) {
    checkpoint_status_ = WriteFleetCheckpoint(config_.checkpoint_path, Checkpoint());
  }
  if (!failure_.ok()) {
    return Status(failure_.code(),
                  StrFormat("device %d: %s", failure_id_, failure_.message().c_str()));
  }
  RETURN_IF_ERROR(checkpoint_status_);
  if (config_.abort_after_devices > 0 && completed_this_run_ >= config_.abort_after_devices) {
    return CancelledError(StrFormat(
        "%s run cancelled after %d completed device(s) this run (abort_after_devices=%d)",
        label_, completed_this_run_, config_.abort_after_devices));
  }
  return OkStatus();
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double BatteryPercentFor(uint64_t cycles, uint64_t sim_ms, const EnergyModel& energy) {
  if (sim_ms == 0) {
    return 0;
  }
  const double cycles_per_week =
      static_cast<double>(cycles) * (kMsPerWeek / static_cast<double>(sim_ms));
  return energy.BatteryImpactPercent(cycles_per_week);
}

uint64_t BatteryMicroPercent(double percent) {
  if (percent <= 0) {
    return 0;
  }
  return static_cast<uint64_t>(std::llround(percent * 1e6));
}

void RecordDeviceMetrics(const DeviceStats& stats, MetricRegistry* m) {
  m->Add("fleet.devices", 1);
  for (const DeviceCounter& c : kDeviceCounters) {
    m->Add(std::string("fleet.") + c.name, stats.*c.stat);
    m->Observe(std::string("device.") + c.name, stats.*c.stat);
  }
  m->Observe("device.battery_upct", BatteryMicroPercent(stats.battery_impact_percent));
}

std::string DeviceDigestRow(const DeviceStats& stats) {
  std::string out = StrFormat("d%d:", stats.device_id);
  for (const DeviceCounter& c : kDeviceCounters) {
    out += StrFormat("%llu,", static_cast<unsigned long long>(stats.*c.stat));
  }
  out += StrFormat("%a", stats.battery_impact_percent);
  return out;
}

}  // namespace fleet_internal
}  // namespace amulet
