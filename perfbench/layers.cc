#include "perfbench/layers.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <optional>
#include <utility>

#include "src/aft/opt.h"
#include "src/apps/app_sources.h"
#include "src/asm/assembler.h"
#include "src/asm/linker.h"
#include "src/common/strings.h"
#include "src/compiler/codegen.h"
#include "src/compiler/lower.h"
#include "src/fleet/checkpoint.h"
#include "src/fleet/device.h"
#include "src/fleet/executor.h"
#include "src/lang/parser.h"
#include "src/mcu/machine.h"
#include "src/mcu/memory_map.h"
#include "src/os/os.h"
#include "src/ota/bootloader.h"
#include "src/ota/image.h"

namespace perfbench {

using amulet::AftOptions;
using amulet::AmuletOs;
using amulet::AppSource;
using amulet::CampaignConfig;
using amulet::CampaignDeviceRow;
using amulet::CampaignReport;
using amulet::CampaignStageResult;
using amulet::DeviceStats;
using amulet::FaultLedger;
using amulet::Firmware;
using amulet::FleetCheckpoint;
using amulet::FleetConfig;
using amulet::FleetReport;
using amulet::Machine;
using amulet::MachineSnapshot;
using amulet::MemoryModel;
using amulet::MetricRegistry;
using amulet::OtaOutcome;
using amulet::Result;
using amulet::Status;
using amulet::StrFormat;
using amulet::fleet_internal::ClonedDevice;
using amulet::fleet_internal::DataRegions;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* LayerName(Layer layer) {
  static const char* const kNames[] = {
      "aft.parse",         "aft.sema",         "aft.lower",       "aft.checks",
      "aft.opt",           "aft.codegen",      "aft.assemble",    "aft.build",
      "boot.template",     "boot.snapshot",    "clone",           "run",
      "record",            "merge.metrics",    "merge.ledger",    "checkpoint.encode",
      "checkpoint.write",  "executor.task",    "ota.pack",        "ota.decode",
      "ota.verify",
  };
  static_assert(sizeof(kNames) / sizeof(kNames[0]) == static_cast<size_t>(Layer::kCount));
  return kNames[static_cast<size_t>(layer)];
}

// ---------------------------------------------------------------------------
// Span recording

struct ThreadBuffer {
  int tid = 0;
  std::vector<SpanLog::Span> spans;
  std::vector<int32_t> open;  // stack of open span indices
};

SpanLog& SpanLog::Get() {
  static SpanLog log;
  return log;
}

ThreadBuffer* SpanLog::BufferForThisThread() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffer = buffers_.back().get();
    buffer->tid = static_cast<int>(buffers_.size());
    buffer->spans.reserve(1 << 14);
  }
  return buffer;
}

SpanLog::Scope::Scope(Layer layer, int device)
    : buf_(SpanLog::Get().BufferForThisThread()), index_(buf_->spans.size()) {
  Span span;
  span.layer = layer;
  span.device = device;
  span.parent = buf_->open.empty() ? -1 : buf_->open.back();
  buf_->open.push_back(static_cast<int32_t>(index_));
  span.start_ns = NowNs();
  buf_->spans.push_back(span);
}

SpanLog::Scope::~Scope() {
  buf_->spans[index_].end_ns = NowNs();
  buf_->open.pop_back();
}

std::map<Layer, SpanLog::LayerTotals> SpanLog::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<Layer, LayerTotals> totals;
  for (const auto& buffer : buffers_) {
    std::vector<int64_t> child_ns(buffer->spans.size(), 0);
    for (const Span& span : buffer->spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
      }
    }
    for (size_t i = 0; i < buffer->spans.size(); ++i) {
      const Span& span = buffer->spans[i];
      LayerTotals& t = totals[span.layer];
      t.self_ns += span.end_ns - span.start_ns - child_ns[i];
      t.count += 1;
      t.durations_ns.push_back(span.end_ns - span.start_ns);
    }
  }
  return totals;
}

int64_t SpanLog::TopLevelNs() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& buffer : buffers_) {
    for (const Span& span : buffer->spans) {
      if (span.parent < 0) {
        total += span.end_ns - span.start_ns;
      }
    }
  }
  return total;
}

Status SpanLog::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t origin = INT64_MAX;
  for (const auto& buffer : buffers_) {
    for (const Span& span : buffer->spans) {
      origin = std::min(origin, span.start_ns);
    }
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return amulet::InternalError("cannot write " + path);
  }
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  for (const auto& buffer : buffers_) {
    for (const Span& span : buffer->spans) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"device\":%d}}",
                   first ? "" : ",", LayerName(span.layer), buffer->tid,
                   static_cast<double>(span.start_ns - origin) / 1e3,
                   static_cast<double>(span.end_ns - span.start_ns) / 1e3, span.device);
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0 ? amulet::OkStatus()
                             : amulet::InternalError("cannot finish " + path);
}

// ---------------------------------------------------------------------------
// Unit outcomes

uint64_t Fnv(const std::string& text, uint64_t seed) {
  return amulet::Fnv1a64(reinterpret_cast<const uint8_t*>(text.data()), text.size(), seed);
}

void Accumulate(const UnitOutcome& unit, UnitOutcome* into) {
  into->setup_s += unit.setup_s;
  into->run_s += unit.run_s;
  into->wall_s += unit.wall_s;
  into->jobs = std::max(into->jobs, unit.jobs);
  into->devices += unit.devices;
  into->instructions += unit.instructions;
  into->cycles += unit.cycles;
  into->data_accesses += unit.data_accesses;
  into->faults += unit.faults;
  into->sim_seconds += unit.sim_seconds;
  into->digest = Fnv(StrFormat("%016llx", static_cast<unsigned long long>(unit.digest)),
                     into->digest == 0 ? 0xCBF29CE484222325ull : into->digest);
  into->ledger = Fnv(StrFormat("%016llx", static_cast<unsigned long long>(unit.ledger)),
                     into->ledger == 0 ? 0xCBF29CE484222325ull : into->ledger);
}

UnitOutcome FleetOutcome(const FleetReport& report, double wall_s) {
  UnitOutcome out;
  out.setup_s = report.boot_seconds;
  out.run_s = report.run_seconds;
  out.wall_s = wall_s;
  out.jobs = report.config.jobs;
  out.devices = static_cast<uint64_t>(report.config.device_count);
  const amulet::FleetAggregate& a = report.aggregate;
  out.instructions = a.total_instructions;
  out.cycles = a.total_cycles;
  out.data_accesses = a.total_data_accesses;
  out.faults = a.total_faults;
  out.sim_seconds = static_cast<double>(report.config.device_count) *
                    static_cast<double>(report.config.sim_ms) / 1000.0;
  out.digest = Fnv(amulet::FleetDigest(report));
  out.ledger = Fnv(report.faults.DigestText());
  return out;
}

UnitOutcome CampaignOutcome(const CampaignReport& report, double wall_s) {
  UnitOutcome out;
  out.setup_s = report.boot_seconds;
  out.run_s = report.run_seconds;
  out.wall_s = wall_s;
  out.jobs = report.config.fleet.jobs;
  uint64_t sim_ms = 0;
  for (const CampaignDeviceRow& row : report.devices) {
    if (row.outcome == OtaOutcome::kNotAttempted) {
      continue;
    }
    out.devices += 1;
    out.instructions += row.stats.instructions;
    out.cycles += row.stats.cycles;
    out.data_accesses += row.stats.data_accesses;
    out.faults += row.stats.faults;
    sim_ms += report.config.fleet.sim_ms;
    if (row.outcome != OtaOutcome::kRejected) {
      sim_ms += report.config.health_ms;
    }
  }
  out.sim_seconds = static_cast<double>(sim_ms) / 1000.0;
  out.digest = Fnv(amulet::CampaignDigest(report));
  out.ledger = Fnv(report.faults.DigestText());
  return out;
}

// ---------------------------------------------------------------------------
// AFT: the per-app phases of BuildFirmware, replayed under spans

namespace {

amulet::SemaOptions ApiSemaOptions() {
  amulet::SemaOptions options;
  for (const amulet::ApiEntry& entry : amulet::ApiTable()) {
    options.api_numbers[entry.name] = static_cast<int>(entry.id);
  }
  return options;
}

// Phases 1-3 of one app, as BuildFirmware runs them; returns the app's
// check statistics so the caller can compare them with the library build.
Result<amulet::CheckStats> ReplayAppPhases(const AppSource& app, const AftOptions& options) {
  using amulet::IrProgram;
  std::unique_ptr<amulet::Program> program;
  {
    SpanLog::Scope span(Layer::kAftParse);
    ASSIGN_OR_RETURN(program, amulet::Parse(amulet::ApiPrelude() + app.source, app.name));
  }
  amulet::FeatureAudit audit;
  {
    SpanLog::Scope span(Layer::kAftSema);
    RETURN_IF_ERROR(amulet::Analyze(program.get(), ApiSemaOptions(), &audit));
  }
  IrProgram ir;
  {
    SpanLog::Scope span(Layer::kAftLower);
    ASSIGN_OR_RETURN(ir, amulet::LowerProgram(program.get(), app.name));
    if (options.verify_ir) {
      RETURN_IF_ERROR(amulet::VerifyIr(ir, /*allow_markers=*/true));
    }
  }
  amulet::CheckStats checks;
  const amulet::BoundSymbols bounds = amulet::BoundSymbolsFor(app.name);
  {
    SpanLog::Scope span(Layer::kAftChecks);
    ASSIGN_OR_RETURN(checks, amulet::InsertChecks(&ir, options.model, bounds));
    if (options.verify_ir) {
      RETURN_IF_ERROR(amulet::VerifyIr(ir, /*allow_markers=*/false));
    }
  }
  if (options.optimize_checks) {
    SpanLog::Scope span(Layer::kAftOpt);
    amulet::CheckOptOptions opt;
    opt.frame_safe = !audit.uses_recursion && !audit.has_indirect_calls;
    ASSIGN_OR_RETURN(amulet::CheckOptStats stats, amulet::OptimizeChecks(&ir, bounds, opt));
    checks.elided_data_checks = stats.elided_data_checks;
    checks.elided_code_checks = stats.elided_code_checks;
    checks.elided_index_checks = stats.elided_index_checks;
    checks.hoisted_checks = stats.hoisted_checks;
    if (options.verify_ir) {
      RETURN_IF_ERROR(amulet::VerifyIr(ir, /*allow_markers=*/false));
    }
  }
  amulet::CodegenOptions cg;
  cg.text_section = "." + app.name + ".text";
  cg.data_section = "." + app.name + ".data";
  cg.use_hw_multiplier = options.use_hw_multiplier;
  amulet::CodegenResult code;
  {
    SpanLog::Scope span(Layer::kAftCodegen);
    ASSIGN_OR_RETURN(code, amulet::GenerateAssembly(ir, cg));
  }
  {
    SpanLog::Scope span(Layer::kAftAssemble);
    const std::string thunk = StrFormat(".section %s\n__thunk_%s:\n  call r11\n  ret\n",
                                        cg.text_section.c_str(), app.name.c_str());
    ASSIGN_OR_RETURN(amulet::ObjectFile thunk_obj, amulet::Assemble(thunk, app.name + "_thunk.s"));
    ASSIGN_OR_RETURN(amulet::ObjectFile obj, amulet::Assemble(code.assembly, app.name + ".s"));
    (void)thunk_obj;
    (void)obj;
  }
  return checks;
}

bool SameCheckStats(const amulet::CheckStats& a, const amulet::CheckStats& b) {
  return a.data_checks == b.data_checks && a.code_checks == b.code_checks &&
         a.index_checks == b.index_checks && a.ret_checks == b.ret_checks &&
         a.check_insts == b.check_insts && a.elided_data_checks == b.elided_data_checks &&
         a.elided_code_checks == b.elided_code_checks &&
         a.elided_index_checks == b.elided_index_checks &&
         a.hoisted_checks == b.hoisted_checks;
}

}  // namespace

Result<Firmware> TracedBuildFirmware(const std::vector<AppSource>& apps,
                                     const AftOptions& options, TraceTally* tally) {
  std::vector<amulet::CheckStats> replayed;
  for (const AppSource& app : apps) {
    ASSIGN_OR_RETURN(amulet::CheckStats checks, ReplayAppPhases(app, options));
    replayed.push_back(checks);
  }
  Result<Firmware> firmware = amulet::InternalError("unset");
  {
    SpanLog::Scope span(Layer::kAftBuild);
    firmware = amulet::BuildFirmware(apps, options);
  }
  RETURN_IF_ERROR(firmware.status());
  tally->images += 1;
  for (size_t i = 0; i < firmware->apps.size(); ++i) {
    const amulet::CheckStats& c = firmware->apps[i].checks;
    tally->check_insts += static_cast<uint64_t>(c.check_insts);
    tally->checks_elided += static_cast<uint64_t>(c.elided_data_checks + c.elided_code_checks +
                                                  c.elided_index_checks);
    if (i >= replayed.size() || !SameCheckStats(c, replayed[i])) {
      tally->replay_matches = false;
    }
  }
  return firmware;
}

// ---------------------------------------------------------------------------
// Template boot, clone, run, merge: shared by the fleet and campaign replicas

namespace {

struct Template {
  Firmware firmware;
  DataRegions regions;
  std::unique_ptr<Machine> machine;
  std::unique_ptr<AmuletOs> os;
  MachineSnapshot snapshot;
  uint64_t firmware_hash = 0;
};

Result<std::unique_ptr<Template>> BootTemplate(Firmware firmware, const FleetConfig& config,
                                               TraceTally* tally) {
  auto t = std::make_unique<Template>();
  t->firmware = std::move(firmware);
  t->regions = DataRegions::For(t->firmware);
  {
    SpanLog::Scope span(Layer::kBootTemplate);
    t->machine = std::make_unique<Machine>();
    t->machine->cpu().set_predecode(config.predecode);
    amulet::OsOptions options;
    options.fram_wait_states = config.fram_wait_states;
    options.fault_policy = amulet::FaultPolicy::kRestartApp;
    options.sensor_seed = config.fleet_seed;
    t->os = std::make_unique<AmuletOs>(t->machine.get(), t->firmware, options);
    RETURN_IF_ERROR(t->os->Boot());
  }
  {
    SpanLog::Scope span(Layer::kBootSnapshot);
    t->snapshot = amulet::CaptureSnapshot(*t->machine);
  }
  t->firmware_hash = amulet::FirmwareImageHash(t->firmware.image);
  tally->templates += 1;
  tally->snapshot_bytes += t->snapshot.bytes.size();
  return t;
}

Result<std::unique_ptr<ClonedDevice>> TracedClone(uint32_t device_seed, int device_id,
                                                  const FleetConfig& config,
                                                  const Template& t) {
  SpanLog::Scope span(Layer::kClone, device_id);
  return ClonedDevice::Clone(device_seed, config.fram_wait_states, t.firmware, t.snapshot,
                             *t.os, config.predecode, config.flight_recorder);
}

// Per-device host counters the span log does not carry; summed under the
// merge lock.
struct DeviceHostStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t invalidations = 0;
  uint64_t syscalls = 0;

  void Add(ClonedDevice& device, uint64_t syscalls_delta) {
    const amulet::CodeCache::Stats& s = device.machine().cpu().code_cache_stats();
    hits += s.hits;
    misses += s.misses;
    invalidations += s.invalidations;
    syscalls += syscalls_delta;
  }
  void Merge(const DeviceHostStats& other) {
    hits += other.hits;
    misses += other.misses;
    invalidations += other.invalidations;
    syscalls += other.syscalls;
  }
  void FoldInto(TraceTally* tally) const {
    tally->codecache_hits += hits;
    tally->codecache_misses += misses;
    tally->codecache_invalidations += invalidations;
    tally->syscalls += syscalls;
  }
};

Status TracedRun(ClonedDevice* device, int device_id, uint64_t sim_ms,
                 const DataRegions& regions, DeviceStats* out, FaultLedger* ledger) {
  SpanLog::Scope span(Layer::kRun, device_id);
  return device->Run(sim_ms, regions, out, ledger);
}

// Runs body(0..n-1) serially (no executor: jobs == 1, as both engines do) or
// on the executor, each body inside a task span. Adds the loop's wall time.
int RunDeviceLoop(amulet::Executor* executor, size_t n,
                  const std::function<void(size_t)>& body, TraceTally* tally) {
  const int64_t t0 = NowNs();
  auto task = [&](size_t k) {
    SpanLog::Scope span(Layer::kTask);
    body(k);
  };
  int threads = 1;
  if (executor == nullptr) {
    for (size_t k = 0; k < n; ++k) {
      task(k);
    }
  } else {
    threads = executor->thread_count();
    executor->ParallelFor(n, task);
  }
  tally->parallel_wall_s += static_cast<double>(NowNs() - t0) / 1e9;
  tally->threads = threads;
  return threads;
}

Status WriteTracedCheckpoint(const std::string& path, const FleetCheckpoint& cp,
                             TraceTally* tally) {
  {
    SpanLog::Scope span(Layer::kCheckpointEncode);
    tally->checkpoint_bytes_last = amulet::EncodeFleetCheckpoint(cp).size();
  }
  SpanLog::Scope span(Layer::kCheckpointWrite);
  tally->checkpoint_writes += 1;
  return amulet::WriteFleetCheckpoint(path, cp);
}

double SecondsSinceNs(int64_t t0) { return static_cast<double>(NowNs() - t0) / 1e9; }

}  // namespace

// ---------------------------------------------------------------------------
// Fleet replica (RunFleet without resume, shards or cancellation hooks; the
// checkpoint cadence is by device count only, since a unit ends long before
// checkpoint_every_seconds)

Result<UnitOutcome> TracedFleetUnit(const FleetConfig& config, TraceTally* tally) {
  using amulet::Cohort;
  const int64_t wall_t0 = NowNs();
  std::vector<Cohort> cohorts;
  if (config.profile.empty()) {
    Cohort implicit;
    implicit.apps = config.apps;
    implicit.model = config.model;
    cohorts.push_back(implicit);
  } else {
    cohorts = config.profile.cohorts;
  }
  std::vector<std::unique_ptr<Template>> templates;
  amulet::PopulationProfile resolved;
  std::vector<uint64_t> fw_hashes;
  for (Cohort& cohort : cohorts) {
    ASSIGN_OR_RETURN(std::vector<AppSource> sources,
                     amulet::fleet_internal::ResolveApps(&cohort.apps));
    AftOptions aft;
    aft.model = cohort.model;
    aft.optimize_checks = config.check_opt;
    ASSIGN_OR_RETURN(Firmware firmware, TracedBuildFirmware(sources, aft, tally));
    ASSIGN_OR_RETURN(std::unique_ptr<Template> t,
                     BootTemplate(std::move(firmware), config, tally));
    fw_hashes.push_back(t->firmware_hash);
    resolved.cohorts.push_back(cohort);
    templates.push_back(std::move(t));
  }
  const uint64_t profile_hash =
      config.profile.empty() ? 0 : amulet::ProfileHash(resolved, fw_hashes);

  FleetReport report;
  report.config = config;
  report.config.apps = resolved.cohorts[0].apps;
  report.config.retain_device_stats = true;
  report.devices.resize(static_cast<size_t>(config.device_count));
  uint64_t checks_total = 0;
  uint64_t checks_elided = 0;
  for (const auto& t : templates) {
    for (const amulet::AppImage& app : t->firmware.apps) {
      checks_total += static_cast<uint64_t>(app.checks.check_insts);
      checks_elided += static_cast<uint64_t>(app.checks.elided_data_checks) +
                       static_cast<uint64_t>(app.checks.elided_code_checks) +
                       static_cast<uint64_t>(app.checks.elided_index_checks);
    }
  }
  report.metrics.Add("fleet.checks_total", checks_total);
  report.metrics.Add("fleet.checks_elided", checks_elided);
  const double setup_s = SecondsSinceNs(wall_t0);

  const bool checkpointing = !config.checkpoint_path.empty();
  FleetCheckpoint cp_base;
  if (checkpointing) {
    cp_base.kind = amulet::FleetCheckpointKind::kFleet;
    cp_base.config_hash =
        amulet::FleetConfigHash(config, templates[0]->firmware_hash, profile_hash);
    cp_base.config_text =
        amulet::FleetConfigCanonical(config, templates[0]->firmware_hash, profile_hash);
    cp_base.template_snapshot = templates[0]->snapshot;
    cp_base.device_count = config.device_count;
    cp_base.profile_hash = profile_hash;
    cp_base.profile_text =
        config.profile.empty() ? std::string() : amulet::ProfileCanonical(resolved, fw_hashes);
  }
  std::vector<bool> completed(static_cast<size_t>(config.device_count), false);
  auto build_checkpoint = [&] {
    FleetCheckpoint cp = cp_base;
    cp.metrics = report.metrics;
    cp.faults = report.faults;
    cp.completed = completed;
    for (int i = 0; i < config.device_count; ++i) {
      if (completed[static_cast<size_t>(i)]) {
        cp.devices.push_back(report.devices[static_cast<size_t>(i)]);
      }
    }
    return cp;
  };

  std::mutex merge_mu;
  Status failure;                    // guarded by merge_mu
  Status checkpoint_status;          // guarded by merge_mu
  int devices_since_checkpoint = 0;  // guarded by merge_mu
  DeviceHostStats host;              // guarded by merge_mu
  const int64_t run_t0 = NowNs();
  std::optional<amulet::Executor> executor;
  if (config.jobs != 1) {
    executor.emplace(config.jobs);
  }
  auto body = [&](size_t k) {
    const int id = static_cast<int>(k);
    const int cohort_index =
        config.profile.empty() ? 0 : amulet::CohortForDevice(resolved, config.fleet_seed, id);
    const Template& t = *templates[static_cast<size_t>(cohort_index)];
    const uint32_t seed = amulet::fleet_internal::DeviceSeed(config.fleet_seed, id);
    DeviceStats& slot = report.devices[k];
    FaultLedger device_ledger;
    MetricRegistry device_metrics;
    Result<std::unique_ptr<ClonedDevice>> device = TracedClone(seed, id, config, t);
    Status status = device.status();
    uint64_t syscalls_before = 0;
    if (status.ok()) {
      (*device)->os().sensors().set_mode(
          amulet::ActivityForDevice(resolved.cohorts[static_cast<size_t>(cohort_index)], seed));
      syscalls_before = (*device)->machine().hostio().syscall_count();
      DeviceStats stats;
      stats.device_id = id;
      status = TracedRun(device->get(), id, config.sim_ms, t.regions, &stats, &device_ledger);
      stats.battery_impact_percent =
          amulet::fleet_internal::BatteryPercentFor(stats.cycles, config.sim_ms, config.energy);
      slot = stats;
    }
    if (status.ok()) {
      SpanLog::Scope span(Layer::kRecord, id);
      amulet::fleet_internal::RecordDeviceMetrics(slot, &device_metrics);
      if (!config.profile.empty()) {
        device_metrics.Add(
            "fleet.cohort." + resolved.cohorts[static_cast<size_t>(cohort_index)].name, 1);
      }
    }
    std::lock_guard<std::mutex> lock(merge_mu);
    if (!status.ok()) {
      failure = Status(status.code(), StrFormat("device %d: %s", id, status.message().c_str()));
      return;
    }
    host.Add(**device, (*device)->machine().hostio().syscall_count() - syscalls_before);
    {
      SpanLog::Scope span(Layer::kMergeMetrics, id);
      report.metrics.Merge(device_metrics);
    }
    {
      SpanLog::Scope span(Layer::kMergeLedger, id);
      report.faults.Merge(device_ledger);
    }
    completed[k] = true;
    if (checkpointing && checkpoint_status.ok() &&
        devices_since_checkpoint + 1 >= std::max(1, config.checkpoint_every_devices)) {
      checkpoint_status = WriteTracedCheckpoint(config.checkpoint_path, build_checkpoint(), tally);
      devices_since_checkpoint = 0;
    } else {
      ++devices_since_checkpoint;
    }
  };
  const int threads = RunDeviceLoop(executor ? &*executor : nullptr,
                                    static_cast<size_t>(config.device_count), body, tally);
  const double run_s = SecondsSinceNs(run_t0);
  if (checkpointing && checkpoint_status.ok()) {
    checkpoint_status = WriteTracedCheckpoint(config.checkpoint_path, build_checkpoint(), tally);
  }
  RETURN_IF_ERROR(failure);
  RETURN_IF_ERROR(checkpoint_status);
  host.FoldInto(tally);
  tally->ledger_buckets += report.faults.bucket_count();
  report.config.jobs = threads;
  amulet::RecomputeFleetAggregate(&report);
  UnitOutcome out = FleetOutcome(report, SecondsSinceNs(wall_t0));
  out.setup_s = setup_s;
  out.run_s = run_s;
  return out;
}

// ---------------------------------------------------------------------------
// Campaign replica (RunCampaign without resume, checkpoints or cancellation
// hooks, none of which the campaign workload uses)

namespace {

void AddStats(DeviceStats* into, const DeviceStats& delta) {
  into->cycles += delta.cycles;
  into->data_accesses += delta.data_accesses;
  into->syscalls += delta.syscalls;
  into->dispatches += delta.dispatches;
  into->faults += delta.faults;
  into->pucs += delta.pucs;
  into->watchdog_resets += delta.watchdog_resets;
  into->instructions += delta.instructions;
}

void RecordCampaignRow(const CampaignDeviceRow& row, MetricRegistry* m) {
  amulet::fleet_internal::RecordDeviceMetrics(row.stats, m);
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

struct CampaignTemplates {
  const Template* from = nullptr;
  const Template* to = nullptr;
  const amulet::OtaImage* deploy = nullptr;
};

Status TracedCampaignDevice(int id, const CampaignConfig& config, const CampaignTemplates& ctx,
                            CampaignDeviceRow* row, FaultLedger* ledger,
                            DeviceHostStats* host) {
  using amulet::BlData;
  const FleetConfig& fleet = config.fleet;
  const uint32_t seed = amulet::fleet_internal::DeviceSeed(fleet.fleet_seed, id);
  row->stats.device_id = id;
  row->firmware_version = config.from_version;
  ASSIGN_OR_RETURN(std::unique_ptr<ClonedDevice> device, TracedClone(seed, id, fleet, *ctx.from));
  const uint64_t syscalls_before = device->machine().hostio().syscall_count();
  RETURN_IF_ERROR(TracedRun(device.get(), id, fleet.sim_ms, ctx.from->regions, &row->stats,
                            ledger));
  host->Add(*device, device->machine().hostio().syscall_count() - syscalls_before);
  amulet::MacVerifyRun verify;
  {
    SpanLog::Scope span(Layer::kOtaVerify, id);
    ASSIGN_OR_RETURN(verify, amulet::SimulateImageVerify(*ctx.deploy, config.key,
                                                         fleet.fram_wait_states,
                                                         fleet.predecode));
  }
  row->verify_cycles = verify.cycles;
  uint64_t span_ms = fleet.sim_ms;
  if (!verify.accepted) {
    row->outcome = OtaOutcome::kRejected;
  } else {
    const uint32_t health_seed = seed ^ amulet::fleet_internal::Mix32(config.to_version);
    ASSIGN_OR_RETURN(std::unique_ptr<ClonedDevice> updated,
                     TracedClone(health_seed, id, fleet, *ctx.to));
    BlData bl;
    bl.active_bank = 1;
    bl.attempt_count = 1;
    bl.current_version = config.to_version;
    bl.prior_version = config.from_version;
    amulet::WriteBlData(&updated->machine().bus(), bl);
    DeviceStats health;
    health.device_id = id;
    const uint64_t health_syscalls_before = updated->machine().hostio().syscall_count();
    RETURN_IF_ERROR(
        TracedRun(updated.get(), id, config.health_ms, ctx.to->regions, &health, ledger));
    host->Add(*updated, updated->machine().hostio().syscall_count() - health_syscalls_before);
    AddStats(&row->stats, health);
    span_ms += config.health_ms;
    ASSIGN_OR_RETURN(BlData after, amulet::ReadBlData(updated->machine().bus()));
    if (health.pucs + health.watchdog_resets >= static_cast<uint64_t>(config.storm_threshold)) {
      after.active_bank = 0;
      after.attempt_count = 0;
      after.rollback_count = static_cast<uint16_t>(after.rollback_count + 1);
      after.current_version = config.from_version;
      after.prior_version = config.to_version;
      row->outcome = OtaOutcome::kRolledBack;
    } else {
      after.attempt_count = 0;
      row->outcome = OtaOutcome::kUpdated;
      row->firmware_version = config.to_version;
    }
    amulet::WriteBlData(&updated->machine().bus(), after);
  }
  row->stats.battery_impact_percent =
      amulet::fleet_internal::BatteryPercentFor(row->stats.cycles, span_ms, fleet.energy);
  return amulet::OkStatus();
}

}  // namespace

Result<UnitOutcome> TracedCampaignUnit(const CampaignConfig& config_in, TraceTally* tally) {
  const int64_t wall_t0 = NowNs();
  CampaignConfig config = config_in;
  if (config.stages.empty()) {
    config.stages = {{5, 0.25}, {50, 0.25}, {100, 0.25}};
  }
  config.fleet.retain_device_stats = true;
  ASSIGN_OR_RETURN(std::vector<AppSource> from_sources,
                   amulet::fleet_internal::ResolveApps(&config.fleet.apps));
  if (config.to_apps.empty()) {
    config.to_apps = config.fleet.apps;
  }
  ASSIGN_OR_RETURN(std::vector<AppSource> to_sources,
                   amulet::fleet_internal::ResolveApps(&config.to_apps));
  // The campaign engine builds both images with default AFT options.
  AftOptions aft;
  aft.model = config.fleet.model;
  ASSIGN_OR_RETURN(Firmware firmware_from, TracedBuildFirmware(from_sources, aft, tally));
  ASSIGN_OR_RETURN(Firmware firmware_to, TracedBuildFirmware(to_sources, aft, tally));
  std::vector<uint8_t> deploy_bytes;
  {
    SpanLog::Scope span(Layer::kOtaPack);
    deploy_bytes = amulet::EncodeOtaImage(amulet::PackOtaImage(
        firmware_to.image, config.to_version, config.fleet.model, config.key));
  }
  amulet::OtaImage deploy;
  {
    SpanLog::Scope span(Layer::kOtaDecode);
    ASSIGN_OR_RETURN(deploy, amulet::DecodeOtaImage(deploy_bytes));
  }
  ASSIGN_OR_RETURN(std::unique_ptr<Template> from,
                   BootTemplate(std::move(firmware_from), config.fleet, tally));
  ASSIGN_OR_RETURN(std::unique_ptr<Template> to,
                   BootTemplate(std::move(firmware_to), config.fleet, tally));
  CampaignTemplates ctx{from.get(), to.get(), &deploy};

  const int device_count = config.fleet.device_count;
  CampaignReport report;
  report.config = config;
  report.devices.resize(static_cast<size_t>(device_count));
  for (int i = 0; i < device_count; ++i) {
    report.devices[static_cast<size_t>(i)].stats.device_id = i;
    report.devices[static_cast<size_t>(i)].firmware_version = config.from_version;
  }
  const double setup_s = SecondsSinceNs(wall_t0);
  const std::vector<int> order = amulet::CampaignRolloutOrder(device_count, config.rollout_seed);

  std::mutex merge_mu;
  Status failure;        // guarded by merge_mu
  DeviceHostStats host;  // guarded by merge_mu
  std::optional<amulet::Executor> executor;
  if (config.fleet.jobs != 1) {
    executor.emplace(config.fleet.jobs);
  }
  int threads = 1;
  const int64_t run_t0 = NowNs();
  size_t stage_begin = 0;
  for (size_t s = 0; s < config.stages.size(); ++s) {
    const amulet::CampaignStage& stage = config.stages[s];
    const size_t stage_end = std::min<size_t>(
        static_cast<size_t>(device_count),
        (static_cast<size_t>(device_count) * static_cast<size_t>(stage.percent) + 99) / 100);
    auto body = [&](size_t k) {
      const int id = order[stage_begin + k];
      CampaignDeviceRow fresh;
      FaultLedger device_ledger;
      DeviceHostStats device_host;
      const Status status =
          TracedCampaignDevice(id, config, ctx, &fresh, &device_ledger, &device_host);
      MetricRegistry device_metrics;
      if (status.ok()) {
        SpanLog::Scope span(Layer::kRecord, id);
        RecordCampaignRow(fresh, &device_metrics);
      }
      std::lock_guard<std::mutex> lock(merge_mu);
      if (!status.ok()) {
        failure = Status(status.code(), StrFormat("device %d: %s", id, status.message().c_str()));
        return;
      }
      report.devices[static_cast<size_t>(id)] = fresh;
      host.Merge(device_host);
      tally->verify_cycles += fresh.verify_cycles;
      tally->verifies += 1;
      {
        SpanLog::Scope span(Layer::kMergeMetrics, id);
        report.metrics.Merge(device_metrics);
      }
      SpanLog::Scope span(Layer::kMergeLedger, id);
      report.faults.Merge(device_ledger);
    };
    threads = RunDeviceLoop(executor ? &*executor : nullptr, stage_end - stage_begin, body,
                            tally);
    RETURN_IF_ERROR(failure);
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
      result.failure_rate = static_cast<double>(result.rejected + result.rolled_back) /
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
  const double run_s = SecondsSinceNs(run_t0);
  uint64_t not_attempted = 0;
  for (const CampaignDeviceRow& row : report.devices) {
    not_attempted += row.outcome == OtaOutcome::kNotAttempted ? 1 : 0;
  }
  if (not_attempted > 0) {
    report.metrics.Add("campaign.not_attempted", not_attempted);
    report.metrics.Add(StrFormat("campaign.version.%u", config.from_version), not_attempted);
  }
  host.FoldInto(tally);
  tally->ledger_buckets += report.faults.bucket_count();
  report.config.fleet.jobs = threads;
  UnitOutcome out = CampaignOutcome(report, SecondsSinceNs(wall_t0));
  out.setup_s = setup_s;
  out.run_s = run_s;
  return out;
}

// ---------------------------------------------------------------------------
// Layer probes

Status ProbeCheckpoint(const std::string& path, TraceTally* tally) {
  // A checkpoint the size of a small finished fleet: one template snapshot
  // plus a merged registry and 256 device rows.
  FleetCheckpoint cp;
  Machine machine;
  cp.template_snapshot = amulet::CaptureSnapshot(machine);
  cp.device_count = 256;
  cp.completed.assign(256, true);
  for (int i = 0; i < 256; ++i) {
    DeviceStats stats;
    stats.device_id = i;
    stats.cycles = 1000u + static_cast<uint64_t>(i);
    cp.devices.push_back(stats);
    amulet::fleet_internal::RecordDeviceMetrics(stats, &cp.metrics);
  }
  return WriteTracedCheckpoint(path, cp, tally);
}

Status ProbeOta(const Firmware& firmware, TraceTally* tally) {
  const amulet::OtaKey key;
  std::vector<uint8_t> bytes;
  {
    SpanLog::Scope span(Layer::kOtaPack);
    bytes = amulet::EncodeOtaImage(amulet::PackOtaImage(firmware.image, 2, firmware.model, key));
  }
  amulet::OtaImage image;
  {
    SpanLog::Scope span(Layer::kOtaDecode);
    ASSIGN_OR_RETURN(image, amulet::DecodeOtaImage(bytes));
  }
  SpanLog::Scope span(Layer::kOtaVerify);
  ASSIGN_OR_RETURN(amulet::MacVerifyRun run, amulet::SimulateImageVerify(image, key, 1));
  if (!run.accepted) {
    return amulet::InternalError("OTA probe: authentic image rejected");
  }
  tally->verify_cycles += run.cycles;
  tally->verifies += 1;
  return amulet::OkStatus();
}

// ---------------------------------------------------------------------------
// Simulator-core kernels (the alu_reg and mem_sram loops of bench_sim)

namespace {

const char kAluLoop[] =
    "start:\n  mov #0x8800, sp\n  mov #1, r5\n  mov #0x1234, r6\n"
    "loop:\n  add r5, r4\n  xor r4, r6\n  swpb r6\n  addc r6, r7\n"
    "  and #0x7FFF, r7\n  bis r5, r8\n  rrc r8\n  sub r5, r9\n  jmp loop\n";

const char kMemLoop[] =
    "start:\n  mov #0x8800, sp\n  mov #0x1c00, r4\n"
    "loop:\n  mov #0x1c00, r4\n  mov #0x5aa5, &0x1c10\n  mov &0x1c10, r5\n"
    "  add r5, 2(r4)\n  mov 2(r4), r6\n  mov @r4+, r7\n  mov r6, 4(r4)\n"
    "  xor.b r5, 6(r4)\n  jmp loop\n";

Result<double> KernelMips(const char* source) {
  constexpr uint64_t kCycleBudget = 12'000'000;
  constexpr int kReps = 3;
  ASSIGN_OR_RETURN(amulet::ObjectFile object, amulet::Assemble(source, "kernel.s"));
  amulet::Linker linker;
  linker.AddObject(std::move(object));
  ASSIGN_OR_RETURN(amulet::Image image,
                   linker.Link({{".text", static_cast<uint16_t>(amulet::kFramStart)}}));
  std::vector<double> mips;
  for (int rep = 0; rep < kReps; ++rep) {
    Machine machine;
    amulet::LoadImage(image, &machine.bus());
    machine.bus().PokeWord(amulet::kResetVector, image.SymbolOrZero("start"));
    machine.cpu().Reset();
    const int64_t t0 = NowNs();
    const amulet::Cpu::RunOutcome outcome = machine.Run(kCycleBudget);
    const double seconds = static_cast<double>(NowNs() - t0) / 1e9;
    if (outcome.result != amulet::StepResult::kOk) {
      return amulet::InternalError("core kernel halted");
    }
    mips.push_back(static_cast<double>(machine.cpu().instruction_count()) / seconds / 1e6);
  }
  std::sort(mips.begin(), mips.end());
  return mips[mips.size() / 2];
}

}  // namespace

Result<CoreKernels> MeasureCoreKernels() {
  CoreKernels k;
  ASSIGN_OR_RETURN(k.dispatch_mips, KernelMips(kAluLoop));
  ASSIGN_OR_RETURN(k.memory_mips, KernelMips(kMemLoop));
  return k;
}

// ---------------------------------------------------------------------------
// Table 1: the Synthetic App's button handlers (0 = empty loop, 1 = checked
// memory access loop, 2 = API-call loop), 512 iterations each. Built without
// the phase-2.5 check optimizer, which the paper's toolchain does not have
// (it proves the synthetic loop's checks redundant and deletes them).

Result<std::map<MemoryModel, Table1Row>> MeasureTable1() {
  constexpr int kLoopIters = 512;
  constexpr int kRuns = 8;
  std::map<MemoryModel, Table1Row> rows;
  for (MemoryModel model : amulet::kAllModels) {
    AftOptions aft;
    aft.model = model;
    aft.optimize_checks = false;
    const amulet::AppSpec& app = amulet::SyntheticApp();
    ASSIGN_OR_RETURN(Firmware fw, amulet::BuildFirmware({{app.name, app.source}}, aft));
    Machine machine;
    amulet::OsOptions options;
    options.fram_wait_states = 0;
    options.fault_policy = amulet::FaultPolicy::kLogOnly;
    AmuletOs os(&machine, std::move(fw), options);
    RETURN_IF_ERROR(os.Boot());
    double per_iter[3] = {0, 0, 0};
    for (uint16_t button = 0; button < 3; ++button) {
      uint64_t total = 0;
      for (int i = 0; i < kRuns; ++i) {
        ASSIGN_OR_RETURN(AmuletOs::DispatchResult r,
                         os.Deliver(0, amulet::EventType::kButton, button));
        if (r.faulted) {
          return amulet::InternalError("synthetic app faulted");
        }
        total += r.cycles;
      }
      per_iter[button] = static_cast<double>(total) / kRuns / kLoopIters;
    }
    // As in bench_table1: the op's marginal cost plus half the loop baseline.
    rows[model] = {per_iter[1] - per_iter[0] / 2, per_iter[2] - per_iter[0] / 2};
  }
  return rows;
}

}  // namespace perfbench
