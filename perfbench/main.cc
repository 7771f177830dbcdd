// Benchmark runner: runs one workload either untraced, through the public
// entry points (RunFleet, RunCampaign, BuildFirmware), or traced, through
// the span-instrumented replicas in layers.h. Prints one JSON object on the
// last line of stdout; perfbench/run.py turns it into the benchmark result.
//
//   perfbench_runner --workload NAME --mode untraced|traced --seed N
//                    --rollout-seed N --seconds S --jobs J --scratch DIR
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/layers.h"
#include "src/apps/app_sources.h"
#include "src/common/strings.h"
#include "src/fleet/campaign.h"
#include "src/fleet/device.h"
#include "src/fleet/fleet.h"
#include "src/fleet/profile.h"
#include "src/ota/image.h"

namespace perfbench {
namespace {

using amulet::MemoryModel;
using amulet::Result;
using amulet::Status;
using amulet::StrFormat;

struct Args {
  std::string workload;
  std::string mode;
  std::string scratch = ".";
  uint32_t seed = 20180711;
  uint32_t rollout_seed = 0xB007;
  double seconds = 10;
  int jobs = 1;
};

// Untraced runs repeat a fixed unit of work until --seconds have passed, and
// at least this many times, so every time metric is a median over units.
constexpr int kMinUnits = 3;
// Fleet workloads time extra build rounds of their cohort images after each
// unit for build_ms_p95: at least this many rounds and builds per unit.
constexpr size_t kBuildRoundsPerUnit = 10;
constexpr size_t kBuildsPerUnit = 24;

const char* ModelShort(MemoryModel model) {
  switch (model) {
    case MemoryModel::kNoIsolation:
      return "none";
    case MemoryModel::kFeatureLimited:
      return "fl";
    case MemoryModel::kSoftwareOnly:
      return "sw";
    case MemoryModel::kMpu:
      return "mpu";
  }
  return "?";
}

std::string Hex(uint64_t v) { return StrFormat("%016llx", static_cast<unsigned long long>(v)); }

std::string Num(double v) { return StrFormat("%.17g", v); }

// --- Workload definitions ---------------------------------------------------

amulet::FleetConfig SuiteMpu(const Args& a) {
  amulet::FleetConfig c;
  c.device_count = 100;
  c.model = MemoryModel::kMpu;
  c.fleet_seed = a.seed;
  c.sim_ms = 10'000;
  c.fram_wait_states = 1;
  c.jobs = 1;
  return c;
}

Result<amulet::FleetConfig> ChurnMixed(const Args& a) {
  amulet::FleetConfig c;
  c.device_count = 2400;
  c.fleet_seed = a.seed;
  c.sim_ms = 1'000;
  c.jobs = a.jobs;
  for (const char* spec : {"wear:60:mpu", "legacy:25:sw:pedometer+clock+hr+quicksort:1/2/1",
                           "fl:10:fl:clock+sun+temperature", "buggy:5:sw:crasher+clock"}) {
    ASSIGN_OR_RETURN(amulet::Cohort cohort, amulet::ParseCohortSpec(spec));
    c.profile.cohorts.push_back(cohort);
  }
  c.checkpoint_path = a.scratch + "/churn_mixed.ckpt";
  c.checkpoint_every_devices = 64;
  return c;
}

amulet::CampaignConfig OtaCampaign(const Args& a) {
  amulet::CampaignConfig c;
  c.fleet.device_count = 600;
  c.fleet.fleet_seed = a.seed;
  c.fleet.sim_ms = 2'000;
  c.fleet.jobs = a.jobs;
  c.to_apps = {"pedometer", "clock", "hr", "sun"};
  c.rollout_seed = a.rollout_seed;
  return c;
}

// The toolchain workload's smoke pass: every nine-app suite image it builds
// also runs on a small fleet, one per memory model.
std::vector<amulet::FleetConfig> ToolchainSmoke(const Args& a) {
  std::vector<amulet::FleetConfig> out;
  for (MemoryModel model : amulet::kAllModels) {
    amulet::FleetConfig c;
    c.device_count = 16;
    c.model = model;
    c.fleet_seed = a.seed;
    c.sim_ms = 4'000;
    c.jobs = 1;
    out.push_back(c);
  }
  return out;
}

struct BuildJob {
  std::string key;  // "<image>/<model>"
  std::vector<amulet::AppSource> apps;
  amulet::AftOptions options;
};

// Every toolchain image under every model: the nine-app suite plus each
// benchmark app. Combinations a model rejects by design (FeatureLimited
// forbids pointers and recursion) are dropped after one untimed attempt.
Result<std::vector<BuildJob>> ToolchainJobs() {
  std::vector<std::pair<std::string, std::vector<amulet::AppSource>>> images;
  std::vector<amulet::AppSource> suite;
  for (const amulet::AppSpec& app : amulet::AmuletAppSuite()) {
    suite.push_back({app.name, app.source});
  }
  images.emplace_back("suite", suite);
  for (const amulet::AppSpec* app :
       {&amulet::SyntheticApp(), &amulet::ActivityApp(), &amulet::QuicksortApp(),
        &amulet::QuicksortRecursiveApp()}) {
    images.push_back({app->name, {{app->name, app->source}}});
  }
  std::vector<BuildJob> jobs;
  for (const auto& [name, apps] : images) {
    for (MemoryModel model : amulet::kAllModels) {
      BuildJob job;
      job.key = name + "/" + ModelShort(model);
      job.apps = apps;
      job.options.model = model;
      job.options.optimize_checks = true;
      Result<amulet::Firmware> fw = amulet::BuildFirmware(job.apps, job.options);
      if (!fw.ok()) {
        if (model == MemoryModel::kFeatureLimited &&
            fw.status().code() == amulet::StatusCode::kFailedPrecondition) {
          continue;
        }
        return fw.status();
      }
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

// Seeded Fisher-Yates order for one build round.
std::vector<size_t> RoundOrder(size_t n, uint32_t seed, int round) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  uint32_t state = seed ^ amulet::fleet_internal::Mix32(static_cast<uint32_t>(round) + 1);
  for (size_t i = n; i > 1; --i) {
    state = amulet::fleet_internal::Mix32(state + static_cast<uint32_t>(i));
    std::swap(order[i - 1], order[state % i]);
  }
  return order;
}

// --- Host reference ---------------------------------------------------------

// Seconds one fixed kernel takes on this host right now. The kernel uses no
// code of the repository. It mixes the profiles of the simulator's hot paths:
// a register machine over a 64 KiB data array, dispatched once in random
// order (mispredicted indirect branches) and once over a short fixed program
// (predicted dispatch, like a simulated loop), then allocate/copy/free of
// snapshot-sized blocks (the per-device clone). run.py scales every timed
// sample by the reference time measured next to it, so a host that runs
// slower for a while (a shared machine) moves the reference and the sample
// together, while a change to the program moves only the sample.
double ReferenceSeconds() {
  constexpr uint32_t kWords = 32768;
  constexpr uint32_t kProgram = 48;
  struct Op {
    uint32_t code, x, y, imm;
  };
  static volatile uint64_t sink = 0;
  const int64_t t0 = NowNs();
  std::vector<uint16_t> mem(kWords);
  uint32_t r[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  auto execute = [&](const Op& o, uint32_t step) {
    switch (o.code) {
      case 0: r[o.x] += r[o.y] + o.imm; break;
      case 1: r[o.x] ^= r[o.y] << 1; break;
      case 2: r[o.x] = mem[(r[o.y] + o.imm) & (kWords - 1)]; break;
      case 3: mem[(r[o.x] + o.imm) & (kWords - 1)] = static_cast<uint16_t>(r[o.y]); break;
      case 4: r[o.x] = mem[r[o.y] & (kWords - 1)] + r[o.x]; break;
      case 5: r[o.x] -= r[o.y] >> 3; break;
      case 6: if (r[o.x] & 1) { r[o.y] += 7; } break;
      default: mem[(o.imm + step) & (kWords - 1)] ^= static_cast<uint16_t>(r[o.x]); break;
    }
  };
  uint32_t lcg = 0;
  auto random_op = [&lcg]() {
    lcg = lcg * 1664525u + 1013904223u;
    return Op{lcg >> 29, (lcg >> 8) & 7, (lcg >> 12) & 7, lcg >> 16};
  };
  for (uint32_t step = 0; step < 600'000; ++step) {
    execute(random_op(), step);
  }
  std::vector<Op> program(kProgram);
  for (Op& op : program) {
    op = random_op();
  }
  for (uint32_t step = 0; step < 1'800'000; ++step) {
    execute(program[step % kProgram], step);
  }
  uint64_t sum = 0;
  for (uint32_t i = 0; i < 60; ++i) {
    std::vector<uint16_t> copy(mem.begin(), mem.end());
    copy[i * 97 % kWords] += static_cast<uint16_t>(i);
    sum += copy[i * 89 % kWords];
  }
  for (uint32_t v : r) {
    sum += v;
  }
  sink = sink + sum;
  return static_cast<double>(NowNs() - t0) / 1e9;
}

// --- Output -----------------------------------------------------------------

std::string UnitJson(const UnitOutcome& u) {
  return StrFormat(
      "{\"setup_s\":%s,\"run_s\":%s,\"wall_s\":%s,\"jobs\":%d,\"devices\":%llu,"
      "\"instructions\":%llu,\"cycles\":%llu,\"data_accesses\":%llu,\"faults\":%llu,"
      "\"sim_seconds\":%s,\"digest\":\"%s\",\"ledger\":\"%s\",\"ref_s\":%s}",
      Num(u.setup_s).c_str(), Num(u.run_s).c_str(), Num(u.wall_s).c_str(), u.jobs,
      static_cast<unsigned long long>(u.devices),
      static_cast<unsigned long long>(u.instructions),
      static_cast<unsigned long long>(u.cycles),
      static_cast<unsigned long long>(u.data_accesses),
      static_cast<unsigned long long>(u.faults), Num(u.sim_seconds).c_str(),
      Hex(u.digest).c_str(), Hex(u.ledger).c_str(), Num(u.ref_s).c_str());
}

std::string HostJson(const Args& a, int jobs_used) {
#if defined(AMULET_SCOPE_ENABLED)
  const bool scope = true;
#else
  const bool scope = false;
#endif
#if defined(AMULET_CHECK_OPT_DISABLED)
  const bool check_opt = false;
#else
  const bool check_opt = true;
#endif
  return StrFormat(
      "{\"nproc\":%u,\"jobs_requested\":%d,\"jobs_used\":%d,\"build_type\":\"%s\","
      "\"compiler\":\"%s\",\"AMULET_SCOPE\":%s,\"AMULET_CHECK_OPT\":%s}",
      std::thread::hardware_concurrency(), a.jobs, jobs_used, PERFBENCH_BUILD_TYPE,
      PERFBENCH_COMPILER, scope ? "true" : "false", check_opt ? "true" : "false");
}

// {"key": "<16 hex digits>"} for hashes, {"key": n} for counts.
std::string MapJson(const std::map<std::string, uint64_t>& values, bool hex) {
  std::string out = "{";
  for (const auto& [key, value] : values) {
    out += StrFormat(hex ? "%s\"%s\":\"%s\"" : "%s\"%s\":%s", out.size() > 1 ? "," : "",
                     key.c_str(),
                     hex ? Hex(value).c_str()
                         : StrFormat("%llu", static_cast<unsigned long long>(value)).c_str());
  }
  return out + "}";
}

long PeakRssKb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// --- Untraced ---------------------------------------------------------------

struct Untraced {
  std::vector<UnitOutcome> units;
  std::vector<double> build_ms;
  std::vector<double> build_ref_s;  // ReferenceSeconds() around each build_ms sample
  std::vector<double> round_s;  // toolchain: wall of each build round
  std::map<std::string, uint64_t> build_hashes;
  std::map<std::string, uint64_t> build_counts;
  uint64_t builds = 0;
  uint64_t build_failures = 0;  // build errors or a hash that changed between rounds
};

// Times one BuildFirmware call; a changed image hash counts as a failure.
void TimedBuild(const BuildJob& job, Untraced* out) {
  Result<amulet::Firmware> fw = amulet::BuildFirmware(job.apps, job.options);
  out->builds += 1;
  out->build_counts[job.key] += 1;
  if (!fw.ok()) {
    out->build_failures += 1;
    return;
  }
  const uint64_t hash = amulet::FirmwareImageHash(fw->image);
  auto [it, inserted] = out->build_hashes.emplace(job.key, hash);
  if (!inserted && it->second != hash) {
    out->build_failures += 1;
  }
}

// Builds every job once in `order`. One build_ms sample per round: the
// round's host time per image, so workloads mixing large and small images
// still give a unimodal distribution. Returns the round's wall seconds.
double TimedRound(const std::vector<BuildJob>& jobs, const std::vector<size_t>& order,
                  Untraced* out) {
  const int64_t t0 = NowNs();
  for (size_t i : order) {
    TimedBuild(jobs[i], out);
  }
  const double seconds = static_cast<double>(NowNs() - t0) / 1e9;
  out->build_ms.push_back(seconds * 1e3 / static_cast<double>(order.size()));
  return seconds;
}

// The cohort images of a fleet config, as RunFleet builds them.
Result<std::vector<BuildJob>> CohortJobs(const amulet::FleetConfig& config, bool check_opt) {
  std::vector<amulet::Cohort> cohorts = config.profile.cohorts;
  if (cohorts.empty()) {
    amulet::Cohort implicit;
    implicit.apps = config.apps;
    implicit.model = config.model;
    cohorts.push_back(implicit);
  }
  std::vector<BuildJob> jobs;
  for (amulet::Cohort& cohort : cohorts) {
    BuildJob job;
    ASSIGN_OR_RETURN(job.apps, amulet::fleet_internal::ResolveApps(&cohort.apps));
    job.key = (cohort.name.empty() ? std::string("suite") : cohort.name) + "/" +
              ModelShort(cohort.model);
    job.options.model = cohort.model;
    job.options.optimize_checks = check_opt;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

template <typename RunUnit>
Status RepeatUnits(const Args& a, const std::vector<BuildJob>& build_jobs, RunUnit run_unit,
                   Untraced* out) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(a.seconds * 1e9);
  double ref = ReferenceSeconds();
  while (NowNs() < deadline || static_cast<int>(out->units.size()) < kMinUnits) {
    ASSIGN_OR_RETURN(UnitOutcome unit, run_unit());
    const double ref_after_unit = ReferenceSeconds();
    unit.ref_s = (ref + ref_after_unit) / 2;
    out->units.push_back(unit);
    std::vector<size_t> order(build_jobs.size());
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    const size_t rounds =
        std::max(kBuildRoundsPerUnit, (kBuildsPerUnit + order.size() - 1) / order.size());
    for (size_t r = 0; r < rounds; ++r) {
      TimedRound(build_jobs, order, out);
    }
    ref = ReferenceSeconds();
    out->build_ref_s.resize(out->build_ms.size(), (ref_after_unit + ref) / 2);
  }
  return amulet::OkStatus();
}

Status RunUntraced(const Args& a, Untraced* out) {
  if (a.workload == "suite_mpu" || a.workload == "churn_mixed") {
    amulet::FleetConfig config = SuiteMpu(a);
    if (a.workload == "churn_mixed") {
      ASSIGN_OR_RETURN(config, ChurnMixed(a));
    }
    ASSIGN_OR_RETURN(std::vector<BuildJob> jobs, CohortJobs(config, config.check_opt));
    return RepeatUnits(a, jobs, [&]() -> Result<UnitOutcome> {
      const int64_t t0 = NowNs();
      ASSIGN_OR_RETURN(amulet::FleetReport report, amulet::RunFleet(config));
      return FleetOutcome(report, static_cast<double>(NowNs() - t0) / 1e9);
    }, out);
  }
  if (a.workload == "ota_campaign") {
    const amulet::CampaignConfig config = OtaCampaign(a);
    amulet::FleetConfig to = config.fleet;
    to.apps = config.to_apps;
    // Campaigns build with default AFT options (check optimizer on).
    ASSIGN_OR_RETURN(std::vector<BuildJob> jobs, CohortJobs(config.fleet, true));
    ASSIGN_OR_RETURN(std::vector<BuildJob> to_jobs, CohortJobs(to, true));
    to_jobs[0].key = "to/" + std::string(ModelShort(to.model));
    jobs.push_back(to_jobs[0]);
    return RepeatUnits(a, jobs, [&]() -> Result<UnitOutcome> {
      const int64_t t0 = NowNs();
      ASSIGN_OR_RETURN(amulet::CampaignReport report, amulet::RunCampaign(config));
      return CampaignOutcome(report, static_cast<double>(NowNs() - t0) / 1e9);
    }, out);
  }
  if (a.workload == "toolchain") {
    ASSIGN_OR_RETURN(std::vector<BuildJob> jobs, ToolchainJobs());
    const int64_t start = NowNs();
    const int64_t builds_deadline = start + static_cast<int64_t>(a.seconds * 0.7e9);
    const int64_t deadline = start + static_cast<int64_t>(a.seconds * 1e9);
    double ref = ReferenceSeconds();
    for (int round = 0; NowNs() < builds_deadline || round < kMinUnits; ++round) {
      out->round_s.push_back(TimedRound(jobs, RoundOrder(jobs.size(), a.seed, round), out));
      const double next = ReferenceSeconds();
      out->build_ref_s.push_back((ref + next) / 2);
      ref = next;
    }
    const std::vector<amulet::FleetConfig> smoke = ToolchainSmoke(a);
    while (NowNs() < deadline || static_cast<int>(out->units.size()) < kMinUnits) {
      UnitOutcome pass;
      for (const amulet::FleetConfig& config : smoke) {
        const int64_t t0 = NowNs();
        ASSIGN_OR_RETURN(amulet::FleetReport report, amulet::RunFleet(config));
        Accumulate(FleetOutcome(report, static_cast<double>(NowNs() - t0) / 1e9), &pass);
      }
      const double next = ReferenceSeconds();
      pass.ref_s = (ref + next) / 2;
      ref = next;
      out->units.push_back(pass);
    }
    return amulet::OkStatus();
  }
  return amulet::InvalidArgumentError("unknown workload '" + a.workload + "'");
}

int MainUntraced(const Args& a) {
  Untraced u;
  const Status status = RunUntraced(a, &u);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 1;
  }
  std::string units = "[";
  for (const UnitOutcome& unit : u.units) {
    units += (units.size() > 1 ? "," : "") + UnitJson(unit);
  }
  units += "]";
  auto list = [](const std::vector<double>& values) {
    std::string out = "[";
    for (double v : values) {
      out += (out.size() > 1 ? "," : "") + Num(v);
    }
    return out + "]";
  };
  std::printf(
      "{\"mode\":\"untraced\",\"host\":%s,\"units\":%s,\"build_ms\":%s,\"build_ref_s\":%s,"
      "\"round_s\":%s,\"build_hashes\":%s,\"build_counts\":%s,\"builds\":%llu,"
      "\"build_failures\":%llu,\"peak_rss_kb\":%ld}\n",
      HostJson(a, u.units.empty() ? 0 : u.units[0].jobs).c_str(), units.c_str(),
      list(u.build_ms).c_str(), list(u.build_ref_s).c_str(), list(u.round_s).c_str(),
      MapJson(u.build_hashes, true).c_str(), MapJson(u.build_counts, false).c_str(),
      static_cast<unsigned long long>(u.builds),
      static_cast<unsigned long long>(u.build_failures), PeakRssKb());
  return 0;
}

// --- Traced -----------------------------------------------------------------

struct Traced {
  UnitOutcome unit;
  TraceTally tally;
  std::map<std::string, uint64_t> build_hashes;
  double top_level_s = 0;
};

Status RunTraced(const Args& a, Traced* t) {
  TraceTally& tally = t->tally;
  if (a.workload == "suite_mpu" || a.workload == "churn_mixed") {
    amulet::FleetConfig config = SuiteMpu(a);
    if (a.workload == "churn_mixed") {
      ASSIGN_OR_RETURN(config, ChurnMixed(a));
    }
    ASSIGN_OR_RETURN(t->unit, TracedFleetUnit(config, &tally));
  } else if (a.workload == "ota_campaign") {
    ASSIGN_OR_RETURN(t->unit, TracedCampaignUnit(OtaCampaign(a), &tally));
  } else if (a.workload == "toolchain") {
    ASSIGN_OR_RETURN(std::vector<BuildJob> jobs, ToolchainJobs());
    const int64_t t0 = NowNs();
    for (size_t i : RoundOrder(jobs.size(), a.seed, 0)) {
      ASSIGN_OR_RETURN(amulet::Firmware fw,
                       TracedBuildFirmware(jobs[i].apps, jobs[i].options, &tally));
      t->build_hashes[jobs[i].key] = amulet::FirmwareImageHash(fw.image);
    }
    const double round_s = static_cast<double>(NowNs() - t0) / 1e9;
    for (const amulet::FleetConfig& config : ToolchainSmoke(a)) {
      ASSIGN_OR_RETURN(UnitOutcome unit, TracedFleetUnit(config, &tally));
      Accumulate(unit, &t->unit);
    }
    t->unit.wall_s += round_s;
  } else {
    return amulet::InvalidArgumentError("unknown workload '" + a.workload + "'");
  }
  t->top_level_s = static_cast<double>(SpanLog::Get().TopLevelNs()) / 1e9;

  // Probes for layers the workload does not exercise itself.
  if (tally.checkpoint_writes == 0) {
    RETURN_IF_ERROR(ProbeCheckpoint(a.scratch + "/probe.ckpt", &tally));
  }
  if (tally.verifies == 0) {
    const amulet::AppSpec& app = amulet::AmuletAppSuite()[0];
    ASSIGN_OR_RETURN(amulet::Firmware fw,
                     amulet::BuildFirmware({{app.name, app.source}}, amulet::AftOptions()));
    RETURN_IF_ERROR(ProbeOta(fw, &tally));
  }
  return amulet::OkStatus();
}

int MainTraced(const Args& a) {
  Traced t;
  Status status = RunTraced(a, &t);
  Result<CoreKernels> core = amulet::InternalError("unset");
  Result<std::map<MemoryModel, Table1Row>> table1 = amulet::InternalError("unset");
  if (status.ok()) {
    core = MeasureCoreKernels();
    status = core.status();
  }
  if (status.ok()) {
    table1 = MeasureTable1();
    status = table1.status();
  }
  if (status.ok()) {
    status = SpanLog::Get().WriteChromeTrace(a.scratch + "/trace_" + a.workload + ".json");
  }
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 1;
  }
  const TraceTally& tally = t.tally;
  const std::map<Layer, SpanLog::LayerTotals> totals = SpanLog::Get().Totals();
  auto self_ns = [&](Layer layer) -> double {
    auto it = totals.find(layer);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.self_ns);
  };
  auto count = [&](Layer layer) -> double {
    auto it = totals.find(layer);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  auto per_call_ms = [&](Layer layer) {
    return count(layer) > 0 ? self_ns(layer) / count(layer) / 1e6 : 0.0;
  };
  auto quantile_ms = [&](Layer layer, double q) {
    auto it = totals.find(layer);
    if (it == totals.end() || it->second.durations_ns.empty()) {
      return 0.0;
    }
    std::vector<int64_t> d = it->second.durations_ns;
    std::sort(d.begin(), d.end());
    const size_t rank = static_cast<size_t>(q * static_cast<double>(d.size() - 1) + 0.5);
    return static_cast<double>(d[rank]) / 1e6;
  };

  std::vector<std::pair<std::string, double>> m;
  const double images = std::max(1, tally.images);
  const Layer phases[] = {Layer::kAftParse,   Layer::kAftSema,    Layer::kAftLower,
                          Layer::kAftChecks,  Layer::kAftOpt,     Layer::kAftCodegen,
                          Layer::kAftAssemble};
  const char* phase_names[] = {"aft.parse_ms", "aft.sema_ms",    "aft.lower_ms",
                               "aft.checks_ms", "aft.opt_ms",    "aft.codegen_ms",
                               "aft.assemble_ms"};
  double phases_ns = 0;
  for (size_t i = 0; i < std::size(phases); ++i) {
    m.emplace_back(phase_names[i], self_ns(phases[i]) / images / 1e6);
    phases_ns += self_ns(phases[i]);
  }
  m.emplace_back("aft.link_ms", (self_ns(Layer::kAftBuild) - phases_ns) / images / 1e6);
  m.emplace_back("aft.check_insts", static_cast<double>(tally.check_insts));
  m.emplace_back("aft.checks_elided", static_cast<double>(tally.checks_elided));
  m.emplace_back("boot.template_ms", per_call_ms(Layer::kBootTemplate));
  m.emplace_back("boot.snapshot_ms", per_call_ms(Layer::kBootSnapshot));
  m.emplace_back("boot.snapshot_bytes",
                 tally.templates > 0 ? static_cast<double>(tally.snapshot_bytes) / tally.templates
                                     : 0.0);
  const double clones = count(Layer::kClone);
  m.emplace_back("clone.us_per_device", clones > 0 ? self_ns(Layer::kClone) / clones / 1e3 : 0);
  m.emplace_back("clone.count", clones);
  const double insns = static_cast<double>(t.unit.instructions);
  m.emplace_back("run.ns_per_insn", insns > 0 ? self_ns(Layer::kRun) / insns : 0);
  m.emplace_back("run.device_ms_p50", quantile_ms(Layer::kRun, 0.50));
  m.emplace_back("run.device_ms_p99", quantile_ms(Layer::kRun, 0.99));
  m.emplace_back("run.instructions", insns);
  m.emplace_back("run.data_accesses_per_insn",
                 insns > 0 ? static_cast<double>(t.unit.data_accesses) / insns : 0);
  m.emplace_back("run.syscalls", static_cast<double>(tally.syscalls));
  m.emplace_back("run.faults", static_cast<double>(t.unit.faults));
  m.emplace_back("core.dispatch_mips", core->dispatch_mips);
  m.emplace_back("core.memory_mips", core->memory_mips);
  const double lookups =
      static_cast<double>(tally.codecache_hits) + static_cast<double>(tally.codecache_misses);
  m.emplace_back("codecache.misses_per_device",
                 clones > 0 ? static_cast<double>(tally.codecache_misses) / clones : 0);
  m.emplace_back("codecache.hit_rate",
                 lookups > 0 ? static_cast<double>(tally.codecache_hits) / lookups : 0);
  m.emplace_back("codecache.invalidations", static_cast<double>(tally.codecache_invalidations));
  const double devices = static_cast<double>(std::max<uint64_t>(1, t.unit.devices));
  m.emplace_back("merge.us_per_device", (self_ns(Layer::kRecord) + self_ns(Layer::kMergeMetrics) +
                                         self_ns(Layer::kMergeLedger)) /
                                            devices / 1e3);
  m.emplace_back("ledger.buckets", static_cast<double>(tally.ledger_buckets));
  m.emplace_back("checkpoint.writes", static_cast<double>(tally.checkpoint_writes));
  m.emplace_back("checkpoint.encode_ms", per_call_ms(Layer::kCheckpointEncode));
  m.emplace_back("checkpoint.write_ms", per_call_ms(Layer::kCheckpointWrite));
  m.emplace_back("checkpoint.bytes_last", static_cast<double>(tally.checkpoint_bytes_last));
  double task_ns = 0;
  if (auto it = totals.find(Layer::kTask); it != totals.end()) {
    for (int64_t d : it->second.durations_ns) {
      task_ns += static_cast<double>(d);
    }
  }
  const double capacity_s = std::max(1, tally.threads) * tally.parallel_wall_s;
  m.emplace_back("executor.utilization", capacity_s > 0 ? task_ns / 1e9 / capacity_s : 0);
  m.emplace_back("executor.idle_ms", (capacity_s - task_ns / 1e9) * 1e3);
  m.emplace_back("ota.pack_ms", per_call_ms(Layer::kOtaPack));
  m.emplace_back("ota.decode_ms", per_call_ms(Layer::kOtaDecode));
  m.emplace_back("ota.verify_host_ms", per_call_ms(Layer::kOtaVerify));
  m.emplace_back("ota.verify_cycles", tally.verifies > 0 ? static_cast<double>(tally.verify_cycles) /
                                                               tally.verifies
                                                         : 0);
  // Traced share of the unit's thread-time: serial wall plus every worker's
  // share of the device loops.
  const double thread_time_s =
      t.unit.wall_s - tally.parallel_wall_s + capacity_s;
  m.emplace_back("trace.coverage", thread_time_s > 0 ? t.top_level_s / thread_time_s : 0);
  // Paper Table 1 (MSP430FR5969 silicon) beside the simulated design.
  const std::map<MemoryModel, Table1Row> silicon = {
      {MemoryModel::kNoIsolation, {23, 90}},
      {MemoryModel::kFeatureLimited, {41, 90}},
      {MemoryModel::kMpu, {29, 142}},
      {MemoryModel::kSoftwareOnly, {32, 98}},
  };
  for (const auto& [model, row] : *table1) {
    const std::string suffix = ModelShort(model);
    m.emplace_back("paper.table1.mem_access." + suffix, row.mem_access);
    m.emplace_back("paper.table1.mem_access." + suffix + ".silicon", silicon.at(model).mem_access);
    m.emplace_back("paper.table1.ctx_switch." + suffix, row.ctx_switch);
    m.emplace_back("paper.table1.ctx_switch." + suffix + ".silicon", silicon.at(model).ctx_switch);
  }

  std::string layers = "{";
  for (const auto& [name, value] : m) {
    layers += StrFormat("%s\"%s\":%s", layers.size() > 1 ? "," : "", name.c_str(),
                        Num(value).c_str());
  }
  layers += "}";
  std::printf(
      "{\"mode\":\"traced\",\"host\":%s,\"unit\":%s,\"layers\":%s,\"build_hashes\":%s,"
      "\"replay_matches\":%s,\"peak_rss_kb\":%ld}\n",
      HostJson(a, t.unit.jobs).c_str(), UnitJson(t.unit).c_str(), layers.c_str(),
      MapJson(t.build_hashes, true).c_str(), tally.replay_matches ? "true" : "false",
      PeakRssKb());
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--mode") {
      a->mode = value;
    } else if (flag == "--scratch") {
      a->scratch = value;
    } else if (flag == "--seed") {
      a->seed = static_cast<uint32_t>(std::strtoul(value.c_str(), &end, 0));
    } else if (flag == "--rollout-seed") {
      a->rollout_seed = static_cast<uint32_t>(std::strtoul(value.c_str(), &end, 0));
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--jobs") {
      a->jobs = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 && a->jobs >= 1 &&
         (a->mode == "untraced" || a->mode == "traced");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload NAME --mode untraced|traced [--seed N] "
                 "[--rollout-seed N] [--seconds S] [--jobs J] [--scratch DIR]\n");
    return 2;
  }
  return args.mode == "traced" ? perfbench::MainTraced(args) : perfbench::MainUntraced(args);
}
