// amuletc: command-line front end to the Amulet Firmware Toolchain.
//
//   amuletc [options] name=app.amc [name2=other.amc ...]   build firmware
//   amuletc fleet [fleet options]                          fleet / OTA campaign
//   amuletc fleet-merge SHARD.ckpt [...]                   merge shard checkpoints
//   amuletc ota-pack [pack options]                        pack an AMFU image
//   amuletc trace [trace options] name=app.amc [...]       record a trace
//   amuletc faults CHECKPOINT [faults options]             crash-bucket triage
//
// Each mode declares its flags in one table. The same rows parse the
// arguments, print the diagnostics and generate `amuletc <mode> --help`.
// Every value flag takes `--flag VALUE` or `--flag=VALUE`.
//
// Exit status: 0 on success, 1 on any usage, toolchain or runtime error, and
// 2 when a campaign stage aborts the rollout.
#include <algorithm>
#include <cctype>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/aft/aft.h"
#include "src/aft/listing.h"
#include "src/apps/app_sources.h"
#include "src/asm/ihex.h"
#include "src/common/strings.h"
#include "src/fleet/campaign.h"
#include "src/fleet/checkpoint.h"
#include "src/fleet/fleet.h"
#include "src/fleet/merge.h"
#include "src/fleet/profile.h"
#include "src/os/os.h"
#include "src/ota/image.h"
#include "src/scope/tracer.h"

namespace {

using amulet::InvalidArgumentError;
using amulet::OkStatus;
using amulet::Status;

// Upper bound for `fleet --devices`: per-device rows, completion bits and
// checkpoint records are sized by the device count, so an unbounded value
// could exhaust host memory before the first device runs.
constexpr int kMaxFleetDevices = 1'000'000;
// Upper bound for `fleet --jobs`: Executor::ParallelFor starts
// min(jobs, devices) threads, so an unbounded value on a large fleet would
// ask the host for that many threads at once.
constexpr int kMaxJobs = 1024;

// Converts and range-checks one flag value, then stores it; a switch's
// setter gets "". A failure's message, when it has one, is the reason
// printed on the bad-value line.
using Setter = std::function<Status(const std::string& value)>;

// One row of a mode's flag table.
struct Flag {
  const char* name;     // null: a section heading in --help, `help` its title
  const char* metavar;  // null: a switch
  const char* help;     // '\n' starts a continuation line
  Setter set;
  const char* needs = nullptr;  // another flag that must be given too
};

struct Mode {
  const char* name;   // "" for the build mode, which has no mode word
  const char* usage;  // the arguments on the usage line
  const char* about;  // the --help paragraph
  int (*run)(const Mode& mode, int argc, char** argv);

  std::string command() const {
    return *name == '\0' ? std::string("amuletc") : std::string("amuletc ") + name;
  }
};

// ---- Value kinds -----------------------------------------------------------

Status Invalid() { return InvalidArgumentError(""); }

// An integer in [lo, hi]; base 0 also takes 0x-prefixed hex.
template <typename T>
Setter Int(T* out, T lo, T hi, int base = 10) {
  return [=](const std::string& value) {
    T parsed{};
    if (!amulet::ParseInteger(value, &parsed, base) || parsed < lo || parsed > hi) {
      return Invalid();
    }
    *out = parsed;
    return OkStatus();
  };
}

Setter Text(std::string* out) {
  return [out](const std::string& value) {
    *out = value;
    return OkStatus();
  };
}

// A switch: stores `value` when given.
template <typename T>
Setter Store(T* out, T value) {
  return [=](const std::string&) {
    *out = value;
    return OkStatus();
  };
}

// A comma list with no empty item.
Setter List(std::vector<std::string>* out) {
  return [out](const std::string& value) {
    std::vector<std::string> items;
    for (std::string_view item : amulet::Split(value, ',')) {
      if (item.empty()) {
        return Invalid();
      }
      items.emplace_back(item);
    }
    *out = std::move(items);
    return OkStatus();
  };
}

// A finite rate in [0, 1].
Setter Rate(double* out) {
  return [out](const std::string& value) {
    char* end = nullptr;
    const double rate = std::strtod(value.c_str(), &end);
    if (*end != '\0' || !(rate >= 0 && rate <= 1)) {
      return Invalid();
    }
    *out = rate;
    return OkStatus();
  };
}

// 16 hex digits -> the four 16-bit MAC key words.
Setter Key(amulet::OtaKey* out) {
  return [out](const std::string& value) {
    if (value.size() != 16 ||
        !std::all_of(value.begin(), value.end(),
                     [](unsigned char c) { return std::isxdigit(c) != 0; })) {
      return Invalid();
    }
    for (size_t w = 0; w < 4; ++w) {
      amulet::ParseInteger(std::string_view(value).substr(w * 4, 4), &out->words[w], 16);
    }
    return OkStatus();
  };
}

Flag ModelFlag(amulet::MemoryModel* out) {
  return {"--model", "none|fl|sw|mpu", "isolation model (default: mpu)",
          [out](const std::string& value) {
            return amulet::ParseModelWord(value, out) ? OkStatus() : Invalid();
          }};
}

// ---- Parsing and diagnostics -----------------------------------------------

// Prints "CMD: WHAT (see 'CMD --help')" and returns exit status 1.
int UsageError(const Mode& mode, const std::string& what) {
  const std::string cmd = mode.command();
  std::fprintf(stderr, "%s: %s (see '%s --help')\n", cmd.c_str(), what.c_str(), cmd.c_str());
  return 1;
}

// Prints "CMD: STATUS" and returns exit status 1.
int Error(const Mode& mode, const Status& status) {
  std::fprintf(stderr, "%s: %s\n", mode.command().c_str(), status.ToString().c_str());
  return 1;
}

std::string HelpText(const Mode& mode, const std::vector<Flag>& flags) {
  std::string text = "usage: " + mode.command() + " " + mode.usage + "\n\n" + mode.about + "\n\n";
  // "  HEAD" padded to 24 columns, then the help, continuation lines under it.
  auto row = [&](std::string head, std::string_view help) {
    for (std::string_view line : amulet::Split(help, '\n')) {
      head.resize(std::max<size_t>(head.size(), 22), ' ');
      text += "  " + head + "  " + std::string(line) + "\n";
      head.clear();
    }
  };
  bool help_listed = false;
  for (const Flag& flag : flags) {
    if (flag.name == nullptr) {  // --help closes the first section
      if (!help_listed) {
        row("--help", "show this help");
        help_listed = true;
      }
      text += std::string("\n") + flag.help + "\n";
    } else {
      row(flag.metavar == nullptr ? flag.name : std::string(flag.name) + " " + flag.metavar,
          flag.help);
    }
  }
  if (!help_listed) {
    row("--help", "show this help");
  }
  return text;
}

// Parses the arguments after the mode word against `flags`. Arguments that do
// not start with '-' go to `positional`, or are unknown flags without one.
// Returns the exit status when parsing ends the run (0 after --help, 1 after
// a diagnostic), or nullopt when the run goes on.
std::optional<int> ParseFlags(const Mode& mode, const std::vector<Flag>& flags, int argc,
                              char** argv, const Setter& positional = nullptr) {
  auto lookup = [&](std::string_view name) -> const Flag* {
    for (const Flag& flag : flags) {
      if (flag.name != nullptr && name == flag.name) {
        return &flag;
      }
    }
    return nullptr;
  };
  std::vector<const Flag*> given;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(HelpText(mode, flags).c_str(), stdout);
      return 0;
    }
    if (arg.empty() || arg[0] != '-') {
      if (!positional) {
        return UsageError(mode, "unknown flag '" + arg + "'");
      }
      if (const Status status = positional(arg); !status.ok()) {
        return Error(mode, status);
      }
      continue;
    }
    const Flag* flag = lookup(arg);
    std::optional<std::string> value;
    const size_t eq = arg.find('=');
    if (flag == nullptr && eq != std::string::npos) {
      flag = lookup(std::string_view(arg).substr(0, eq));
      if (flag != nullptr && flag->metavar == nullptr) {
        flag = nullptr;  // a switch takes no value
      }
      value = arg.substr(eq + 1);
    }
    if (flag == nullptr) {
      return UsageError(mode, "unknown flag '" + arg + "'");
    }
    const std::string name = flag->name;
    if (flag->metavar != nullptr) {
      if (!value && i + 1 < argc) {
        value = argv[++i];
      }
      if (!value || value->empty()) {
        return UsageError(mode, "flag '" + name + "' requires a value");
      }
    }
    if (const Status status = flag->set(value.value_or("")); !status.ok()) {
      std::string what = "bad value '" + value.value_or("") + "' for flag '" + name + "'";
      if (!status.message().empty()) {
        what += ": " + status.message();
      }
      return UsageError(mode, what);
    }
    given.push_back(flag);
  }
  for (const Flag* flag : given) {
    if (flag->needs != nullptr &&
        std::find(given.begin(), given.end(), lookup(flag->needs)) == given.end()) {
      return UsageError(mode, std::string("flag '") + flag->name + "' requires " + flag->needs);
    }
  }
  return std::nullopt;
}

// ---- Files -------------------------------------------------------------------

amulet::Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return amulet::NotFoundError("cannot open " + path);
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

// Writes `contents` to `path`, or prints "cannot write PATH" and returns false.
bool WriteFile(const std::string& path, std::string_view contents) {
  std::ofstream out(path, std::ios::binary);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

// Positional `name=path` app arguments, each read into `apps`.
Setter AppFiles(std::vector<amulet::AppSource>* apps) {
  return [apps](const std::string& arg) -> Status {
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      return InvalidArgumentError("app arguments take the form name=path: " + arg);
    }
    ASSIGN_OR_RETURN(std::string source, ReadFile(arg.substr(eq + 1)));
    apps->push_back({arg.substr(0, eq), std::move(source)});
    return OkStatus();
  };
}

// The report files a fleet, campaign or merge writes on request.
struct ReportFiles {
  std::string metrics;  // --metrics-out
  std::string faults;   // --faults-out
};

// Prints a run's digest line. Two runs of one seeded config print the same
// line whatever their --jobs, --resume, --no-predecode or sharding; CI's
// determinism gates compare it. `kind` is "fleet" or "campaign".
void PrintDigest(const char* kind, const std::string& digest) {
  std::printf("%s digest: %016llx\n", kind,
              static_cast<unsigned long long>(amulet::Fnv1a64(
                  reinterpret_cast<const uint8_t*>(digest.data()), digest.size())));
}

// Writes the report files asked for; returns the exit status.
int WriteReportFiles(const char* kind, const amulet::MetricRegistry& metrics,
                     const amulet::FaultLedger& faults, const ReportFiles& files) {
  if (!files.metrics.empty()) {
    if (!WriteFile(files.metrics, metrics.ToJson())) {
      return 1;
    }
    std::printf("wrote %s metrics to %s\n", kind, files.metrics.c_str());
  }
  if (!files.faults.empty()) {
    if (!WriteFile(files.faults, faults.ToJsonl())) {
      return 1;
    }
    std::printf("wrote %zu fault bucket(s) to %s\n", faults.bucket_count(), files.faults.c_str());
  }
  return 0;
}

// ---- Modes -----------------------------------------------------------------

int RunBuild(const Mode& mode, int argc, char** argv) {
  amulet::AftOptions options;
  bool want_report = false;
  bool want_listing = false;
  bool want_dump_ir = false;
  bool walk = false;
  std::string hex_path;
  int run_seconds = 0;
  std::vector<amulet::AppSource> apps;
  const std::vector<Flag> flags = {
      ModelFlag(&options.model),
      {"--shadow-ret-stack", nullptr, "InfoMem shadow return-address stack (paper '5)",
       Store(&options.shadow_return_stack, true)},
      {"--future-mpu", nullptr, "hypothetical >=4-region MPU (no checks/reconfig)",
       Store(&options.future_mpu, true)},
      {"--zero-shared-stack", nullptr, "rejected design: shared stack + bzero on switch",
       Store(&options.zero_shared_stack, true)},
      {"--no-check-opt", nullptr,
       "keep every phase-2 bound check (disable the\n"
       "phase-2.5 redundant-check optimizer, docs/aft.md)",
       Store(&options.optimize_checks, false)},
      {"--dump-ir", nullptr,
       "print each app's IR after phase 2 and (when the\noptimizer runs) after phase 2.5",
       Store(&want_dump_ir, true)},
      {"--hex", "FILE", "write the firmware as Intel HEX (flashable form)", Text(&hex_path)},
      {"--report", nullptr, "per-app build report (checks, stack, sizes)",
       Store(&want_report, true)},
      {"--listing", nullptr, "full firmware listing (map + disassembly)",
       Store(&want_listing, true)},
      {"--run", "SECONDS", "boot under AmuletOS and simulate", Int(&run_seconds, 1, INT_MAX)},
      {"--walk", nullptr, "(with --run) synthesize walking accelerometer data",
       Store(&walk, true), "--run"},
  };
  if (const auto done = ParseFlags(mode, flags, argc, argv, AppFiles(&apps))) {
    return *done;
  }
  if (apps.empty()) {
    return UsageError(mode, "no apps given");
  }

  auto firmware = amulet::BuildFirmware(apps, options);
  if (!firmware.ok()) {
    return Error(mode, firmware.status());
  }

  std::printf("built %zu app(s) under %s%s\n", firmware->apps.size(),
              std::string(amulet::MemoryModelName(options.model)).c_str(),
              options.shadow_return_stack ? " + shadow return stack" : "");

  if (!hex_path.empty()) {
    if (!WriteFile(hex_path, amulet::WriteIntelHex(firmware->image))) {
      return 1;
    }
    std::printf("wrote %s\n", hex_path.c_str());
  }

  if (want_dump_ir) {
    for (const amulet::AppSource& app : apps) {
      auto trace = amulet::TraceAppBuild(app, options);
      if (!trace.ok()) {
        std::fprintf(stderr, "amuletc: --dump-ir %s: %s\n", app.name.c_str(),
                     trace.status().ToString().c_str());
        return 1;
      }
      std::printf("\n--- %s: IR after phase 2 (checks inserted) ---\n%s", app.name.c_str(),
                  trace->ir_after_checks.c_str());
      if (!trace->ir_after_opt.empty()) {
        std::printf("\n--- %s: IR after phase 2.5 (check optimizer) ---\n%s",
                    app.name.c_str(), trace->ir_after_opt.c_str());
      }
    }
  }

  if (want_report) {
    for (const amulet::AppImage& app : firmware->apps) {
      std::printf("\napp '%s'\n", app.name.c_str());
      std::printf("  code  [0x%04x, 0x%04x)  %d bytes\n", app.code_lo, app.code_hi,
                  app.code_hi - app.code_lo);
      std::printf("  stack [0x%04x, 0x%04x)  %d bytes%s\n", app.data_lo, app.stack_top,
                  app.stack_bytes,
                  app.stack_statically_bounded ? " (statically bounded)"
                                               : " (recursion: reservation)");
      std::printf("  data  [0x%04x, 0x%04x)\n", app.stack_top, app.data_hi);
      std::printf("  checks: %d data, %d code, %d index; ret checks on %d function(s)\n",
                  app.checks.data_checks, app.checks.code_checks, app.checks.index_checks,
                  app.checks.ret_checks);
      std::printf("  check opt: %d of %d check insn(s) elided, %d hoisted\n",
                  app.checks.elided_data_checks + app.checks.elided_code_checks +
                      app.checks.elided_index_checks,
                  app.checks.check_insts, app.checks.hoisted_checks);
      std::printf("  features: pointers=%s recursion=%s indirect-calls=%s\n",
                  app.audit.uses_pointers ? "yes" : "no",
                  app.audit.uses_recursion ? "yes" : "no",
                  app.audit.has_indirect_calls ? "yes" : "no");
      std::printf("  APIs:");
      for (const std::string& api : app.audit.called_apis) {
        std::printf(" %s", api.c_str());
      }
      std::printf("\n");
    }
  }

  if (want_listing) {
    std::printf("\n%s", amulet::RenderListing(*firmware).c_str());
  }

  if (run_seconds > 0) {
    amulet::Machine machine;
    amulet::AmuletOs os(&machine, std::move(*firmware), amulet::OsOptions{});
    amulet::FlightRecorder flight;
    amulet::Status status = os.Boot();
    if (!status.ok()) {
      std::fprintf(stderr, "boot: %s\n", status.ToString().c_str());
      return 1;
    }
    os.AttachFlightRecorder(&flight);
    if (walk) {
      os.sensors().set_mode(amulet::ActivityMode::kWalking);
    }
    status = os.RunFor(static_cast<uint64_t>(run_seconds) * 1000);
    if (!status.ok()) {
      std::fprintf(stderr, "run: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("\n%s", os.StatusReport().c_str());
    if (!os.faults().empty()) {
      std::printf("faults:\n");
      for (const amulet::FaultRecord& fault : os.faults()) {
        std::printf("%s", amulet::RenderFaultForensics(fault, machine.bus()).c_str());
      }
    }
  }
  return 0;
}

// `amuletc fleet`: build the requested app mix once, then simulate a fleet of
// devices in parallel — or, with --campaign, run a staged OTA rollout — and
// print the aggregate report.
int RunFleet(const Mode& mode, int argc, char** argv) {
  amulet::CampaignConfig campaign;
  amulet::FleetConfig& config = campaign.fleet;
  ReportFiles files;
  std::string image_path;
  int duration_s = static_cast<int>(config.sim_ms / 1000);
  double stage_abort = -1;  // < 0: keep the per-stage default
  bool resume = false;
  bool campaign_mode = false;
  bool profile_from_file = false;
  const std::vector<Flag> flags = {
      {"--devices", "N", "number of simulated devices, at most 1000000\n(default: 16)",
       Int(&config.device_count, 1, kMaxFleetDevices)},
      {"--apps", "a,b,c", "suite apps to install (default: the full suite)", List(&config.apps)},
      ModelFlag(&config.model),
      {"--seed", "N",
       "fleet seed; device i's stream is a splitmix64 mix\nof (seed, i) (default: 20180711)",
       Int(&config.fleet_seed, 0u, UINT32_MAX, 0)},
      {"--duration", "SECONDS", "simulated time per device (default: 10)",
       Int(&duration_s, 1, INT_MAX)},
      {"--jobs", "N", "worker threads, at most 1024\n(default: hardware concurrency)",
       Int(&config.jobs, 1, kMaxJobs)},
      {"--shard", "I/N",
       "simulate only shard I of N (devices are split into\n"
       "N contiguous global-id slices; pair with\n"
       "--checkpoint and fold the N checkpoints together\n"
       "with 'amuletc fleet-merge')",
       [&](const std::string& value) {
         const size_t slash = value.find('/');
         int index = 0;
         int count = 0;
         if (slash == std::string::npos ||
             !amulet::ParseInteger(std::string_view(value).substr(0, slash), &index) ||
             !amulet::ParseInteger(std::string_view(value).substr(slash + 1), &count) ||
             index < 0 || count < 1 || index >= count) {
           return Invalid();
         }
         config.shard_index = index;
         config.shard_count = count;
         return OkStatus();
       }},
      {"--profile", "FILE",
       "heterogeneous population: one cohort spec per line,\n"
       "NAME:WEIGHT:MODEL[:APPS[:ACTIVITY]], '#' comments\n"
       "(e.g. 'wear:90:mpu:pedometer+clock:1/2/1')",
       [&](const std::string& path) -> Status {
         if (!config.profile.empty()) {
           return InvalidArgumentError("cannot be combined with another --profile or --cohort");
         }
         ASSIGN_OR_RETURN(const std::string text, ReadFile(path));
         ASSIGN_OR_RETURN(config.profile, amulet::ParsePopulationProfile(text));
         profile_from_file = true;
         return OkStatus();
       }},
      {"--cohort", "SPEC", "inline cohort spec (repeatable); same syntax as a\n--profile line",
       [&](const std::string& spec) -> Status {
         if (profile_from_file) {
           return InvalidArgumentError("cannot be combined with --profile");
         }
         ASSIGN_OR_RETURN(amulet::Cohort cohort, amulet::ParseCohortSpec(spec));
         config.profile.cohorts.push_back(std::move(cohort));
         return OkStatus();
       }},
      {"--metrics-out", "FILE", "write streaming fleet metrics as JSON", Text(&files.metrics)},
      {"--no-device-stats", nullptr, "streaming aggregation only (O(1) memory per fleet)",
       Store(&config.retain_device_stats, false)},
      {"--no-predecode", nullptr,
       "baseline interpreter core (no predecoded-insn\ncache); results are bit-identical, "
       "just slower",
       Store(&config.predecode, false)},
      {"--no-flight-recorder", nullptr,
       "skip per-device flight recorders; fault records\nlose their flight tails, digests "
       "are unchanged",
       Store(&config.flight_recorder, false)},
      {"--no-check-opt", nullptr,
       "build the firmware without the phase-2.5 check\noptimizer (changes the image and "
       "firmware hash)",
       Store(&config.check_opt, false)},
      {"--faults-out", "FILE", "write the merged fault ledger as JSONL", Text(&files.faults)},
      {"--checkpoint", "FILE",
       "persist a resumable checkpoint: an append-only\njournal, compacted to one AMFC file "
       "at the end",
       Text(&config.checkpoint_path)},
      {"--checkpoint-every", "N", "journal cadence in completed devices (default: 64)",
       Int(&config.checkpoint_every_devices, 1, INT_MAX), "--checkpoint"},
      {"--resume", nullptr,
       "continue from --checkpoint FILE if it exists; only\ndevices missing from it are "
       "simulated",
       Store(&resume, true), "--checkpoint"},
      {"--verbose", nullptr, "progress lines (devices done, rate, ETA) on stderr",
       Store(&config.verbosity, 1)},
      {nullptr, nullptr, "Campaign options (require --campaign):", nullptr},
      {"--campaign", nullptr, "staged OTA rollout instead of a plain fleet run",
       Store(&campaign_mode, true)},
      {"--to-apps", "a,b,c", "app list of the new firmware (default: same as --apps)",
       List(&campaign.to_apps), "--campaign"},
      {"--from-version", "N", "firmware version the fleet starts on (default: 1)",
       Int(&campaign.from_version, 0u, UINT32_MAX, 0), "--campaign"},
      {"--to-version", "N", "firmware version being rolled out (default: 2)",
       Int(&campaign.to_version, 0u, UINT32_MAX, 0), "--campaign"},
      {"--stages", "5,50,100", "cumulative rollout percents (default: 5,50,100)",
       [&](const std::string& value) -> Status {
         std::vector<std::string> percents;
         RETURN_IF_ERROR(List(&percents)(value));
         campaign.stages.clear();
         for (const std::string& percent : percents) {
           amulet::CampaignStage stage;
           RETURN_IF_ERROR(Int(&stage.percent, 1, 100)(percent));
           campaign.stages.push_back(stage);
         }
         return OkStatus();
       },
       "--campaign"},
      {"--stage-abort", "RATE", "per-stage failure-rate abort threshold in [0,1]\n(default: 0.25)",
       Rate(&stage_abort), "--campaign"},
      {"--health-ms", "N", "post-activation health window (default: 1000)",
       Int<uint64_t>(&campaign.health_ms, 1, UINT64_MAX), "--campaign"},
      {"--storm", "N", "watchdog resets inside the window that trigger\nrollback (default: 3)",
       Int(&campaign.storm_threshold, 1, INT_MAX), "--campaign"},
      {"--rollout-seed", "N", "seeded device ordering (default: 0xB007)",
       Int(&campaign.rollout_seed, 0u, UINT32_MAX, 0), "--campaign"},
      {"--key", "HEX16", "fleet MAC key as 16 hex digits", Key(&campaign.key), "--campaign"},
      {"--image", "FILE",
       "deploy this packed AMFU container instead of\npacking --to-apps (see amuletc ota-pack)",
       Text(&image_path), "--campaign"},
  };
  if (const auto done = ParseFlags(mode, flags, argc, argv)) {
    return *done;
  }
  if (campaign_mode && !config.retain_device_stats) {
    return UsageError(mode,
                      "flag '--no-device-stats' cannot be used with --campaign: campaigns keep "
                      "every device's row for their stage accounting");
  }
  config.sim_ms = static_cast<uint64_t>(duration_s) * 1000;
  if (stage_abort >= 0) {
    // Applies to every stage, whether --stages came before, after, or not at
    // all (then it customizes the default 5/50/100 staging).
    if (campaign.stages.empty()) {
      campaign.stages = {{5, stage_abort}, {50, stage_abort}, {100, stage_abort}};
    } else {
      for (amulet::CampaignStage& stage : campaign.stages) {
        stage.max_failure_rate = stage_abort;
      }
    }
  }
  if (config.apps.empty()) {
    for (const amulet::AppSpec& app : amulet::AmuletAppSuite()) {
      config.apps.push_back(app.name);
    }
  }

  // Resumes when asked and a checkpoint exists; otherwise starts fresh.
  auto run = [&](auto run_engine, auto resume_engine, const auto& engine_config) {
    if (resume) {
      auto resumed = resume_engine(engine_config);
      if (resumed.ok() || resumed.status().code() != amulet::StatusCode::kNotFound) {
        return resumed;
      }
      // First run of a kill-and-retry loop: no checkpoint yet.
      std::fprintf(stderr, "amuletc fleet: no checkpoint at %s, starting fresh\n",
                   config.checkpoint_path.c_str());
    }
    return run_engine(engine_config);
  };
  if (campaign_mode) {
    if (!image_path.empty()) {
      amulet::Result<std::string> image = ReadFile(image_path);
      if (!image.ok()) {
        return Error(mode, image.status());
      }
      campaign.image_override.assign(image->begin(), image->end());
    }
    amulet::Result<amulet::CampaignReport> report =
        run(amulet::RunCampaign, amulet::ResumeCampaign, campaign);
    if (!report.ok()) {
      return Error(mode, report.status());
    }
    std::printf("%s", amulet::RenderCampaignReport(*report).c_str());
    PrintDigest("campaign", amulet::CampaignDigest(*report));
    if (WriteReportFiles("campaign", report->metrics, report->faults, files) != 0) {
      return 1;
    }
    // An aborted campaign still printed its report; reflect the abort in the
    // exit status so rollout scripts can halt their own pipelines.
    return report->aborted_stage >= 0 ? 2 : 0;
  }
  amulet::Result<amulet::FleetReport> report = run(amulet::RunFleet, amulet::ResumeFleet, config);
  if (!report.ok()) {
    return Error(mode, report.status());
  }
  std::printf("%s", amulet::RenderFleetReport(*report).c_str());
  PrintDigest("fleet", amulet::FleetDigest(*report));
  return WriteReportFiles("fleet", report->metrics, report->faults, files);
}

// `amuletc fleet-merge`: fold the AMFC checkpoints written by the N shards of
// one fleet into a whole-fleet checkpoint and print the merged digest, which
// is byte-identical to a single-host run of the same config.
int RunFleetMerge(const Mode& mode, int argc, char** argv) {
  std::vector<std::string> shard_paths;
  std::string out_path;
  ReportFiles files;
  const std::vector<Flag> flags = {
      {"--out", "FILE", "write the merged whole-fleet checkpoint", Text(&out_path)},
      {"--metrics-out", "FILE", "write the merged streaming metrics as JSON",
       Text(&files.metrics)},
      {"--faults-out", "FILE", "write the merged fault ledger as JSONL", Text(&files.faults)},
  };
  if (const auto done = ParseFlags(mode, flags, argc, argv, [&](const std::string& path) {
        shard_paths.push_back(path);
        return OkStatus();
      })) {
    return *done;
  }
  if (shard_paths.empty()) {
    return UsageError(mode, "no shard checkpoints given");
  }
  std::vector<amulet::FleetCheckpoint> shards;
  for (const std::string& path : shard_paths) {
    amulet::Result<amulet::FleetCheckpoint> shard = amulet::ReadFleetCheckpoint(path);
    if (!shard.ok()) {
      std::fprintf(stderr, "amuletc fleet-merge: %s: %s\n", path.c_str(),
                   shard.status().ToString().c_str());
      return 1;
    }
    shards.push_back(std::move(*shard));
  }
  amulet::Result<amulet::FleetCheckpoint> merged = amulet::MergeFleetCheckpoints(shards);
  if (!merged.ok()) {
    return Error(mode, merged.status());
  }
  amulet::Result<amulet::FleetReport> report = amulet::ReportFromCheckpoint(*merged);
  if (!report.ok()) {
    return Error(mode, report.status());
  }
  std::printf("merged %zu shard checkpoint(s): %d/%d device(s) complete\n", shards.size(),
              merged->CompletedCount(), merged->device_count);
  std::printf("config: %s\n", merged->config_text.c_str());
  if (merged->profile_hash != 0) {
    std::printf("profile: %s\n", merged->profile_text.c_str());
  }
  PrintDigest("fleet", amulet::FleetDigest(*report));
  if (!out_path.empty()) {
    const Status status = amulet::WriteFleetCheckpoint(out_path, *merged);
    if (!status.ok()) {
      return Error(mode, status);
    }
    std::printf("wrote merged checkpoint to %s\n", out_path.c_str());
  }
  return WriteReportFiles("fleet", report->metrics, report->faults, files);
}

// `amuletc ota-pack`: build firmware from suite apps and/or name=path
// sources, authenticate it with the fleet key, and write the AMFU container.
int RunOtaPack(const Mode& mode, int argc, char** argv) {
  amulet::AftOptions options;
  std::string out_path;
  uint32_t fw_version = 2;
  amulet::OtaKey key;
  int64_t tamper_bit = -1;
  std::vector<std::string> suite_names;
  std::vector<amulet::AppSource> apps;
  const std::vector<Flag> flags = {
      {"--out", "FILE", "container destination (required)", Text(&out_path)},
      {"--apps", "a,b,c", "suite apps to build (combined with name=path args)",
       List(&suite_names)},
      ModelFlag(&options.model),
      {"--fw-version", "N", "firmware version stamped in the header (default: 2)",
       Int(&fw_version, 0u, UINT32_MAX, 0)},
      {"--key", "HEX16", "fleet MAC key as 16 hex digits (default: built-in)", Key(&key)},
      {"--tamper-bit", "N",
       "attacker model: flip bit N of the authenticated\n"
       "content (MAC bits [0,64), payload bits 64+) and\n"
       "re-fix the transport checksums",
       Int<int64_t>(&tamper_bit, 0, INT64_MAX)},
  };
  if (const auto done = ParseFlags(mode, flags, argc, argv, AppFiles(&apps))) {
    return *done;
  }
  if (out_path.empty()) {
    return UsageError(mode, "--out FILE is required");
  }
  for (const std::string& name : suite_names) {
    amulet::Result<const amulet::AppSpec*> app = amulet::FindApp(name);
    if (!app.ok()) {
      return Error(mode, app.status());
    }
    apps.push_back({(*app)->name, (*app)->source});
  }
  if (apps.empty()) {
    return UsageError(mode, "nothing to pack; pass --apps and/or name=path arguments");
  }

  auto firmware = amulet::BuildFirmware(apps, options);
  if (!firmware.ok()) {
    return Error(mode, firmware.status());
  }
  const amulet::OtaImage image =
      amulet::PackOtaImage(firmware->image, fw_version, options.model, key);
  std::vector<uint8_t> bytes = amulet::EncodeOtaImage(image);
  if (tamper_bit >= 0) {
    auto tampered = amulet::TamperOtaImage(bytes, static_cast<size_t>(tamper_bit));
    if (!tampered.ok()) {
      return Error(mode, tampered.status());
    }
    bytes = *tampered;
  }
  if (!WriteFile(out_path, std::string_view(reinterpret_cast<const char*>(bytes.data()),
                                            bytes.size()))) {
    return 1;
  }
  std::printf("packed %zu app(s) under %s into %s: fw v%u, %zu payload byte(s), "
              "%zu container byte(s), mac %04x%04x%04x%04x%s\n",
              apps.size(), std::string(amulet::MemoryModelName(options.model)).c_str(),
              out_path.c_str(), fw_version, image.payload.size(), bytes.size(),
              image.mac.words[0], image.mac.words[1], image.mac.words[2],
              image.mac.words[3], tamper_bit >= 0 ? " (TAMPERED)" : "");
  return 0;
}

// `amuletc trace`: boot the app(s) with an event tracer attached, simulate,
// and emit the recording as Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing). --validate re-parses the emitted bytes with the native
// checker — no external tooling needed to prove the file is well-formed.
int RunTrace(const Mode& mode, int argc, char** argv) {
  amulet::AftOptions options;
  int seconds = 2;
  std::string out_path = "amulet.trace.json";
  bool validate = false;
  std::vector<amulet::AppSource> apps;
  const std::vector<Flag> flags = {
      ModelFlag(&options.model),
      {"--seconds", "N", "simulated seconds to record (default: 2)", Int(&seconds, 1, INT_MAX)},
      {"--out", "FILE", "trace destination (default: amulet.trace.json)", Text(&out_path)},
      {"--validate", nullptr, "parse the emitted JSON back and check span nesting",
       Store(&validate, true)},
  };
  if (const auto done = ParseFlags(mode, flags, argc, argv, AppFiles(&apps))) {
    return *done;
  }
  if (apps.empty()) {
    return UsageError(mode, "no apps given");
  }
  auto firmware = amulet::BuildFirmware(apps, options);
  if (!firmware.ok()) {
    return Error(mode, firmware.status());
  }
  amulet::Machine machine;
  amulet::EventTracer tracer;
  amulet::AmuletOs os(&machine, std::move(*firmware), amulet::OsOptions{});
  os.AttachTracer(&tracer);  // before Boot so on_init dispatches are recorded
  amulet::Status status = os.Boot();
  if (!status.ok()) {
    std::fprintf(stderr, "boot: %s\n", status.ToString().c_str());
    return 1;
  }
  status = os.RunFor(static_cast<uint64_t>(seconds) * 1000);
  if (!status.ok()) {
    std::fprintf(stderr, "run: %s\n", status.ToString().c_str());
    return 1;
  }
  const std::string json =
      amulet::RenderChromeTrace(tracer, /*cpu_mhz=*/16.0, /*process_name=*/"amulet");
  if (!WriteFile(out_path, json)) {
    return 1;
  }
  std::printf("wrote %s (%llu event(s) recorded, %llu dropped)\n", out_path.c_str(),
              static_cast<unsigned long long>(tracer.recorded_total()),
              static_cast<unsigned long long>(tracer.dropped()));
  if (tracer.dropped() > 0) {
    std::fprintf(stderr,
                 "amuletc trace: warning: the event ring wrapped and %llu event(s) were "
                 "dropped; the trace covers only the most recent activity (rerun with "
                 "fewer --seconds for full coverage)\n",
                 static_cast<unsigned long long>(tracer.dropped()));
  }
  if (validate) {
    auto verdict = amulet::ValidateChromeTrace(json);
    if (!verdict.ok()) {
      std::fprintf(stderr, "trace INVALID: %s\n", verdict.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "trace valid: %zu event(s) (%zu spans, %zu instants), max depth %d, "
        "timestamps %s\n",
        verdict->events, verdict->begins, verdict->instants, verdict->max_depth,
        verdict->timestamps_monotonic ? "monotonic" : "NON-MONOTONIC");
  }
  return 0;
}

// `amuletc faults`: offline triage over a persisted AMFC checkpoint. Works
// on both plain-fleet and campaign checkpoints (the ledger section is common
// to both kinds), so a crashed or aborted rollout can be triaged from the
// checkpoint it left behind without re-simulating anything.
int RunFaults(const Mode& mode, int argc, char** argv) {
  std::string checkpoint_path;
  std::string jsonl_path;
  int top = 10;
  const std::vector<Flag> flags = {
      {"--top", "K", "buckets to show (default: 10)", Int(&top, 1, INT_MAX)},
      {"--jsonl", "FILE", "also export every bucket as JSON lines", Text(&jsonl_path)},
  };
  if (const auto done = ParseFlags(mode, flags, argc, argv, [&](const std::string& path) {
        if (!checkpoint_path.empty()) {
          return InvalidArgumentError("more than one checkpoint given: " + path);
        }
        checkpoint_path = path;
        return OkStatus();
      })) {
    return *done;
  }
  if (checkpoint_path.empty()) {
    return UsageError(mode, "a checkpoint path is required");
  }
  amulet::Result<amulet::FleetCheckpoint> checkpoint =
      amulet::ReadFleetCheckpoint(checkpoint_path);
  if (!checkpoint.ok()) {
    return Error(mode, checkpoint.status());
  }
  std::printf("%s: %s checkpoint, %d/%d device(s) completed\n", checkpoint_path.c_str(),
              checkpoint->kind == amulet::FleetCheckpointKind::kCampaign ? "campaign"
                                                                         : "fleet",
              checkpoint->CompletedCount(), checkpoint->device_count);
  std::printf("%s", checkpoint->faults.RenderTriage(static_cast<size_t>(top)).c_str());
  if (!checkpoint->faults.empty()) {
    // Exemplar forensics of the #1 bucket, so the report alone pinpoints the
    // dominant crash: kind, PC, scope, call stack, flight tail.
    const amulet::FaultBucket& worst = *checkpoint->faults.TopK(1)[0];
    std::printf("top bucket exemplar (device %d%s%s):\n", worst.exemplar_device,
                worst.app_name.empty() ? "" : ", app ",
                worst.app_name.empty() ? "" : worst.app_name.c_str());
    std::printf("  %s\n", worst.description.c_str());
    std::printf("  kind %s, pc %s, scope %s, addr 0x%04x, cycle %llu\n",
                amulet::FaultKindName(worst.kind), amulet::HexWord(worst.pc).c_str(),
                amulet::RegionTagName(worst.scope), worst.addr,
                static_cast<unsigned long long>(worst.at_cycles));
    if (!worst.call_stack.empty()) {
      std::string stack;
      for (uint16_t ra : worst.call_stack) {
        if (!stack.empty()) {
          stack += " <- ";
        }
        stack += amulet::HexWord(ra);
      }
      std::printf("  call stack: %s\n", stack.c_str());
    }
    for (const amulet::FlightEvent& event : worst.flight) {
      std::printf("%s\n", amulet::RenderFlightEvent(event).c_str());
    }
  }
  if (!jsonl_path.empty()) {
    if (!WriteFile(jsonl_path, checkpoint->faults.ToJsonl())) {
      return 1;
    }
    std::printf("wrote %zu fault bucket(s) to %s\n", checkpoint->faults.bucket_count(),
                jsonl_path.c_str());
  }
  return 0;
}

const Mode kModes[] = {
    {"", "[options] name=app.amc [name2=other.amc ...]",
     "Compiles AmuletC applications into one isolated firmware image.", RunBuild},
    {"fleet", "[options]",
     "Simulates a fleet of identical devices in parallel (docs/fleet.md), or a\n"
     "staged OTA firmware-rollout campaign with --campaign (docs/ota.md).",
     RunFleet},
    {"fleet-merge", "SHARD.ckpt [SHARD2.ckpt ...] [options]",
     "Folds the checkpoints written by the N shards of one fleet run\n"
     "(`amuletc fleet --shard I/N --checkpoint ...`, one per host) into a single\n"
     "whole-fleet checkpoint and prints the merged report and digest. The merged\n"
     "digest is byte-identical to a single-host run of the same config, and the\n"
     "merged checkpoint is resumable like any single-host checkpoint\n"
     "(docs/fleet.md, \"Sharding & merge\"). Input order does not matter, but all\n"
     "N shards must be present, from the same config and build.",
     RunFleetMerge},
    {"ota-pack", "--out FILE [options] [name=app.amc ...]",
     "Builds firmware and packs it into an authenticated AMFU OTA container\n"
     "(docs/ota.md): fixed header, keyed MAC over the payload, FNV-1a transport\n"
     "checks. The output feeds `amuletc fleet --campaign --image FILE`.",
     RunOtaPack},
    {"trace", "[options] name=app.amc [name2=other.amc ...]",
     "Boots the app(s) with an event tracer attached, simulates, and emits the\n"
     "recording as Chrome trace-event JSON (docs/observability.md).",
     RunTrace},
    {"faults", "CHECKPOINT [options]",
     "Reads the fault ledger out of a fleet or campaign checkpoint (a finished\n"
     "run's AMFC file or a running or killed run's AMFJ journal) and\n"
     "prints the top-K crash-bucket triage report: fault kind, faulting PC,\n"
     "scope attribution, device spread, and an exemplar per bucket\n"
     "(docs/observability.md, \"Fault forensics\").",
     RunFaults},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    for (const Mode& mode : kModes) {
      std::fprintf(stderr, "%s %s %s\n", &mode == kModes ? "usage:" : "      ",
                   mode.command().c_str(), mode.usage);
    }
    std::fprintf(stderr, "run 'amuletc <mode> --help' for the options of each mode\n");
    return 1;
  }
  for (const Mode& mode : kModes) {
    if (*mode.name != '\0' && std::strcmp(argv[1], mode.name) == 0) {
      return mode.run(mode, argc - 2, argv + 2);
    }
  }
  return kModes[0].run(kModes[0], argc - 1, argv + 1);
}
