// amuletc: command-line front end to the Amulet Firmware Toolchain.
//
//   amuletc [options] name=app.amc [name2=other.amc ...]   build firmware
//   amuletc fleet [fleet options]                          fleet / OTA campaign
//   amuletc fleet-merge SHARD.ckpt [...]                   merge shard checkpoints
//   amuletc ota-pack [pack options]                        pack an AMFU image
//   amuletc trace [trace options] name=app.amc [...]       record a trace
//   amuletc faults CHECKPOINT [faults options]             crash-bucket triage
//
// Run `amuletc --help` or `amuletc <subcommand> --help` for the full flag
// list of each mode. Unknown flags are reported by name together with the
// subcommand they were passed to.
//
// Exit status: 0 on success, 1 on any toolchain or runtime error.
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
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
#include "src/os/os.h"
#include "src/ota/image.h"
#include "src/scope/tracer.h"

namespace {

using amulet::ParseInteger;

// Upper bound for `fleet --devices`: per-device rows, completion bits and
// checkpoint records are sized by the device count, so an unbounded value
// could exhaust host memory before the first device runs.
constexpr int kMaxFleetDevices = 1'000'000;

const char kBuildHelp[] =
    "usage: amuletc [options] name=app.amc [name2=other.amc ...]\n"
    "\n"
    "Compiles AmuletC applications into one isolated firmware image.\n"
    "\n"
    "  --model none|fl|sw|mpu  isolation model (default: mpu)\n"
    "  --shadow-ret-stack      InfoMem shadow return-address stack (paper '5)\n"
    "  --future-mpu            hypothetical >=4-region MPU (no checks/reconfig)\n"
    "  --zero-shared-stack     rejected design: shared stack + bzero on switch\n"
    "  --no-check-opt          keep every phase-2 bound check (disable the\n"
    "                          phase-2.5 redundant-check optimizer, docs/aft.md)\n"
    "  --dump-ir               print each app's IR after phase 2 and (when the\n"
    "                          optimizer runs) after phase 2.5\n"
    "  --hex FILE              write the firmware as Intel HEX (flashable form)\n"
    "  --report                per-app build report (checks, stack, sizes)\n"
    "  --listing               full firmware listing (map + disassembly)\n"
    "  --run SECONDS           boot under AmuletOS and simulate\n"
    "  --walk                  (with --run) synthesize walking accelerometer data\n"
    "  --help                  show this help\n";

const char kFleetHelp[] =
    "usage: amuletc fleet [options]\n"
    "\n"
    "Simulates a fleet of identical devices in parallel (docs/fleet.md), or a\n"
    "staged OTA firmware-rollout campaign with --campaign (docs/ota.md).\n"
    "\n"
    "  --devices N             number of simulated devices, at most 1000000\n"
    "                          (default: 16)\n"
    "  --apps a,b,c            suite apps to install (default: the full suite)\n"
    "  --model none|fl|sw|mpu  isolation model (default: mpu)\n"
    "  --seed N                fleet seed; device i's stream is a splitmix64 mix\n"
    "                          of (seed, i) (default: 20180711)\n"
    "  --duration SECONDS      simulated time per device (default: 10)\n"
    "  --jobs N                worker threads (default: hardware concurrency)\n"
    "  --shard I/N             simulate only shard I of N (devices are split into\n"
    "                          N contiguous global-id slices; pair with\n"
    "                          --checkpoint and fold the N checkpoints together\n"
    "                          with 'amuletc fleet-merge')\n"
    "  --profile FILE          heterogeneous population: one cohort spec per line,\n"
    "                          NAME:WEIGHT:MODEL[:APPS[:ACTIVITY]], '#' comments\n"
    "                          (e.g. 'wear:90:mpu:pedometer+clock:1/2/1')\n"
    "  --cohort SPEC           inline cohort spec (repeatable); same syntax as a\n"
    "                          --profile line\n"
    "  --metrics-out FILE      write streaming fleet metrics as JSON\n"
    "  --no-device-stats       streaming aggregation only (O(1) memory per fleet)\n"
    "  --no-predecode          baseline interpreter core (no predecoded-insn\n"
    "                          cache); results are bit-identical, just slower\n"
    "  --no-flight-recorder    skip per-device flight recorders; fault records\n"
    "                          lose their flight tails, digests are unchanged\n"
    "  --no-check-opt          build the firmware without the phase-2.5 check\n"
    "                          optimizer (changes the image and firmware hash)\n"
    "  --faults-out FILE       write the merged fault ledger as JSONL\n"
    "  --checkpoint FILE       persist a resumable checkpoint (atomic rename)\n"
    "  --checkpoint-every N    checkpoint cadence in completed devices (default: 64)\n"
    "  --resume                continue from --checkpoint FILE if it exists; only\n"
    "                          devices missing from it are simulated\n"
    "  --verbose               progress lines (devices done, rate, ETA) on stderr\n"
    "  --help                  show this help\n"
    "\n"
    "Campaign options (require --campaign):\n"
    "  --campaign              staged OTA rollout instead of a plain fleet run\n"
    "  --to-apps a,b,c         app list of the new firmware (default: same as --apps)\n"
    "  --from-version N        firmware version the fleet starts on (default: 1)\n"
    "  --to-version N          firmware version being rolled out (default: 2)\n"
    "  --stages 5,50,100       cumulative rollout percents (default: 5,50,100)\n"
    "  --stage-abort RATE      per-stage failure-rate abort threshold in [0,1]\n"
    "                          (default: 0.25)\n"
    "  --health-ms N           post-activation health window (default: 1000)\n"
    "  --storm N               watchdog resets inside the window that trigger\n"
    "                          rollback (default: 3)\n"
    "  --rollout-seed N        seeded device ordering (default: 0xB007)\n"
    "  --key HEX16             fleet MAC key as 16 hex digits\n"
    "  --image FILE            deploy this packed AMFU container instead of\n"
    "                          packing --to-apps (see amuletc ota-pack)\n";

const char kFleetMergeHelp[] =
    "usage: amuletc fleet-merge SHARD.ckpt [SHARD2.ckpt ...] [options]\n"
    "\n"
    "Folds the AMFC checkpoints written by the N shards of one fleet run\n"
    "(`amuletc fleet --shard I/N --checkpoint ...`, one per host) into a single\n"
    "whole-fleet checkpoint and prints the merged report and digest. The merged\n"
    "digest is byte-identical to a single-host run of the same config, and the\n"
    "merged checkpoint is resumable like any single-host checkpoint\n"
    "(docs/fleet.md, \"Sharding & merge\"). Input order does not matter, but all\n"
    "N shards must be present, from the same config and build.\n"
    "\n"
    "  --out FILE              write the merged whole-fleet checkpoint\n"
    "  --metrics-out FILE      write the merged streaming metrics as JSON\n"
    "  --faults-out FILE       write the merged fault ledger as JSONL\n"
    "  --help                  show this help\n";

const char kOtaPackHelp[] =
    "usage: amuletc ota-pack --out FILE [options] [name=app.amc ...]\n"
    "\n"
    "Builds firmware and packs it into an authenticated AMFU OTA container\n"
    "(docs/ota.md): fixed header, keyed MAC over the payload, FNV-1a transport\n"
    "checks. The output feeds `amuletc fleet --campaign --image FILE`.\n"
    "\n"
    "  --out FILE              container destination (required)\n"
    "  --apps a,b,c            suite apps to build (combined with name=path args)\n"
    "  --model none|fl|sw|mpu  isolation model (default: mpu)\n"
    "  --fw-version N          firmware version stamped in the header (default: 2)\n"
    "  --key HEX16             fleet MAC key as 16 hex digits (default: built-in)\n"
    "  --tamper-bit N          attacker model: flip bit N of the authenticated\n"
    "                          content (MAC bits [0,64), payload bits 64+) and\n"
    "                          re-fix the transport checksums\n"
    "  --help                  show this help\n";

const char kFaultsHelp[] =
    "usage: amuletc faults CHECKPOINT [options]\n"
    "\n"
    "Reads the fault ledger out of an AMFC fleet or campaign checkpoint and\n"
    "prints the top-K crash-bucket triage report: fault kind, faulting PC,\n"
    "scope attribution, device spread, and an exemplar per bucket\n"
    "(docs/observability.md, \"Fault forensics\").\n"
    "\n"
    "  --top K                 buckets to show (default: 10)\n"
    "  --jsonl FILE            also export every bucket as JSON lines\n"
    "  --help                  show this help\n";

const char kTraceHelp[] =
    "usage: amuletc trace [options] name=app.amc [name2=other.amc ...]\n"
    "\n"
    "Boots the app(s) with an event tracer attached, simulates, and emits the\n"
    "recording as Chrome trace-event JSON (docs/observability.md).\n"
    "\n"
    "  --model none|fl|sw|mpu  isolation model (default: mpu)\n"
    "  --seconds N             simulated seconds to record (default: 2)\n"
    "  --out FILE              trace destination (default: amulet.trace.json)\n"
    "  --validate              parse the emitted JSON back and check span nesting\n"
    "  --help                  show this help\n";

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options] name=app.amc [...]    build firmware\n"
               "       %s fleet [options]                 fleet / OTA campaign\n"
               "       %s fleet-merge SHARD.ckpt [...]    merge shard checkpoints\n"
               "       %s ota-pack [options]              pack an AMFU image\n"
               "       %s trace [options] name=app.amc    record a trace\n"
               "       %s faults CHECKPOINT [options]     crash-bucket triage\n"
               "run '%s <subcommand> --help' for per-subcommand options\n",
               argv0, argv0, argv0, argv0, argv0, argv0, argv0);
  return 1;
}

// Uniform flag diagnostics: every parse error names the subcommand it came
// from and points at its --help. The default build mode has no subcommand
// word, so its errors read "amuletc: ..." / "see 'amuletc --help'".
std::string CommandName(const char* subcommand) {
  return std::strcmp(subcommand, "build") == 0 ? "amuletc"
                                               : std::string("amuletc ") + subcommand;
}

int UnknownFlag(const char* subcommand, const std::string& flag) {
  const std::string cmd = CommandName(subcommand);
  std::fprintf(stderr, "%s: unknown flag '%s' (see '%s --help')\n", cmd.c_str(),
               flag.c_str(), cmd.c_str());
  return 1;
}

int MissingValue(const char* subcommand, const std::string& flag) {
  const std::string cmd = CommandName(subcommand);
  std::fprintf(stderr, "%s: flag '%s' requires a value (see '%s --help')\n", cmd.c_str(),
               flag.c_str(), cmd.c_str());
  return 1;
}

int BadValue(const char* subcommand, const std::string& flag, const char* value) {
  const std::string cmd = CommandName(subcommand);
  std::fprintf(stderr, "%s: bad value '%s' for flag '%s' (see '%s --help')\n", cmd.c_str(),
               value, flag.c_str(), cmd.c_str());
  return 1;
}

bool ParseModel(const std::string& model, amulet::MemoryModel* out) {
  if (model == "none") {
    *out = amulet::MemoryModel::kNoIsolation;
  } else if (model == "fl") {
    *out = amulet::MemoryModel::kFeatureLimited;
  } else if (model == "sw") {
    *out = amulet::MemoryModel::kSoftwareOnly;
  } else if (model == "mpu") {
    *out = amulet::MemoryModel::kMpu;
  } else {
    return false;
  }
  return true;
}

// 16 hex digits -> the four 16-bit MAC key words.
bool ParseKeyHex(const std::string& hex, amulet::OtaKey* key) {
  if (hex.size() != 16) {
    return false;
  }
  for (char c : hex) {
    if (!std::isxdigit(static_cast<unsigned char>(c))) {
      return false;
    }
  }
  for (int w = 0; w < 4; ++w) {
    if (!ParseInteger(std::string_view(hex).substr(static_cast<size_t>(w) * 4, 4),
                      &key->words[w], 16)) {
      return false;
    }
  }
  return true;
}

std::vector<std::string> SplitCommas(const std::string& list) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream in(list);
  while (std::getline(in, part, ',')) {
    if (!part.empty()) {
      parts.push_back(part);
    }
  }
  return parts;
}

// Resolves suite app names (the nine deployed apps plus the benchmark and
// test apps) to sources, mirroring what the fleet engine accepts.
bool AppendSuiteApps(const char* subcommand, const std::vector<std::string>& names,
                     std::vector<amulet::AppSource>* out) {
  for (const std::string& name : names) {
    const amulet::AppSpec* found = nullptr;
    for (const amulet::AppSpec& app : amulet::AmuletAppSuite()) {
      if (app.name == name) {
        found = &app;
      }
    }
    for (const amulet::AppSpec* extra :
         {&amulet::SyntheticApp(), &amulet::ActivityApp(), &amulet::QuicksortApp(),
          &amulet::CrasherApp()}) {
      if (extra->name == name) {
        found = extra;
      }
    }
    if (found == nullptr) {
      std::fprintf(stderr, "amuletc %s: unknown suite app '%s'\n", subcommand,
                   name.c_str());
      return false;
    }
    out->push_back({found->name, found->source});
  }
  return true;
}

bool ReadFileBytes(const std::string& path, std::vector<uint8_t>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  const std::string& s = contents.str();
  out->assign(s.begin(), s.end());
  return true;
}

// `amuletc fleet`: build the requested app mix once, then simulate a fleet of
// devices in parallel — or, with --campaign, run a staged OTA rollout — and
// print the aggregate report.
int RunFleetCommand(const char* argv0, int argc, char** argv) {
  (void)argv0;
  amulet::CampaignConfig campaign;
  amulet::FleetConfig& config = campaign.fleet;
  std::string metrics_path;
  std::string faults_path;
  std::string image_path;
  bool resume = false;
  bool campaign_mode = false;
  bool profile_from_file = false;
  bool inline_cohorts = false;
  double stage_abort = -1;  // < 0: keep the per-stage default
  std::string first_campaign_flag;  // campaign flag seen without --campaign
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return ++i < argc ? argv[i] : nullptr; };
    auto campaign_flag = [&] {
      if (first_campaign_flag.empty()) {
        first_campaign_flag = arg;
      }
    };
    if (arg == "--help" || arg == "-h") {
      std::fputs(kFleetHelp, stdout);
      return 0;
    } else if (arg == "--devices") {
      const char* value = next();
      if (value == nullptr) {
        return MissingValue("fleet", arg);
      }
      if (!ParseInteger(value, &config.device_count) || config.device_count <= 0 ||
          config.device_count > kMaxFleetDevices) {
        return BadValue("fleet", arg, value);
      }
    } else if (arg == "--apps") {
      const char* value = next();
      if (value == nullptr) {
        return MissingValue("fleet", arg);
      }
      config.apps = SplitCommas(value);
    } else if (arg == "--model") {
      const char* value = next();
      if (value == nullptr) {
        return MissingValue("fleet", arg);
      }
      if (!ParseModel(value, &config.model)) {
        return BadValue("fleet", arg, value);
      }
    } else if (arg == "--seed") {
      const char* value = next();
      if (value == nullptr) {
        return MissingValue("fleet", arg);
      }
      if (!ParseInteger(value, &config.fleet_seed, 0)) {
        return BadValue("fleet", arg, value);
      }
    } else if (arg == "--duration") {
      const char* value = next();
      if (value == nullptr) {
        return MissingValue("fleet", arg);
      }
      int seconds = 0;
      if (!ParseInteger(value, &seconds) || seconds <= 0) {
        return BadValue("fleet", arg, value);
      }
      config.sim_ms = static_cast<uint64_t>(seconds) * 1000;
    } else if (arg == "--jobs") {
      const char* value = next();
      if (value == nullptr) {
        return MissingValue("fleet", arg);
      }
      if (!ParseInteger(value, &config.jobs) || config.jobs <= 0) {
        return BadValue("fleet", arg, value);
      }
    } else if (arg == "--shard") {
      const char* value = next();
      if (value == nullptr) {
        return MissingValue("fleet", arg);
      }
      const char* slash = std::strchr(value, '/');
      int index = 0;
      int count = 0;
      if (slash == nullptr ||
          !ParseInteger(std::string_view(value, static_cast<size_t>(slash - value)), &index) ||
          !ParseInteger(slash + 1, &count) || index < 0 || count < 1 || index >= count) {
        return BadValue("fleet", arg, value);
      }
      config.shard_index = index;
      config.shard_count = count;
    } else if (arg == "--profile") {
      const char* value = next();
      if (value == nullptr) {
        return MissingValue("fleet", arg);
      }
      if (profile_from_file || inline_cohorts) {
        std::fprintf(stderr,
                     "amuletc fleet: --profile cannot be combined with another "
                     "--profile or --cohort\n");
        return 1;
      }
      profile_from_file = true;
      std::ifstream in(value);
      if (!in) {
        std::fprintf(stderr, "amuletc fleet: cannot read --profile %s\n", value);
        return 1;
      }
      std::ostringstream contents;
      contents << in.rdbuf();
      amulet::Result<amulet::PopulationProfile> profile =
          amulet::ParsePopulationProfile(contents.str());
      if (!profile.ok()) {
        std::fprintf(stderr, "amuletc fleet: %s: %s\n", value,
                     profile.status().ToString().c_str());
        return 1;
      }
      config.profile = *profile;
    } else if (arg == "--cohort") {
      const char* value = next();
      if (value == nullptr) {
        return MissingValue("fleet", arg);
      }
      if (profile_from_file) {
        std::fprintf(stderr,
                     "amuletc fleet: --cohort cannot be combined with --profile\n");
        return 1;
      }
      inline_cohorts = true;
      amulet::Result<amulet::Cohort> cohort = amulet::ParseCohortSpec(value);
      if (!cohort.ok()) {
        std::fprintf(stderr, "amuletc fleet: %s\n", cohort.status().ToString().c_str());
        return 1;
      }
      config.profile.cohorts.push_back(*cohort);
    } else if (arg == "--metrics-out" || arg.rfind("--metrics-out=", 0) == 0) {
      if (arg == "--metrics-out") {
        const char* value = next();
        if (value == nullptr) {
          return MissingValue("fleet", arg);
        }
        metrics_path = value;
      } else {
        metrics_path = arg.substr(std::strlen("--metrics-out="));
      }
      if (metrics_path.empty()) {
        return MissingValue("fleet", "--metrics-out");
      }
    } else if (arg == "--no-device-stats") {
      config.retain_device_stats = false;
    } else if (arg == "--no-predecode") {
      config.predecode = false;
    } else if (arg == "--no-flight-recorder") {
      config.flight_recorder = false;
    } else if (arg == "--no-check-opt") {
      config.check_opt = false;
    } else if (arg == "--faults-out" || arg.rfind("--faults-out=", 0) == 0) {
      if (arg == "--faults-out") {
        const char* value = next();
        if (value == nullptr) {
          return MissingValue("fleet", arg);
        }
        faults_path = value;
      } else {
        faults_path = arg.substr(std::strlen("--faults-out="));
      }
      if (faults_path.empty()) {
        return MissingValue("fleet", "--faults-out");
      }
    } else if (arg == "--checkpoint") {
      const char* value = next();
      if (value == nullptr || value[0] == '\0') {
        return MissingValue("fleet", arg);
      }
      config.checkpoint_path = value;
    } else if (arg == "--checkpoint-every") {
      const char* value = next();
      if (value == nullptr) {
        return MissingValue("fleet", arg);
      }
      if (!ParseInteger(value, &config.checkpoint_every_devices) ||
          config.checkpoint_every_devices <= 0) {
        return BadValue("fleet", arg, value);
      }
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--verbose") {
      config.verbosity = 1;
    } else if (arg == "--campaign") {
      campaign_mode = true;
    } else if (arg == "--to-apps") {
      campaign_flag();
      const char* value = next();
      if (value == nullptr) {
        return MissingValue("fleet", arg);
      }
      campaign.to_apps = SplitCommas(value);
    } else if (arg == "--from-version") {
      campaign_flag();
      const char* value = next();
      if (value == nullptr) {
        return MissingValue("fleet", arg);
      }
      if (!ParseInteger(value, &campaign.from_version, 0)) {
        return BadValue("fleet", arg, value);
      }
    } else if (arg == "--to-version") {
      campaign_flag();
      const char* value = next();
      if (value == nullptr) {
        return MissingValue("fleet", arg);
      }
      if (!ParseInteger(value, &campaign.to_version, 0)) {
        return BadValue("fleet", arg, value);
      }
    } else if (arg == "--stages") {
      campaign_flag();
      const char* value = next();
      if (value == nullptr) {
        return MissingValue("fleet", arg);
      }
      campaign.stages.clear();
      for (const std::string& part : SplitCommas(value)) {
        amulet::CampaignStage stage;
        if (!ParseInteger(part, &stage.percent) || stage.percent <= 0 || stage.percent > 100) {
          return BadValue("fleet", arg, value);
        }
        campaign.stages.push_back(stage);
      }
      if (campaign.stages.empty()) {
        return BadValue("fleet", arg, value);
      }
    } else if (arg == "--stage-abort") {
      campaign_flag();
      const char* value = next();
      if (value == nullptr) {
        return MissingValue("fleet", arg);
      }
      char* end = nullptr;
      stage_abort = std::strtod(value, &end);
      if (end == value || *end != '\0' || stage_abort < 0 || stage_abort > 1) {
        return BadValue("fleet", arg, value);
      }
    } else if (arg == "--health-ms") {
      campaign_flag();
      const char* value = next();
      if (value == nullptr) {
        return MissingValue("fleet", arg);
      }
      if (!ParseInteger(value, &campaign.health_ms) || campaign.health_ms == 0) {
        return BadValue("fleet", arg, value);
      }
    } else if (arg == "--storm") {
      campaign_flag();
      const char* value = next();
      if (value == nullptr) {
        return MissingValue("fleet", arg);
      }
      if (!ParseInteger(value, &campaign.storm_threshold) || campaign.storm_threshold <= 0) {
        return BadValue("fleet", arg, value);
      }
    } else if (arg == "--rollout-seed") {
      campaign_flag();
      const char* value = next();
      if (value == nullptr) {
        return MissingValue("fleet", arg);
      }
      if (!ParseInteger(value, &campaign.rollout_seed, 0)) {
        return BadValue("fleet", arg, value);
      }
    } else if (arg == "--key") {
      campaign_flag();
      const char* value = next();
      if (value == nullptr) {
        return MissingValue("fleet", arg);
      }
      if (!ParseKeyHex(value, &campaign.key)) {
        return BadValue("fleet", arg, value);
      }
    } else if (arg == "--image") {
      campaign_flag();
      const char* value = next();
      if (value == nullptr) {
        return MissingValue("fleet", arg);
      }
      image_path = value;
    } else {
      return UnknownFlag("fleet", arg);
    }
  }
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
  if (!campaign_mode && !first_campaign_flag.empty()) {
    std::fprintf(stderr, "amuletc fleet: flag '%s' requires --campaign\n",
                 first_campaign_flag.c_str());
    return 1;
  }
  if (resume && config.checkpoint_path.empty()) {
    std::fprintf(stderr, "amuletc fleet: --resume requires --checkpoint FILE\n");
    return 1;
  }
  if (config.apps.empty()) {
    for (const amulet::AppSpec& app : amulet::AmuletAppSuite()) {
      config.apps.push_back(app.name);
    }
  }

  if (campaign_mode) {
    if (!image_path.empty() && !ReadFileBytes(image_path, &campaign.image_override)) {
      std::fprintf(stderr, "amuletc fleet: cannot read --image %s\n", image_path.c_str());
      return 1;
    }
    amulet::Result<amulet::CampaignReport> report =
        [&]() -> amulet::Result<amulet::CampaignReport> {
      if (resume) {
        amulet::Result<amulet::CampaignReport> resumed = amulet::ResumeCampaign(campaign);
        if (resumed.ok() || resumed.status().code() != amulet::StatusCode::kNotFound) {
          return resumed;
        }
        std::fprintf(stderr, "amuletc fleet: no checkpoint at %s, starting fresh\n",
                     config.checkpoint_path.c_str());
      }
      return amulet::RunCampaign(campaign);
    }();
    if (!report.ok()) {
      std::fprintf(stderr, "amuletc fleet: %s\n", report.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", amulet::RenderCampaignReport(*report).c_str());
    {
      // Hash of the full deterministic digest: two runs with the same seeded
      // config must print the same line regardless of --jobs, --resume, or
      // --no-predecode (CI's determinism gate greps and compares it).
      const std::string digest = amulet::CampaignDigest(*report);
      std::printf("campaign digest: %016llx\n",
                  static_cast<unsigned long long>(amulet::Fnv1a64(
                      reinterpret_cast<const uint8_t*>(digest.data()), digest.size())));
    }
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
        return 1;
      }
      out << report->metrics.ToJson();
      std::printf("wrote campaign metrics to %s\n", metrics_path.c_str());
    }
    if (!faults_path.empty()) {
      std::ofstream out(faults_path);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", faults_path.c_str());
        return 1;
      }
      out << report->faults.ToJsonl();
      std::printf("wrote %zu fault bucket(s) to %s\n", report->faults.bucket_count(),
                  faults_path.c_str());
    }
    // An aborted campaign still printed its report; reflect the abort in the
    // exit status so rollout scripts can halt their own pipelines.
    return report->aborted_stage >= 0 ? 2 : 0;
  }

  amulet::Result<amulet::FleetReport> report = [&]() -> amulet::Result<amulet::FleetReport> {
    if (resume) {
      amulet::Result<amulet::FleetReport> resumed = amulet::ResumeFleet(config);
      if (resumed.ok() || resumed.status().code() != amulet::StatusCode::kNotFound) {
        return resumed;
      }
      // First run of a kill-and-retry loop: no checkpoint yet, start fresh.
      std::fprintf(stderr, "amuletc fleet: no checkpoint at %s, starting fresh\n",
                   config.checkpoint_path.c_str());
    }
    return amulet::RunFleet(config);
  }();
  if (!report.ok()) {
    std::fprintf(stderr, "amuletc fleet: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", amulet::RenderFleetReport(*report).c_str());
  {
    // See the campaign path: one greppable line proving run-to-run and
    // predecode-vs-interpreter determinism.
    const std::string digest = amulet::FleetDigest(*report);
    std::printf("fleet digest: %016llx\n",
                static_cast<unsigned long long>(amulet::Fnv1a64(
                    reinterpret_cast<const uint8_t*>(digest.data()), digest.size())));
  }
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
      return 1;
    }
    out << report->metrics.ToJson();
    std::printf("wrote fleet metrics to %s\n", metrics_path.c_str());
  }
  if (!faults_path.empty()) {
    std::ofstream out(faults_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", faults_path.c_str());
      return 1;
    }
    out << report->faults.ToJsonl();
    std::printf("wrote %zu fault bucket(s) to %s\n", report->faults.bucket_count(),
                faults_path.c_str());
  }
  return 0;
}

// `amuletc fleet-merge`: fold the AMFC checkpoints written by the N shards of
// one fleet into a whole-fleet checkpoint and print the merged digest, which
// is byte-identical to a single-host run of the same config.
int RunFleetMergeCommand(const char* argv0, int argc, char** argv) {
  (void)argv0;
  std::vector<std::string> shard_paths;
  std::string out_path;
  std::string metrics_path;
  std::string faults_path;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return ++i < argc ? argv[i] : nullptr; };
    if (arg == "--help" || arg == "-h") {
      std::fputs(kFleetMergeHelp, stdout);
      return 0;
    } else if (arg == "--out") {
      const char* value = next();
      if (value == nullptr || value[0] == '\0') {
        return MissingValue("fleet-merge", arg);
      }
      out_path = value;
    } else if (arg == "--metrics-out") {
      const char* value = next();
      if (value == nullptr || value[0] == '\0') {
        return MissingValue("fleet-merge", arg);
      }
      metrics_path = value;
    } else if (arg == "--faults-out") {
      const char* value = next();
      if (value == nullptr || value[0] == '\0') {
        return MissingValue("fleet-merge", arg);
      }
      faults_path = value;
    } else if (!arg.empty() && arg[0] == '-') {
      return UnknownFlag("fleet-merge", arg);
    } else {
      shard_paths.push_back(arg);
    }
  }
  if (shard_paths.empty()) {
    std::fprintf(stderr,
                 "amuletc fleet-merge: no shard checkpoints given (see 'amuletc "
                 "fleet-merge --help')\n");
    return 1;
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
    std::fprintf(stderr, "amuletc fleet-merge: %s\n", merged.status().ToString().c_str());
    return 1;
  }
  amulet::Result<amulet::FleetReport> report = amulet::ReportFromCheckpoint(*merged);
  if (!report.ok()) {
    std::fprintf(stderr, "amuletc fleet-merge: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("merged %zu shard checkpoint(s): %d/%d device(s) complete\n", shards.size(),
              merged->CompletedCount(), merged->device_count);
  std::printf("config: %s\n", merged->config_text.c_str());
  if (merged->profile_hash != 0) {
    std::printf("profile: %s\n", merged->profile_text.c_str());
  }
  {
    // Same greppable line as `amuletc fleet`, so CI can diff the merged
    // digest against a single-host run of the identical config.
    const std::string digest = amulet::FleetDigest(*report);
    std::printf("fleet digest: %016llx\n",
                static_cast<unsigned long long>(amulet::Fnv1a64(
                    reinterpret_cast<const uint8_t*>(digest.data()), digest.size())));
  }
  if (!out_path.empty()) {
    const amulet::Status write_status = amulet::WriteFleetCheckpoint(out_path, *merged);
    if (!write_status.ok()) {
      std::fprintf(stderr, "amuletc fleet-merge: %s\n", write_status.ToString().c_str());
      return 1;
    }
    std::printf("wrote merged checkpoint to %s\n", out_path.c_str());
  }
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
      return 1;
    }
    out << report->metrics.ToJson();
    std::printf("wrote fleet metrics to %s\n", metrics_path.c_str());
  }
  if (!faults_path.empty()) {
    std::ofstream out(faults_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", faults_path.c_str());
      return 1;
    }
    out << report->faults.ToJsonl();
    std::printf("wrote %zu fault bucket(s) to %s\n", report->faults.bucket_count(),
                faults_path.c_str());
  }
  return 0;
}

// `amuletc ota-pack`: build firmware from suite apps and/or name=path
// sources, authenticate it with the fleet key, and write the AMFU container.
int RunOtaPackCommand(const char* argv0, int argc, char** argv) {
  (void)argv0;
  amulet::AftOptions options;
  std::string out_path;
  uint32_t fw_version = 2;
  amulet::OtaKey key;
  int64_t tamper_bit = -1;
  std::vector<std::string> suite_names;
  std::vector<amulet::AppSource> apps;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return ++i < argc ? argv[i] : nullptr; };
    if (arg == "--help" || arg == "-h") {
      std::fputs(kOtaPackHelp, stdout);
      return 0;
    } else if (arg == "--out") {
      const char* value = next();
      if (value == nullptr || value[0] == '\0') {
        return MissingValue("ota-pack", arg);
      }
      out_path = value;
    } else if (arg == "--apps") {
      const char* value = next();
      if (value == nullptr) {
        return MissingValue("ota-pack", arg);
      }
      suite_names = SplitCommas(value);
    } else if (arg == "--model") {
      const char* value = next();
      if (value == nullptr) {
        return MissingValue("ota-pack", arg);
      }
      if (!ParseModel(value, &options.model)) {
        return BadValue("ota-pack", arg, value);
      }
    } else if (arg == "--fw-version") {
      const char* value = next();
      if (value == nullptr) {
        return MissingValue("ota-pack", arg);
      }
      if (!ParseInteger(value, &fw_version, 0)) {
        return BadValue("ota-pack", arg, value);
      }
    } else if (arg == "--key") {
      const char* value = next();
      if (value == nullptr) {
        return MissingValue("ota-pack", arg);
      }
      if (!ParseKeyHex(value, &key)) {
        return BadValue("ota-pack", arg, value);
      }
    } else if (arg == "--tamper-bit") {
      const char* value = next();
      if (value == nullptr) {
        return MissingValue("ota-pack", arg);
      }
      if (!ParseInteger(value, &tamper_bit) || tamper_bit < 0) {
        return BadValue("ota-pack", arg, value);
      }
    } else if (arg.rfind("--", 0) == 0) {
      return UnknownFlag("ota-pack", arg);
    } else {
      size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "amuletc ota-pack: app arguments take the form name=path: %s\n",
                     arg.c_str());
        return 1;
      }
      std::ifstream file(arg.substr(eq + 1));
      if (!file) {
        std::fprintf(stderr, "cannot open %s\n", arg.substr(eq + 1).c_str());
        return 1;
      }
      std::ostringstream contents;
      contents << file.rdbuf();
      apps.push_back({arg.substr(0, eq), contents.str()});
    }
  }
  if (out_path.empty()) {
    std::fprintf(stderr, "amuletc ota-pack: --out FILE is required (see 'amuletc ota-pack --help')\n");
    return 1;
  }
  if (!AppendSuiteApps("ota-pack", suite_names, &apps)) {
    return 1;
  }
  if (apps.empty()) {
    std::fprintf(stderr,
                 "amuletc ota-pack: nothing to pack; pass --apps and/or name=path "
                 "arguments (see 'amuletc ota-pack --help')\n");
    return 1;
  }

  auto firmware = amulet::BuildFirmware(apps, options);
  if (!firmware.ok()) {
    std::fprintf(stderr, "amuletc ota-pack: %s\n", firmware.status().ToString().c_str());
    return 1;
  }
  const amulet::OtaImage image =
      amulet::PackOtaImage(firmware->image, fw_version, options.model, key);
  std::vector<uint8_t> bytes = amulet::EncodeOtaImage(image);
  if (tamper_bit >= 0) {
    auto tampered = amulet::TamperOtaImage(bytes, static_cast<size_t>(tamper_bit));
    if (!tampered.ok()) {
      std::fprintf(stderr, "amuletc ota-pack: %s\n", tampered.status().ToString().c_str());
      return 1;
    }
    bytes = *tampered;
  }
  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();
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
int RunTraceCommand(const char* argv0, int argc, char** argv) {
  amulet::AftOptions options;
  int seconds = 2;
  std::string out_path = "amulet.trace.json";
  bool validate = false;
  std::vector<amulet::AppSource> apps;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return ++i < argc ? argv[i] : nullptr; };
    if (arg == "--help" || arg == "-h") {
      std::fputs(kTraceHelp, stdout);
      return 0;
    } else if (arg == "--model") {
      const char* value = next();
      if (value == nullptr) {
        return MissingValue("trace", arg);
      }
      if (!ParseModel(value, &options.model)) {
        return BadValue("trace", arg, value);
      }
    } else if (arg == "--seconds") {
      const char* value = next();
      if (value == nullptr) {
        return MissingValue("trace", arg);
      }
      if (!ParseInteger(value, &seconds) || seconds <= 0) {
        return BadValue("trace", arg, value);
      }
    } else if (arg == "--out") {
      const char* value = next();
      if (value == nullptr) {
        return MissingValue("trace", arg);
      }
      out_path = value;
    } else if (arg == "--validate") {
      validate = true;
    } else if (arg.rfind("--", 0) == 0) {
      return UnknownFlag("trace", arg);
    } else {
      size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "app arguments take the form name=path: %s\n", arg.c_str());
        return Usage(argv0);
      }
      std::ifstream file(arg.substr(eq + 1));
      if (!file) {
        std::fprintf(stderr, "cannot open %s\n", arg.substr(eq + 1).c_str());
        return 1;
      }
      std::ostringstream contents;
      contents << file.rdbuf();
      apps.push_back({arg.substr(0, eq), contents.str()});
    }
  }
  if (apps.empty()) {
    return Usage(argv0);
  }
  auto firmware = amulet::BuildFirmware(apps, options);
  if (!firmware.ok()) {
    std::fprintf(stderr, "amuletc trace: %s\n", firmware.status().ToString().c_str());
    return 1;
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
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json;
  out.close();
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
int RunFaultsCommand(const char* argv0, int argc, char** argv) {
  (void)argv0;
  std::string checkpoint_path;
  std::string jsonl_path;
  int top = 10;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return ++i < argc ? argv[i] : nullptr; };
    if (arg == "--help" || arg == "-h") {
      std::fputs(kFaultsHelp, stdout);
      return 0;
    } else if (arg == "--top") {
      const char* value = next();
      if (value == nullptr) {
        return MissingValue("faults", arg);
      }
      if (!ParseInteger(value, &top) || top <= 0) {
        return BadValue("faults", arg, value);
      }
    } else if (arg == "--jsonl") {
      const char* value = next();
      if (value == nullptr || value[0] == '\0') {
        return MissingValue("faults", arg);
      }
      jsonl_path = value;
    } else if (arg.rfind("--", 0) == 0) {
      return UnknownFlag("faults", arg);
    } else if (checkpoint_path.empty()) {
      checkpoint_path = arg;
    } else {
      std::fprintf(stderr, "amuletc faults: more than one checkpoint given: %s\n",
                   arg.c_str());
      return 1;
    }
  }
  if (checkpoint_path.empty()) {
    std::fprintf(stderr,
                 "amuletc faults: a checkpoint path is required (see 'amuletc faults "
                 "--help')\n");
    return 1;
  }
  amulet::Result<amulet::FleetCheckpoint> checkpoint =
      amulet::ReadFleetCheckpoint(checkpoint_path);
  if (!checkpoint.ok()) {
    std::fprintf(stderr, "amuletc faults: %s\n", checkpoint.status().ToString().c_str());
    return 1;
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
    std::ofstream out(jsonl_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", jsonl_path.c_str());
      return 1;
    }
    out << checkpoint->faults.ToJsonl();
    std::printf("wrote %zu fault bucket(s) to %s\n", checkpoint->faults.bucket_count(),
                jsonl_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "fleet") == 0) {
    return RunFleetCommand(argv[0], argc - 2, argv + 2);
  }
  if (argc >= 2 && std::strcmp(argv[1], "fleet-merge") == 0) {
    return RunFleetMergeCommand(argv[0], argc - 2, argv + 2);
  }
  if (argc >= 2 && std::strcmp(argv[1], "faults") == 0) {
    return RunFaultsCommand(argv[0], argc - 2, argv + 2);
  }
  if (argc >= 2 && std::strcmp(argv[1], "ota-pack") == 0) {
    return RunOtaPackCommand(argv[0], argc - 2, argv + 2);
  }
  if (argc >= 2 && std::strcmp(argv[1], "trace") == 0) {
    return RunTraceCommand(argv[0], argc - 2, argv + 2);
  }
  if (argc >= 2 &&
      (std::strcmp(argv[1], "--help") == 0 || std::strcmp(argv[1], "-h") == 0)) {
    std::fputs(kBuildHelp, stdout);
    return 0;
  }

  amulet::AftOptions options;
  bool want_report = false;
  bool want_listing = false;
  bool want_dump_ir = false;
  std::string hex_path;
  bool walk = false;
  int run_seconds = -1;
  std::vector<amulet::AppSource> apps;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--model") {
      if (++i >= argc) {
        return MissingValue("build", arg);
      }
      if (!ParseModel(argv[i], &options.model)) {
        return BadValue("build", arg, argv[i]);
      }
    } else if (arg == "--shadow-ret-stack") {
      options.shadow_return_stack = true;
    } else if (arg == "--future-mpu") {
      options.future_mpu = true;
    } else if (arg == "--zero-shared-stack") {
      options.zero_shared_stack = true;
    } else if (arg == "--no-check-opt") {
      options.optimize_checks = false;
    } else if (arg == "--dump-ir") {
      want_dump_ir = true;
    } else if (arg == "--hex") {
      if (++i >= argc) {
        return MissingValue("build", arg);
      }
      hex_path = argv[i];
    } else if (arg == "--report") {
      want_report = true;
    } else if (arg == "--listing") {
      want_listing = true;
    } else if (arg == "--walk") {
      walk = true;
    } else if (arg == "--run") {
      if (++i >= argc) {
        return MissingValue("build", arg);
      }
      if (!ParseInteger(argv[i], &run_seconds) || run_seconds <= 0) {
        return BadValue("build", arg, argv[i]);
      }
    } else if (arg.rfind("--", 0) == 0) {
      return UnknownFlag("build", arg);
    } else {
      size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "app arguments take the form name=path: %s\n", arg.c_str());
        return Usage(argv[0]);
      }
      std::string name = arg.substr(0, eq);
      std::string path = arg.substr(eq + 1);
      std::ifstream file(path);
      if (!file) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return 1;
      }
      std::ostringstream contents;
      contents << file.rdbuf();
      apps.push_back({name, contents.str()});
    }
  }
  if (apps.empty()) {
    return Usage(argv[0]);
  }

  auto firmware = amulet::BuildFirmware(apps, options);
  if (!firmware.ok()) {
    std::fprintf(stderr, "amuletc: %s\n", firmware.status().ToString().c_str());
    return 1;
  }

  std::printf("built %zu app(s) under %s%s\n", firmware->apps.size(),
              std::string(amulet::MemoryModelName(options.model)).c_str(),
              options.shadow_return_stack ? " + shadow return stack" : "");

  if (!hex_path.empty()) {
    std::ofstream hex(hex_path);
    if (!hex) {
      std::fprintf(stderr, "cannot write %s\n", hex_path.c_str());
      return 1;
    }
    hex << amulet::WriteIntelHex(firmware->image);
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
