// End-to-end tests of the amuletc command line. Each case runs the built
// binary in a fresh temporary directory and checks its exit status, the flag
// its diagnostic names, and the digest line a run prints. Runs stay small (at
// most 4 devices x 1 simulated second) so the whole file takes seconds.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

namespace fs = std::filesystem;

const std::string kApp = std::string(AMULET_SOURCE_DIR) + "/examples/apps/intervaltimer.amc";

struct Outcome {
  int exit_code = -1;
  std::string out;
  std::string err;
};

// Single-quotes an argument for /bin/sh.
std::string Quote(const std::string& arg) {
  std::string quoted = "'";
  for (char c : arg) {
    quoted += c == '\'' ? std::string("'\\''") : std::string(1, c);
  }
  return quoted + "'";
}

std::string Join(const std::vector<std::string>& args) {
  std::string joined = "amuletc";
  for (const std::string& arg : args) {
    joined += " " + Quote(arg);
  }
  return joined;
}

std::string ReadText(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

// The "fleet digest: ..." or "campaign digest: ..." line of a run, or "".
std::string DigestLine(const std::string& out) {
  std::istringstream in(out);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("fleet digest: ", 0) == 0 || line.rfind("campaign digest: ", 0) == 0) {
      return line;
    }
  }
  return "";
}

// `args` behind the mode word; the build mode ("") has none.
std::vector<std::string> InMode(const std::string& mode, std::vector<std::string> args) {
  if (!mode.empty()) {
    args.insert(args.begin(), mode);
  }
  return args;
}

// Every mode and the flags its --help lists.
const std::map<std::string, std::set<std::string>>& ModeFlags() {
  static const std::map<std::string, std::set<std::string>> kModes = {
      {"",
       {"--model", "--shadow-ret-stack", "--future-mpu", "--zero-shared-stack",
        "--no-check-opt", "--dump-ir", "--hex", "--report", "--listing", "--run", "--walk",
        "--help"}},
      {"fleet",
       {"--devices", "--apps", "--model", "--seed", "--duration", "--jobs", "--shard",
        "--profile", "--cohort", "--metrics-out", "--no-device-stats", "--no-predecode",
        "--no-flight-recorder", "--no-check-opt", "--faults-out", "--checkpoint",
        "--checkpoint-every", "--resume", "--verbose", "--help", "--campaign", "--to-apps",
        "--from-version", "--to-version", "--stages", "--stage-abort", "--health-ms",
        "--storm", "--rollout-seed", "--key", "--image"}},
      {"fleet-merge", {"--out", "--metrics-out", "--faults-out", "--help"}},
      {"ota-pack",
       {"--out", "--apps", "--model", "--fw-version", "--key", "--tamper-bit", "--help"}},
      {"trace", {"--model", "--seconds", "--out", "--validate", "--help"}},
      {"faults", {"--top", "--jsonl", "--help"}},
  };
  return kModes;
}

struct ListedFlag {
  std::string name;
  bool takes_value = false;
};

// The flags of a --help text: lines "  --name METAVAR  text" (a value flag)
// or "  --name          text" (a switch).
std::vector<ListedFlag> ListedFlags(const std::string& help) {
  std::vector<ListedFlag> flags;
  std::istringstream in(help);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("  --", 0) != 0) {
      continue;
    }
    const size_t end = line.find(' ', 2);
    ListedFlag flag;
    flag.name = line.substr(2, end - 2);
    flag.takes_value = end != std::string::npos && end + 1 < line.size() && line[end + 1] != ' ';
    flags.push_back(flag);
  }
  return flags;
}

// A flag list in both spellings: {"--f", "v"} becomes "--f v" or "--f=v";
// a switch has an empty value.
using FlagList = std::vector<std::pair<std::string, std::string>>;

std::vector<std::string> Spelled(const std::vector<std::string>& head, const FlagList& flags,
                                 bool equals_form) {
  std::vector<std::string> args = head;
  for (const auto& [name, value] : flags) {
    if (value.empty()) {
      args.push_back(name);
    } else if (equals_form) {
      args.push_back(name + "=" + value);
    } else {
      args.push_back(name);
      args.push_back(value);
    }
  }
  return args;
}

class CliTest : public testing::Test {
 protected:
  void SetUp() override {
    std::string dir = (fs::temp_directory_path() / "amuletc_cli_XXXXXX").string();
    ASSERT_NE(mkdtemp(dir.data()), nullptr);
    dir_ = dir;
  }
  void TearDown() override { fs::remove_all(dir_); }

  // Runs amuletc with `args` in the test's directory.
  Outcome Amuletc(const std::vector<std::string>& args) const {
    std::string command = "cd " + Quote(dir_.string()) + " && " + Quote(AMULETC_PATH);
    for (const std::string& arg : args) {
      command += " " + Quote(arg);
    }
    command += " > amuletc.out 2> amuletc.err";
    const int status = std::system(command.c_str());
    Outcome run;
    run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    run.out = ReadText(dir_ / "amuletc.out");
    run.err = ReadText(dir_ / "amuletc.err");
    return run;
  }

  // Expects exit status 1 and `text` on stderr.
  void ExpectFails(const std::vector<std::string>& args, const std::string& text) const {
    const Outcome run = Amuletc(args);
    EXPECT_EQ(run.exit_code, 1) << Join(args) << "\n" << run.out << run.err;
    EXPECT_NE(run.err.find(text), std::string::npos)
        << Join(args) << ": stderr lacks \"" << text << "\":\n"
        << run.err;
  }

  // Expects exit status `code` and a digest line, which it returns.
  std::string ExpectDigest(const std::vector<std::string>& args, int code = 0) const {
    const Outcome run = Amuletc(args);
    EXPECT_EQ(run.exit_code, code) << Join(args) << "\n" << run.err;
    const std::string digest = DigestLine(run.out);
    EXPECT_NE(digest, "") << Join(args) << " printed no digest line:\n" << run.out;
    return digest;
  }

  std::string File(const std::string& name) const { return ReadText(dir_ / name); }

  fs::path dir_;
};

// ---- Behaviour kept from before the flag table ----

// The probes the repository's verification notes run by hand, shrunk to at
// most 4 devices x 1 s.
TEST_F(CliTest, VerificationProbes) {
  Outcome run = Amuletc({"--model", "mpu", "--report", "--run", "1", "demo=" + kApp});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("built 1 app(s) under MPU"), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("app 'demo'"), std::string::npos) << run.out;

  ExpectDigest({"fleet", "--devices", "4", "--apps", "pedometer,clock", "--duration", "1",
                "--jobs", "4"});

  ExpectFails({"fleet", "--devices", "0"}, "bad value '0' for flag '--devices'");
  ExpectFails({"fleet", "--jobs", "-3"}, "bad value '-3' for flag '--jobs'");
  ExpectFails({"fleet", "--devices"}, "flag '--devices' requires a value");
  ExpectFails({"fleet", "--bogus"}, "unknown flag '--bogus'");
  ExpectFails({"fleet", "--apps", "no_such_app", "--devices", "1", "--duration", "1"},
              "NOT_FOUND");

  // Fault forensics: a crashy fleet, then its triage.
  ExpectDigest({"fleet", "--devices", "4", "--apps", "pedometer,crasher", "--duration", "1",
                "--checkpoint", "c.ckpt"});
  run = Amuletc({"faults", "c.ckpt", "--top", "3"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("4/4 device(s) completed"), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("check-memory"), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("call stack:"), std::string::npos) << run.out;

  // A campaign rolling out the crasher aborts with exit 2 and cites it.
  run = Amuletc({"fleet", "--campaign", "--devices", "4", "--apps", "pedometer", "--to-apps",
                 "pedometer,crasher", "--duration", "1", "--health-ms", "500"});
  EXPECT_EQ(run.exit_code, 2) << run.err;
  EXPECT_NE(run.out.find("dominant fault buckets behind the abort"), std::string::npos)
      << run.out;
  EXPECT_NE(DigestLine(run.out), "");

  // `faults` bad inputs.
  ExpectFails({"faults"}, "checkpoint");
  ExpectFails({"faults", "missing.ckpt"}, "missing.ckpt");
  std::ofstream(dir_ / "corrupt.ckpt") << "not a checkpoint";
  ExpectFails({"faults", "corrupt.ckpt"}, "INVALID_ARGUMENT");
  ExpectFails({"faults", "c.ckpt", "--top", "0"}, "bad value '0' for flag '--top'");
}

// CI's "Malformed numeric flags are rejected by name" step.
TEST_F(CliTest, MalformedNumericFlagsAreRejectedByName) {
  for (const auto& [flag, value] : FlagList{
           {"--devices", "3x"}, {"--seed", "banana"}, {"--devices", "99999999999"}}) {
    ExpectFails({"fleet", flag, value, "--duration", "1"},
                "bad value '" + value + "' for flag '" + flag + "'");
  }
}

// A checkpointed run resumed from its own finished checkpoint restores every
// device and prints the uninterrupted run's digest.
TEST_F(CliTest, ResumeReproducesTheDigest) {
  const std::vector<std::string> fleet = {"fleet", "--devices", "4", "--apps", "clock",
                                          "--duration", "1"};
  std::vector<std::string> resumed = fleet;
  resumed.insert(resumed.end(), {"--checkpoint", "r.ckpt", "--resume"});
  const std::string want = ExpectDigest(fleet);
  const Outcome fresh = Amuletc(resumed);
  EXPECT_NE(fresh.err.find("no checkpoint at r.ckpt, starting fresh"), std::string::npos)
      << fresh.err;
  EXPECT_EQ(DigestLine(fresh.out), want);
  const Outcome again = Amuletc(resumed);
  EXPECT_NE(again.out.find("resumed: 4 device(s) restored"), std::string::npos) << again.out;
  EXPECT_EQ(DigestLine(again.out), want);
}

// CI's ota-pack -> campaign pipeline. An authentic image of the campaign's
// own build is the campaign it would have packed: same digest. A tampered
// one is rejected by every canary device, which aborts the rollout.
TEST_F(CliTest, OtaPipeline) {
  Outcome run = Amuletc({"ota-pack", "--out", "fw_v2.bin", "--apps", "pedometer,clock",
                     "--fw-version", "2"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("packed 2 app(s) under MPU into fw_v2.bin: fw v2"), std::string::npos)
      << run.out;
  const std::vector<std::string> campaign = {
      "fleet", "--campaign", "--devices", "4", "--apps", "pedometer,clock", "--duration", "1",
      "--to-version", "2", "--health-ms", "200", "--jobs", "2"};
  std::vector<std::string> with_image = campaign;
  with_image.insert(with_image.end(), {"--image", "fw_v2.bin", "--metrics-out", "c.json"});
  EXPECT_EQ(ExpectDigest(with_image), ExpectDigest(campaign));
  EXPECT_NE(File("c.json").find("campaign.updated"), std::string::npos);

  run = Amuletc({"ota-pack", "--out", "fw_bad.bin", "--apps", "pedometer,clock", "--fw-version",
                 "2", "--tamper-bit", "70"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("(TAMPERED)"), std::string::npos) << run.out;
  std::vector<std::string> tampered = campaign;
  tampered.insert(tampered.end(), {"--image", "fw_bad.bin"});
  ExpectDigest(tampered, /*code=*/2);
  ExpectFails(InMode("fleet", {"--campaign", "--image", "missing.bin"}), "missing.bin");
}

TEST_F(CliTest, HelpListsTheSameFlagsInEveryMode) {
  for (const auto& [mode, want] : ModeFlags()) {
    const Outcome run = Amuletc(InMode(mode, {"--help"}));
    EXPECT_EQ(run.exit_code, 0) << mode;
    EXPECT_EQ(run.out.rfind("usage: amuletc", 0), 0u) << run.out;
    std::set<std::string> listed;
    for (const ListedFlag& flag : ListedFlags(run.out)) {
      listed.insert(flag.name);
    }
    EXPECT_EQ(listed, want) << "mode '" << mode << "'";
  }
}

// Every listed flag is known: a value flag given last asks for its value, and
// a switch lets the parser reach the unknown flag after it.
TEST_F(CliTest, EveryListedFlagIsAccepted) {
  for (const auto& mode_flags : ModeFlags()) {
    const std::string& mode = mode_flags.first;
    for (const ListedFlag& flag : ListedFlags(Amuletc(InMode(mode, {"--help"})).out)) {
      if (flag.name == "--help") {
        continue;
      }
      if (flag.takes_value) {
        ExpectFails(InMode(mode, {flag.name}), "flag '" + flag.name + "' requires a value");
      } else {
        ExpectFails(InMode(mode, {flag.name, "--zz"}), "unknown flag '--zz'");
      }
    }
  }
}

// The argument after a value flag is its value, even when it looks like a flag.
TEST_F(CliTest, ArgumentAfterAValueFlagIsItsValue) {
  ExpectFails({"fleet", "--jobs", "-3"}, "bad value '-3' for flag '--jobs'");
  ExpectFails({"fleet", "--seed", "-1"}, "bad value '-1' for flag '--seed'");
  ExpectFails({"fleet", "--devices", "--help"}, "bad value '--help' for flag '--devices'");
}

// Flag names and values reach the diagnostics verbatim, never as a format.
TEST_F(CliTest, UserTextIsPrintedVerbatim) {
  ExpectFails({"fleet", "--devices", "%s%n%s"}, "bad value '%s%n%s' for flag '--devices'");
  ExpectFails({"fleet", "--zz%n"}, "unknown flag '--zz%n'");
  ExpectFails({"faults", "%n.ckpt"}, "%n.ckpt");
}

TEST_F(CliTest, ResumeAndCampaignFlagsNeedTheirPartner) {
  ExpectFails({"fleet", "--resume"}, "--resume");
  ExpectFails({"fleet", "--resume"}, "requires --checkpoint");
  for (const auto& [flag, value] :
       FlagList{{"--to-apps", "clock"}, {"--from-version", "1"}, {"--to-version", "3"},
                {"--stages", "50,100"}, {"--stage-abort", "0.5"}, {"--health-ms", "100"},
                {"--storm", "2"}, {"--rollout-seed", "7"}, {"--key", "0123456789abcdef"},
                {"--image", "fw.bin"}}) {
    ExpectFails({"fleet", flag, value}, "flag '" + flag + "' requires --campaign");
  }
}

// ---- Fixes: each case below failed before the flag table ----

TEST_F(CliTest, StageAbortTakesOnlyAFiniteRateInZeroToOne) {
  for (const std::string rate : {"nan", "NaN", "inf", "-0.1", "1.5", "0.5x"}) {
    ExpectFails({"fleet", "--campaign", "--devices", "1", "--duration", "1", "--stage-abort", rate},
                "bad value '" + rate + "' for flag '--stage-abort'");
  }
  for (const std::string rate : {"0", "1", "0.25"}) {
    ExpectDigest({"fleet", "--campaign", "--devices", "2", "--apps", "clock", "--duration", "1",
                  "--health-ms", "100", "--stage-abort", rate});
  }
}

TEST_F(CliTest, CommaListWithAnEmptyItemIsABadValue) {
  for (const std::string list : {",", "clock,", ",clock", "clock,,pedometer"}) {
    ExpectFails({"fleet", "--devices", "1", "--duration", "1", "--apps", list},
                "bad value '" + list + "' for flag '--apps'");
    ExpectFails({"fleet", "--campaign", "--devices", "1", "--duration", "1", "--to-apps", list},
                "bad value '" + list + "' for flag '--to-apps'");
    ExpectFails({"ota-pack", "--out", "p.bin", "--apps", list},
                "bad value '" + list + "' for flag '--apps'");
  }
  ExpectFails({"fleet", "--campaign", "--devices", "1", "--duration", "1", "--stages", "50,,100"},
              "bad value '50,,100' for flag '--stages'");
}

// An empty value is a missing value, in both spellings, for every value flag.
TEST_F(CliTest, EmptyValueRequiresAValue) {
  ExpectFails({"--hex", "", "demo=" + kApp}, "flag '--hex' requires a value");
  for (const auto& mode_flags : ModeFlags()) {
    const std::string& mode = mode_flags.first;
    for (const ListedFlag& flag : ListedFlags(Amuletc(InMode(mode, {"--help"})).out)) {
      if (flag.takes_value) {
        const std::string text = "flag '" + flag.name + "' requires a value";
        ExpectFails(InMode(mode, {flag.name, ""}), text);
        ExpectFails(InMode(mode, {flag.name + "="}), text);
      }
    }
  }
}

TEST_F(CliTest, HelpWorksAnywhereInEveryMode) {
  const std::map<std::string, std::vector<std::string>> before_help = {
      {"", {"--model", "mpu"}},      {"fleet", {"--devices", "2"}},
      {"fleet-merge", {"a.ckpt"}},   {"ota-pack", {"--out", "p.bin"}},
      {"trace", {"--seconds", "1"}}, {"faults", {"c.ckpt", "--top", "3"}},
  };
  for (const auto& [mode, args] : before_help) {
    for (const std::string help : {"--help", "-h"}) {
      std::vector<std::string> with_help = InMode(mode, args);
      with_help.push_back(help);
      const Outcome run = Amuletc(with_help);
      EXPECT_EQ(run.exit_code, 0) << Join(with_help) << "\n" << run.err;
      EXPECT_EQ(run.out.rfind("usage: amuletc", 0), 0u) << Join(with_help) << "\n" << run.out;
    }
  }
}

// `--flag=VALUE` and `--flag VALUE` are the same run: same digest, same files.
TEST_F(CliTest, EveryValueFlagTakesTheEqualsForm) {
  const FlagList fleet = {
      {"--devices", "2"},   {"--apps", "pedometer,clock"}, {"--model", "sw"},
      {"--seed", "0x2a"},   {"--duration", "1"},           {"--jobs", "2"},
      {"--checkpoint", "c.ckpt"}, {"--checkpoint-every", "1"},
      {"--metrics-out", "m.json"}, {"--faults-out", "f.jsonl"}};
  const FlagList campaign = {
      {"--campaign", ""},      {"--devices", "4"},       {"--apps", "clock"},
      {"--to-apps", "clock,pedometer"}, {"--duration", "1"}, {"--from-version", "3"},
      {"--to-version", "0x5"}, {"--stages", "50,100"},   {"--stage-abort", "0.5"},
      {"--health-ms", "200"},  {"--storm", "2"},         {"--rollout-seed", "0x11"},
      {"--key", "0123456789abcdef"}, {"--checkpoint", "c.ckpt"},
      {"--metrics-out", "m.json"}, {"--faults-out", "f.jsonl"}};
  for (const FlagList& flags : {fleet, campaign}) {
    const std::string spaced = ExpectDigest(Spelled({"fleet"}, flags, false));
    const std::vector<std::string> files = {File("c.ckpt"), File("m.json"), File("f.jsonl")};
    EXPECT_EQ(ExpectDigest(Spelled({"fleet"}, flags, true)), spaced);
    EXPECT_EQ((std::vector<std::string>{File("c.ckpt"), File("m.json"), File("f.jsonl")}), files);
  }

  // The shards of a 2-device fleet, merged with both spellings.
  const std::vector<std::string> shard = {"fleet", "--devices", "2", "--apps", "clock",
                                          "--duration", "1"};
  std::vector<std::string> shard0 = shard;
  std::vector<std::string> shard1 = shard;
  shard0.insert(shard0.end(), {"--shard=0/2", "--checkpoint=s0.ckpt"});
  shard1.insert(shard1.end(), {"--shard=1/2", "--checkpoint=s1.ckpt"});
  ExpectDigest(shard0);
  ExpectDigest(shard1);
  const FlagList merge = {
      {"--out", "all.ckpt"}, {"--metrics-out", "m.json"}, {"--faults-out", "f.jsonl"}};
  const std::vector<std::string> shards = {"fleet-merge", "s0.ckpt", "s1.ckpt"};
  const std::string spaced = ExpectDigest(Spelled(shards, merge, false));
  const std::vector<std::string> files = {File("all.ckpt"), File("m.json"), File("f.jsonl")};
  EXPECT_EQ(ExpectDigest(Spelled(shards, merge, true)), spaced);
  EXPECT_EQ((std::vector<std::string>{File("all.ckpt"), File("m.json"), File("f.jsonl")}), files);
  EXPECT_EQ(spaced, ExpectDigest(shard));
}

TEST_F(CliTest, FlagsWithoutTheirPartnerFail) {
  ExpectFails({"--walk", "demo=" + kApp}, "flag '--walk' requires --run");
  ExpectFails({"fleet", "--devices", "1", "--duration", "1", "--checkpoint-every", "8"},
              "flag '--checkpoint-every' requires --checkpoint");
}

// --dump-ir prints the IR of the build it reports: under --future-mpu that
// build inserts no checks, and its IR shows none.
TEST_F(CliTest, DumpIrFollowsFutureMpu) {
  std::ofstream(dir_ / "ptr.amc") << "int buf[4];\n"
                                     "void on_init(void) {\n"
                                     "  int id = 1;\n"
                                     "  int *p = buf + id;\n"
                                     "  *p = 3;\n"
                                     "}\n";
  Outcome run = Amuletc({"--model", "mpu", "--dump-ir", "--report", "p=ptr.amc"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("check_low"), std::string::npos) << run.out;

  run = Amuletc({"--model", "mpu", "--future-mpu", "--dump-ir", "--report", "p=ptr.amc"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("checks: 0 data, 0 code, 0 index"), std::string::npos) << run.out;
  EXPECT_EQ(run.out.find("check_low"), std::string::npos) << run.out;
  EXPECT_EQ(run.out.find("check_high"), std::string::npos) << run.out;
}

// Campaigns always keep per-device rows, so --no-device-stats cannot apply.
TEST_F(CliTest, NoDeviceStatsFailsInACampaign) {
  ExpectFails({"fleet", "--campaign", "--no-device-stats", "--devices", "1", "--duration", "1"},
              "'--no-device-stats'");
  ExpectDigest({"fleet", "--no-device-stats", "--devices", "2", "--apps", "clock", "--duration",
                "1"});
}

// One device runs on one thread whatever --jobs says, so this probes the bound
// without starting threads.
TEST_F(CliTest, JobsIsBoundedAt1024) {
  ExpectFails({"fleet", "--jobs", "1025", "--devices", "1", "--duration", "1"},
              "bad value '1025' for flag '--jobs'");
}

// Any argument starting with '-' is a flag, in every mode.
TEST_F(CliTest, DashArgumentsAreFlags) {
  ExpectFails({"faults", "-x"}, "unknown flag '-x'");
  ExpectFails({"trace", "-x"}, "unknown flag '-x'");
  ExpectFails({"-x", "demo=" + kApp}, "unknown flag '-x'");
  ExpectFails({"ota-pack", "--out", "p.bin", "-x"}, "unknown flag '-x'");
  ExpectFails({"fleet-merge", "-x"}, "unknown flag '-x'");
}

// A setter's own reason rides on the bad-value line.
TEST_F(CliTest, SetterReasonIsOnTheBadValueLine) {
  const Outcome run = Amuletc({"fleet", "--cohort", "bad"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("bad value 'bad' for flag '--cohort': cohort spec 'bad' must be"),
            std::string::npos)
      << run.err;
  EXPECT_EQ(std::count(run.err.begin(), run.err.end(), '\n'), 1) << run.err;
  ExpectFails({"fleet", "--profile", "missing.txt"},
              "bad value 'missing.txt' for flag '--profile': cannot open missing.txt");
}

// An authentic image must be the campaign's own build; see
// CampaignTest.ValidatesConfig for the engine side.
TEST_F(CliTest, MismatchedImageFailsTheCampaign) {
  const std::vector<std::string> campaign = {
      "fleet", "--campaign", "--devices", "4", "--apps", "pedometer,clock", "--duration", "1",
      "--to-version", "2", "--health-ms", "200"};
  const std::map<std::string, std::vector<std::string>> packs = {
      {"v3.bin", {"--apps", "pedometer,clock", "--fw-version", "3"}},
      {"clock.bin", {"--apps", "clock", "--fw-version", "2"}},
      {"sw.bin", {"--apps", "pedometer,clock", "--fw-version", "2", "--model", "sw"}},
  };
  const std::map<std::string, std::string> reasons = {
      {"v3.bin", "firmware v3, but the campaign rolls out v2"},
      {"clock.bin", "is not the campaign's to_apps build"},
      {"sw.bin", "targets SoftwareOnly, but the fleet runs MPU"},
  };
  for (const auto& [file, pack] : packs) {
    std::vector<std::string> args = {"ota-pack", "--out", file};
    args.insert(args.end(), pack.begin(), pack.end());
    ASSERT_EQ(Amuletc(args).exit_code, 0) << Join(args);
    std::vector<std::string> run = campaign;
    run.insert(run.end(), {"--image", file});
    ExpectFails(run, reasons.at(file));
  }
}

}  // namespace
