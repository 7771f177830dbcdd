// Fleet engine benchmark: runs a 64-device fleet serially and on the
// executor at several thread counts, verifying that the aggregate statistics
// are bit-identical for every run at every thread count (the fleet
// determinism contract) and reporting the wall-clock speedup from the median
// of five runs per thread count. On a multi-core host the speedup
// approaches the core count; the serial runs are the reference for both
// correctness and timing.
//
// Also quantifies what machine snapshots buy: time-to-first-event for a
// device cloned by the fleet engine from its cohort's template snapshot vs a
// full firmware boot.
//
// The checkpoint section measures the wall-clock cost of periodic fleet
// checkpointing, then simulates a kill after half the fleet and verifies the
// resumed run's FleetDigest matches the uninterrupted reference exactly.
//
// The shard section splits the same fleet across S simulated hosts
// (--shard i/S), merges the shard checkpoints, and verifies the merged
// digest is byte-identical to the single-host reference while the slowest
// shard's wall time shrinks near-linearly in S.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/fleet/checkpoint.h"
#include "src/fleet/device.h"
#include "src/fleet/executor.h"
#include "src/fleet/fleet.h"
#include "src/fleet/merge.h"
#include "src/mcu/snapshot.h"

namespace amulet {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

FleetConfig BenchConfig(int jobs) {
  FleetConfig config;
  config.device_count = 64;
  config.apps = {"pedometer", "clock", "hr", "falldetection"};
  config.model = MemoryModel::kMpu;
  config.fleet_seed = 20180711;
  config.sim_ms = 2000;
  config.jobs = jobs;
  return config;
}

int Run() {
  std::printf("== bench_fleet: %d-device fleet, snapshot-cloned, executor-parallel ==\n\n",
              BenchConfig(1).device_count);
  BenchJson json("fleet");
  json.Scalar("device_count", static_cast<double>(BenchConfig(1).device_count));

  // Snapshot amortization: full boot vs snapshot clone for one device. The
  // clone is the engine's (BootCohort, then CohortRuntime::Clone), so it
  // costs what every fleet and campaign device pays.
  {
    const FleetConfig config = BenchConfig(1);
    Cohort cohort;  // no apps listed: the nine-app suite
    cohort.model = config.model;
    auto booted = fleet_internal::BootCohort(cohort, config);
    if (!booted.ok()) {
      std::fprintf(stderr, "BootCohort failed: %s\n", booted.status().ToString().c_str());
      return 1;
    }
    const fleet_internal::CohortRuntime& runtime = **booted;
    const auto boot_t0 = std::chrono::steady_clock::now();
    Machine machine;
    AmuletOs os(&machine, runtime.os->shared_firmware(), OsOptions{});
    if (!os.Boot().ok()) {
      std::fprintf(stderr, "full boot failed\n");
      return 1;
    }
    const double full_boot_s = SecondsSince(boot_t0);

    const int kClones = 100;
    const auto clone_t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kClones; ++i) {
      auto device = runtime.Clone(fleet_internal::DeviceSeed(config.fleet_seed, i), config);
      if (!device.ok()) {
        std::fprintf(stderr, "clone %d failed: %s\n", i, device.status().ToString().c_str());
        return 1;
      }
    }
    const double clone_s = SecondsSince(clone_t0) / kClones;
    std::printf("boot amortization (nine-app firmware, %zu-byte snapshot):\n",
                runtime.snapshot.bytes.size());
    std::printf("  full boot (image load + 9x on_init): %9.3f ms\n", full_boot_s * 1e3);
    std::printf("  snapshot clone:                      %9.3f ms  (%.0fx faster)\n\n",
                clone_s * 1e3, clone_s > 0 ? full_boot_s / clone_s : 0.0);
    json.Scalar("full_boot_ms", full_boot_s * 1e3);
    json.Scalar("snapshot_clone_ms", clone_s * 1e3);
    json.Scalar("snapshot_bytes", static_cast<double>(runtime.snapshot.bytes.size()));
  }

  // Setup (firmware build + amortization probe) ends here; wall_seconds in
  // the JSON covers only the fleet runs below.
  json.ResetTimer();

  // Scaling. One run takes 0.04-0.16 s, and single runs on a shared host
  // swing by 2-4x, so every thread count reports the median of kRepeats runs
  // (min and max alongside). Every run's digest must match the first serial
  // run's.
  constexpr int kRepeats = 5;
  std::string reference_digest;
  FleetReport serial;  // the first serial run, rendered at the end
  double serial_seconds = 0;
  bool all_identical = true;
  double best_speedup = 1.0;
  for (int jobs : {1, 2, 4, 8}) {
    std::vector<double> seconds;
    bool identical = true;
    uint64_t instructions = 0;
    for (int rep = 0; rep < kRepeats; ++rep) {
      auto report = RunFleet(BenchConfig(jobs));
      if (!report.ok()) {
        std::fprintf(stderr, "fleet (jobs=%d) failed: %s\n", jobs,
                     report.status().ToString().c_str());
        return 1;
      }
      const std::string digest = FleetDigest(*report);
      if (reference_digest.empty()) {
        reference_digest = digest;
        serial = *report;
      }
      identical = identical && digest == reference_digest;
      seconds.push_back(report->run_seconds);
      instructions = report->aggregate.total_instructions;
    }
    std::sort(seconds.begin(), seconds.end());
    const double median = seconds[kRepeats / 2];
    if (jobs == 1) {
      serial_seconds = median;
    }
    const double speedup = median > 0 ? serial_seconds / median : 0.0;
    const double sim_mips = median > 0 ? static_cast<double>(instructions) / median / 1e6 : 0.0;
    best_speedup = std::max(best_speedup, speedup);
    all_identical = all_identical && identical;
    std::printf(
        "%d thread(s): run median %7.3f s (min %.3f, max %.3f of %d)  speedup %5.2fx  "
        "%7.2f sim-MIPS  aggregates %s\n",
        jobs, median, seconds.front(), seconds.back(), kRepeats, speedup, sim_mips,
        identical ? "bit-identical" : "DIVERGED from serial");
    json.Row();
    json.Field("jobs", static_cast<uint64_t>(jobs));
    json.Field("runs", static_cast<uint64_t>(kRepeats));
    json.Field("run_seconds", median);
    json.Field("run_seconds_min", seconds.front());
    json.Field("run_seconds_max", seconds.back());
    json.Field("speedup", speedup);
    json.Field("bit_identical", static_cast<uint64_t>(identical ? 1 : 0));
    json.Field("instructions", instructions);
    json.Field("sim_mips", sim_mips);
  }

  // Flight-recorder overhead gate: the per-device recorder (branch/store/
  // syscall events on the hot simulation paths) must stay within 10% of the
  // recorder-off wall time, and its digest must match the reference exactly
  // (the recorder observes simulated state, never perturbs it).
  {
    // Best-of-3 per configuration: single ~0.1 s fleet runs are jittery on a
    // loaded CI host, and the gate compares two of them.
    FleetConfig no_flight = BenchConfig(0);
    no_flight.flight_recorder = false;
    double off_seconds = 0.0;
    double on_seconds = 0.0;
    bool identical = true;
    for (int rep = 0; rep < 3; ++rep) {
      auto recorder_off = RunFleet(no_flight);
      if (!recorder_off.ok()) {
        std::fprintf(stderr, "recorder-off fleet failed: %s\n",
                     recorder_off.status().ToString().c_str());
        return 1;
      }
      auto recorder_on = RunFleet(BenchConfig(0));
      if (!recorder_on.ok()) {
        std::fprintf(stderr, "recorder-on fleet failed: %s\n",
                     recorder_on.status().ToString().c_str());
        return 1;
      }
      identical = identical && FleetDigest(*recorder_on) == reference_digest &&
                  FleetDigest(*recorder_off) == reference_digest;
      off_seconds = rep == 0 ? recorder_off->run_seconds
                             : std::min(off_seconds, recorder_off->run_seconds);
      on_seconds = rep == 0 ? recorder_on->run_seconds
                            : std::min(on_seconds, recorder_on->run_seconds);
    }
    all_identical = all_identical && identical;
    const double overhead = off_seconds > 0 ? on_seconds / off_seconds : 1.0;
    const bool within_gate = overhead <= 1.10;
    std::printf(
        "\nflight recorder: run %7.3f s vs %7.3f s without (%.3fx wall best-of-3, "
        "gate <= 1.10x %s), digests %s\n",
        on_seconds, off_seconds, overhead, within_gate ? "OK" : "EXCEEDED",
        identical ? "bit-identical" : "DIVERGED");
    json.Scalar("flight_recorder_overhead", overhead);
    json.Scalar("flight_recorder_gate", 1.10);
    json.Scalar("flight_recorder_within_gate", within_gate ? 1.0 : 0.0);
    json.Scalar("flight_recorder_digest_match", identical ? 1.0 : 0.0);
  }

  // Checkpoint overhead + kill/resume digest identity.
  {
    const char* kCkptPath = "bench_fleet_checkpoint.bin";
    std::remove(kCkptPath);
    FleetConfig checkpointed = BenchConfig(0);
    checkpointed.checkpoint_path = kCkptPath;
    checkpointed.checkpoint_every_devices = 8;
    auto with_ckpt = RunFleet(checkpointed);
    if (!with_ckpt.ok()) {
      std::fprintf(stderr, "checkpointed fleet failed: %s\n",
                   with_ckpt.status().ToString().c_str());
      return 1;
    }
    auto plain = RunFleet(BenchConfig(0));
    if (!plain.ok()) {
      std::fprintf(stderr, "plain fleet failed: %s\n", plain.status().ToString().c_str());
      return 1;
    }
    const double overhead_pct =
        plain->run_seconds > 0 ? (with_ckpt->run_seconds / plain->run_seconds - 1.0) * 100.0
                               : 0.0;
    std::printf(
        "\ncheckpointing (every 8 devices): run %7.3f s vs %7.3f s plain (%+.1f%% wall)\n",
        with_ckpt->run_seconds, plain->run_seconds, overhead_pct);
    json.Scalar("checkpoint_overhead_pct", overhead_pct);

    std::remove(kCkptPath);
    FleetConfig interrupted = checkpointed;
    interrupted.abort_after_devices = 32;
    auto aborted = RunFleet(interrupted);
    const bool aborted_as_expected =
        !aborted.ok() && aborted.status().code() == StatusCode::kCancelled;
    auto resumed = ResumeFleet(checkpointed);
    const bool digest_match = resumed.ok() && FleetDigest(*resumed) == reference_digest;
    std::printf("kill after 32/64 devices, resume: digest %s (%d restored, %d simulated)\n",
                digest_match ? "MATCHES uninterrupted run" : "DIVERGED",
                resumed.ok() ? resumed->resumed_devices : 0,
                resumed.ok() ? checkpointed.device_count - resumed->resumed_devices : 0);
    json.Scalar("resume_digest_match", digest_match ? 1.0 : 0.0);
    json.Scalar("resumed_devices",
                resumed.ok() ? static_cast<double>(resumed->resumed_devices) : 0.0);
    std::remove(kCkptPath);
    all_identical = all_identical && aborted_as_expected && digest_match;
  }

  // Cross-host sharding: run each shard serially (one simulated host per
  // shard), merge the shard checkpoints, and compare against the serial
  // single-host reference. The slowest shard bounds the fleet's wall clock,
  // so near-linear scaling means max-shard wall ~= serial wall / S.
  for (int shard_count : {2, 4}) {
    double max_shard_seconds = 0.0;
    double sum_shard_seconds = 0.0;
    std::vector<FleetCheckpoint> shards;
    bool shard_ok = true;
    for (int s = 0; s < shard_count && shard_ok; ++s) {
      const std::string path =
          "bench_fleet_shard_" + std::to_string(shard_count) + "_" + std::to_string(s) + ".bin";
      std::remove(path.c_str());
      FleetConfig shard = BenchConfig(1);
      shard.shard_index = s;
      shard.shard_count = shard_count;
      shard.checkpoint_path = path;
      shard.checkpoint_every_devices = 1 << 20;  // final checkpoint only
      auto report = RunFleet(shard);
      if (!report.ok()) {
        std::fprintf(stderr, "shard %d/%d failed: %s\n", s, shard_count,
                     report.status().ToString().c_str());
        shard_ok = false;
        break;
      }
      max_shard_seconds = std::max(max_shard_seconds, report->run_seconds);
      sum_shard_seconds += report->run_seconds;
      auto checkpoint = ReadFleetCheckpoint(path);
      std::remove(path.c_str());
      if (!checkpoint.ok()) {
        std::fprintf(stderr, "shard %d/%d checkpoint unreadable: %s\n", s, shard_count,
                     checkpoint.status().ToString().c_str());
        shard_ok = false;
        break;
      }
      shards.push_back(std::move(*checkpoint));
    }
    if (!shard_ok) {
      all_identical = false;
      continue;
    }
    auto merged = MergeFleetCheckpoints(shards);
    auto merged_report = merged.ok() ? ReportFromCheckpoint(*merged) : merged.status();
    const bool identical =
        merged_report.ok() && FleetDigest(*merged_report) == reference_digest;
    all_identical = all_identical && identical;
    const double shard_speedup = max_shard_seconds > 0 ? serial_seconds / max_shard_seconds : 0.0;
    std::printf(
        "%ssharded (%d hosts x 1 thread): slowest shard %7.3f s  speedup %5.2fx  "
        "merged digest %s\n",
        shard_count == 2 ? "\n" : "", shard_count, max_shard_seconds, shard_speedup,
        identical ? "bit-identical" : "DIVERGED from single host");
    json.Row();
    json.Field("shard_count", static_cast<uint64_t>(shard_count));
    json.Field("max_shard_seconds", max_shard_seconds);
    json.Field("sum_shard_seconds", sum_shard_seconds);
    json.Field("shard_speedup", shard_speedup);
    json.Field("merged_digest_match", static_cast<uint64_t>(identical ? 1 : 0));
  }

  std::printf("\n%s\n", RenderFleetReport(serial).c_str());
  std::printf("determinism across thread counts: %s\n",
              all_identical ? "HOLDS (aggregate stats bit-identical)" : "VIOLATED");
  std::printf("best median speedup vs serial: %.2fx on %d hardware thread(s)%s\n", best_speedup,
              Executor::DefaultThreadCount(),
              Executor::DefaultThreadCount() < 2
                  ? " (single-core host: no parallel speedup available)"
                  : "");
  json.Scalar("all_identical", all_identical ? 1.0 : 0.0);
  json.Scalar("best_speedup", best_speedup);
  json.Write();
  return all_identical ? 0 : 1;
}

}  // namespace
}  // namespace amulet

int main() { return amulet::Run(); }
