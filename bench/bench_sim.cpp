// Single-device simulator-core benchmark: measures raw instructions/second
// of the predecoded fast-dispatch core against the baseline interpreter
// (cpu().set_predecode(false)) on hand-written MSP430 workloads, and proves
// the two cores bit-identical by comparing full machine snapshots after
// running the exact same cycle budget.
//
// Workloads are assembled, linked at FRAM start, and run on a bare Machine
// (no AmuletOS), so the numbers isolate the fetch/decode/dispatch loop from
// OS scheduling. Each workload is an infinite loop; Run() exits when the
// cycle budget is exhausted.
//
// Output: BENCH_sim.json with one row per (workload, wait-state) pair.
// The >= 5x throughput target applies to the dispatch-bound headline
// workload (alu_reg: what predecode eliminates — fetch + decode + dispatch —
// is the whole per-instruction cost). Memory-traffic workloads share their
// data-access bus cost with the baseline, so their speedup is Amdahl-bounded
// and reported as-is; min/geomean over all rows are emitted alongside.
// The headline ratio now sits below its target: the interpreter fetches
// every word through the same bus, and when bus accesses became a slot-table
// load with an inline MPU check the interpreter sped up as well, so the
// ratio fell even though the fast core's own instructions/second rose. The
// target stays as the goal for the dispatch loop; it is not a gate.
// Exit status 1 if any snapshot diverges (bit-identity is the contract;
// speed is the goal — see docs/simulator.md).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/asm/assembler.h"
#include "src/asm/linker.h"
#include "src/mcu/code_cache.h"
#include "src/mcu/machine.h"
#include "src/mcu/snapshot.h"
#include "src/scope/metrics.h"

namespace amulet {
namespace {

constexpr uint64_t kCycleBudget = 24'000'000;
// Wall time is the min over reps (noise floor). Interpreter and fast-core
// reps are interleaved so a load spike on the host machine hits both sides
// instead of skewing the ratio.
constexpr int kReps = 4;

struct Workload {
  const char* name;
  const char* source;  // must define `start:`
  int fram_wait_states;
};

// Register-only ALU pressure: the best case for dispatch overhead, since
// every instruction is one word and no bus penalty applies.
const char kAluLoop[] =
    "start:\n"
    "  mov #0x8800, sp\n"
    "  mov #1, r5\n"
    "  mov #0x1234, r6\n"
    "loop:\n"
    "  add r5, r4\n"
    "  xor r4, r6\n"
    "  swpb r6\n"
    "  addc r6, r7\n"
    "  and #0x7FFF, r7\n"
    "  bis r5, r8\n"
    "  rrc r8\n"
    "  sub r5, r9\n"
    "  jmp loop\n";

// Memory traffic through SRAM with indexed, absolute, indirect, and
// autoincrement modes: exercises multi-word instructions (cached ext words)
// and the read-modify-write paths.
const char kMemLoop[] =
    "start:\n"
    "  mov #0x8800, sp\n"
    "  mov #0x1c00, r4\n"
    "loop:\n"
    "  mov #0x1c00, r4\n"
    "  mov #0x5aa5, &0x1c10\n"
    "  mov &0x1c10, r5\n"
    "  add r5, 2(r4)\n"
    "  mov 2(r4), r6\n"
    "  mov @r4+, r7\n"
    "  mov r6, 4(r4)\n"
    "  xor.b r5, 6(r4)\n"
    "  jmp loop\n";

// Call/return, push/pop, and conditional branches: stresses PC-changing
// instructions, which the fast path must re-resolve every step.
const char kCallLoop[] =
    "start:\n"
    "  mov #0x8800, sp\n"
    "  mov #0, r4\n"
    "loop:\n"
    "  mov #7, r5\n"
    "  call #leaf\n"
    "  add #1, r4\n"
    "  cmp #100, r4\n"
    "  jnz loop\n"
    "  mov #0, r4\n"
    "  jmp loop\n"
    "leaf:\n"
    "  push r5\n"
    "  add r5, r6\n"
    "  pop r5\n"
    "  ret\n";

const Workload kWorkloads[] = {
    {"alu_reg", kAluLoop, 0},
    {"mem_sram", kMemLoop, 0},
    {"call_branch", kCallLoop, 0},
    {"alu_reg_ws8", kAluLoop, 8},  // FRAM fetch penalties: replay path
};

struct RunResult {
  double seconds = 0;           // min wall time over kReps
  uint64_t instructions = 0;
  std::vector<uint8_t> snapshot;
  CodeCache::Stats cache;  // predecode runs only; one rep's worth
};

Image LinkWorkload(const Workload& w) {
  auto object = Assemble(w.source, std::string(w.name) + ".s");
  if (!object.ok()) {
    std::fprintf(stderr, "assemble %s failed: %s\n", w.name,
                 object.status().ToString().c_str());
    std::exit(1);
  }
  Linker linker;
  linker.AddObject(std::move(*object));
  auto image = linker.Link({{".text", kFramStart}});
  if (!image.ok()) {
    std::fprintf(stderr, "link %s failed: %s\n", w.name, image.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*image);
}

// One timed repetition on a fresh machine. Folds the wall time, instruction
// count, and end-state snapshot into `out`, failing on any cross-rep
// nondeterminism within the same mode.
bool RunRep(const Workload& w, const Image& image, bool predecode, bool first, RunResult* out) {
  Machine machine;
  machine.cpu().set_predecode(predecode);
  machine.bus().set_fram_wait_states(w.fram_wait_states);
  LoadImage(image, &machine.bus());
  machine.bus().PokeWord(kResetVector, image.SymbolOrZero("start"));
  machine.cpu().Reset();

  const auto t0 = std::chrono::steady_clock::now();
  const Cpu::RunOutcome outcome = machine.Run(kCycleBudget);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (outcome.result != StepResult::kOk) {
    std::fprintf(stderr, "%s (%s): halted unexpectedly (%d)\n", w.name,
                 predecode ? "predecode" : "interpreter", static_cast<int>(outcome.result));
    return false;
  }
  const uint64_t instructions = machine.cpu().instruction_count();
  if (first) {
    out->seconds = seconds;
    out->instructions = instructions;
    out->snapshot = CaptureSnapshot(machine).bytes;
    out->cache = machine.cpu().code_cache_stats();
    return true;
  }
  out->seconds = std::min(out->seconds, seconds);
  if (instructions != out->instructions || CaptureSnapshot(machine).bytes != out->snapshot) {
    std::fprintf(stderr, "%s (%s): nondeterministic across repetitions\n", w.name,
                 predecode ? "predecode" : "interpreter");
    return false;
  }
  return true;
}

bool RunOnce(const Workload& w, const Image& image, RunResult* slow, RunResult* fast) {
  for (int rep = 0; rep < kReps; ++rep) {
    if (!RunRep(w, image, /*predecode=*/false, rep == 0, slow) ||
        !RunRep(w, image, /*predecode=*/true, rep == 0, fast)) {
      return false;
    }
  }
  return true;
}

int Run() {
  std::printf("== bench_sim: predecoded fast dispatch vs baseline interpreter ==\n\n");
  BenchJson json("sim");
  json.Scalar("cycle_budget", static_cast<double>(kCycleBudget));

  std::vector<Image> images;
  for (const Workload& w : kWorkloads) {
    images.push_back(LinkWorkload(w));
  }
  json.ResetTimer();  // setup (assemble + link) excluded from wall_seconds

  std::printf("  %-14s %3s %12s %12s %12s %8s %10s %s\n", "workload", "ws", "insns",
              "interp i/s", "fast i/s", "speedup", "sim-MIPS", "identical");
  bool all_identical = true;
  // Predecode cache behaviour across all workloads, routed through the same
  // registry machinery the fleet uses (host-side only — never digested).
  MetricRegistry cache_metrics;
  double headline_speedup = 0;  // the dispatch-bound workload (alu_reg)
  double min_speedup = 0;
  double log_sum = 0;
  int rows = 0;
  for (size_t i = 0; i < std::size(kWorkloads); ++i) {
    const Workload& w = kWorkloads[i];
    RunResult slow, fast;
    if (!RunOnce(w, images[i], &slow, &fast)) {
      return 1;
    }
    const bool identical =
        fast.snapshot == slow.snapshot && fast.instructions == slow.instructions;
    all_identical = all_identical && identical;
    const double slow_ips =
        slow.seconds > 0 ? static_cast<double>(slow.instructions) / slow.seconds : 0;
    const double fast_ips =
        fast.seconds > 0 ? static_cast<double>(fast.instructions) / fast.seconds : 0;
    const double speedup = slow_ips > 0 ? fast_ips / slow_ips : 0;
    if (std::string(w.name) == "alu_reg") {
      headline_speedup = speedup;
    }
    min_speedup = rows == 0 ? speedup : std::min(min_speedup, speedup);
    log_sum += std::log(speedup > 0 ? speedup : 1e-9);
    ++rows;
    std::printf("  %-14s %3d %12llu %12.0f %12.0f %7.2fx %10.2f %s\n", w.name,
                w.fram_wait_states, static_cast<unsigned long long>(fast.instructions),
                slow_ips, fast_ips, speedup, fast_ips / 1e6,
                identical ? "yes" : "DIVERGED");
    json.Row();
    json.Field("workload", std::string(w.name));
    json.Field("fram_wait_states", static_cast<uint64_t>(w.fram_wait_states));
    json.Field("instructions", fast.instructions);
    json.Field("interp_ips", slow_ips);
    json.Field("predecode_ips", fast_ips);
    json.Field("speedup", speedup);
    json.Field("sim_mips", fast_ips / 1e6);
    json.Field("bit_identical", static_cast<uint64_t>(identical ? 1 : 0));
    const CodeCache::Stats& cache = fast.cache;
    cache_metrics.Add("codecache.hits", cache.hits);
    cache_metrics.Add("codecache.misses", cache.misses);
    cache_metrics.Add("codecache.slow_paths", cache.slow_paths);
    cache_metrics.Add("codecache.invalidations", cache.invalidations);
    cache_metrics.Add("codecache.full_invalidations", cache.full_invalidations);
    json.Field("cache_hits", cache.hits);
    json.Field("cache_misses", cache.misses);
    json.Field("cache_slow_paths", cache.slow_paths);
    json.Field("cache_invalidations", cache.invalidations);
    const uint64_t lookups = cache.hits + cache.misses;
    json.Field("cache_hit_rate",
               lookups > 0 ? static_cast<double>(cache.hits) / static_cast<double>(lookups)
                           : 0.0);
  }

  const double geomean = rows > 0 ? std::exp(log_sum / rows) : 0;
  std::printf("\nspeedup: dispatch-bound headline %.2fx (target: >= 5x), min %.2fx, geomean %.2fx\n",
              headline_speedup, min_speedup, geomean);
  std::printf("bit identity (snapshots after %llu-cycle runs): %s\n",
              static_cast<unsigned long long>(kCycleBudget),
              all_identical ? "HOLDS" : "VIOLATED");
  const uint64_t total_hits = cache_metrics.counter("codecache.hits");
  const uint64_t total_misses = cache_metrics.counter("codecache.misses");
  const uint64_t total_lookups = total_hits + total_misses;
  std::printf(
      "predecode cache: %llu hit(s), %llu miss(es), %llu slow path(s), %llu "
      "invalidation(s) (%.4f%% hit rate)\n",
      static_cast<unsigned long long>(total_hits),
      static_cast<unsigned long long>(total_misses),
      static_cast<unsigned long long>(cache_metrics.counter("codecache.slow_paths")),
      static_cast<unsigned long long>(cache_metrics.counter("codecache.invalidations")),
      total_lookups > 0 ? 100.0 * static_cast<double>(total_hits) /
                              static_cast<double>(total_lookups)
                        : 0.0);
  json.Scalar("speedup_headline", headline_speedup);
  json.Scalar("speedup_min", min_speedup);
  json.Scalar("speedup_geomean", geomean);
  json.Scalar("speedup_target", 5.0);
  json.Scalar("all_identical", all_identical ? 1.0 : 0.0);
  json.Scalar("cache_hits_total", static_cast<double>(total_hits));
  json.Scalar("cache_misses_total", static_cast<double>(total_misses));
  json.Scalar("cache_slow_paths_total",
              static_cast<double>(cache_metrics.counter("codecache.slow_paths")));
  json.Scalar("cache_invalidations_total",
              static_cast<double>(cache_metrics.counter("codecache.invalidations")));
  json.Scalar("cache_hit_rate",
              total_lookups > 0 ? static_cast<double>(total_hits) /
                                      static_cast<double>(total_lookups)
                                : 0.0);
  json.Write();
  return all_identical ? 0 : 1;
}

}  // namespace
}  // namespace amulet

int main() { return amulet::Run(); }
