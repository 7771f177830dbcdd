// Ablation of the paper's Section-5 future-work vision: "MPUs that can
// protect all of memory and support 4 or more regions would negate the need
// for our compiler-inserted bounds checks" (and, with per-context register
// banks, the reconfiguration cost). We model that hypothetical part with the
// AFT's future_mpu option: the kMpu pipeline with no inserted checks and no
// gate-time MPU reprogramming.
#include <cstdio>

#include "bench/bench_util.h"

namespace amulet {
namespace {

constexpr int kRuns = 100;
constexpr int kLoopIters = 512;

struct Cost {
  double mem = 0;
  double api = 0;
};

Cost Measure(MemoryModel model, bool future_mpu) {
  // Check costs as the paper's toolchain inserts them (optimizer off).
  auto rig = BootApp(SyntheticApp(),
                     {.model = model, .future_mpu = future_mpu, .optimize_checks = false},
                     /*fram_wait_states=*/1);
  Cost cost;
  cost.mem = MeanButtonCycles(rig.get(), 1, kRuns) / kLoopIters;
  cost.api = MeanButtonCycles(rig.get(), 2, kRuns) / kLoopIters;
  return cost;
}

int Run() {
  std::printf("== bench_ablation_mpu: today's 3-segment MPU vs a hypothetical >=4-region "
              "MPU ==\n\n");
  BenchJson json("ablation_mpu");
  Cost none = Measure(MemoryModel::kNoIsolation, false);
  Cost sw = Measure(MemoryModel::kSoftwareOnly, false);
  Cost mpu = Measure(MemoryModel::kMpu, false);
  Cost future = Measure(MemoryModel::kMpu, true);

  std::printf("%-34s %18s %18s\n", "Configuration", "mem access cyc/op", "API call cyc/op");
  PrintRule(74);
  std::printf("%-34s %18.1f %18.1f\n", "NoIsolation (unprotected)", none.mem, none.api);
  std::printf("%-34s %18.1f %18.1f\n", "SoftwareOnly (2 checks/access)", sw.mem, sw.api);
  std::printf("%-34s %18.1f %18.1f\n", "MPU (paper: 1 check + reconfig)", mpu.mem, mpu.api);
  std::printf("%-34s %18.1f %18.1f\n", "Future MPU (0 checks, 0 reconfig)", future.mem,
              future.api);
  PrintRule(74);
  std::printf("\nFuture-MPU overhead over NoIsolation: %+.1f cyc/access, %+.1f cyc/API call\n",
              future.mem - none.mem, future.api - none.api);
  std::printf("(residual cost is the per-app stack living in FRAM; protection itself would "
              "be free)\n");
  const bool shape = future.mem < mpu.mem && future.api < mpu.api && future.api < sw.api;
  std::printf("shape: %s (future MPU strictly cheaper than both isolating schemes)\n",
              shape ? "OK" : "MISMATCH");

  struct Entry {
    const char* label;
    const Cost* cost;
  };
  const Entry entries[] = {{"no_isolation", &none},
                           {"software_only", &sw},
                           {"mpu", &mpu},
                           {"future_mpu", &future}};
  for (const Entry& entry : entries) {
    json.Row();
    json.Field("configuration", std::string(entry.label));
    json.Field("mem_access_cycles_per_op", entry.cost->mem);
    json.Field("api_call_cycles_per_op", entry.cost->api);
  }
  json.Scalar("shape_ok", shape ? 1.0 : 0.0);
  json.Write();
  return shape ? 0 : 1;
}

}  // namespace
}  // namespace amulet

int main() { return amulet::Run(); }
