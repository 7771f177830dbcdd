// Ablation of the paper's stack design decision (Section 3): per-app stacks
// cost memory but make app switches cheap; the rejected alternative — one
// shared stack scrubbed (bzero'd) on every switch so the next app cannot
// read stack tailings — makes every dispatch pay for clearing 2 KiB of SRAM.
#include <cstdio>

#include "bench/bench_util.h"

namespace amulet {
namespace {

constexpr int kRuns = 100;

AppSpec TinyHandlerApp() {
  AppSpec spec;
  spec.name = "tiny";
  spec.title = "Tiny";
  spec.source = R"(
int hits;
void on_init(void) { amulet_button_subscribe(); }
void on_button(int id) { hits++; }
)";
  return spec;
}

double DispatchCost(MemoryModel model, bool zero_shared_stack) {
  auto rig = BootApp(TinyHandlerApp(), {.model = model, .zero_shared_stack = zero_shared_stack},
                     /*fram_wait_states=*/1);
  return MeanButtonCycles(rig.get(), 0, kRuns);
}

int Run() {
  std::printf("== bench_ablation_stack: per-app stacks vs shared stack (+bzero) ==\n\n");
  BenchJson json("ablation_stack");
  const double shared = DispatchCost(MemoryModel::kNoIsolation, false);
  const double shared_zeroed = DispatchCost(MemoryModel::kNoIsolation, true);
  const double per_app_sw = DispatchCost(MemoryModel::kSoftwareOnly, false);
  const double per_app_mpu = DispatchCost(MemoryModel::kMpu, false);

  std::printf("Cycles per minimal event dispatch (handler body: one increment):\n");
  std::printf("  %-44s %10.0f\n", "shared stack, no scrubbing (insecure)", shared);
  std::printf("  %-44s %10.0f\n", "shared stack + bzero on switch (rejected)", shared_zeroed);
  std::printf("  %-44s %10.0f\n", "per-app stacks (SoftwareOnly gates)", per_app_sw);
  std::printf("  %-44s %10.0f\n", "per-app stacks + MPU reconfig (MPU gates)", per_app_mpu);
  std::printf("\nScrubbing multiplies dispatch cost by %.1fx; per-app stacks cost only "
              "%.0f extra cycles (plus one stack region per app).\n",
              shared_zeroed / shared, per_app_sw - shared);
  const bool shape = shared_zeroed > 5 * per_app_sw && per_app_sw > shared;
  std::printf("shape: %s (the paper's choice of per-app stacks is the clear winner)\n",
              shape ? "OK" : "MISMATCH");

  struct Entry {
    const char* label;
    double cycles;
  };
  const Entry entries[] = {{"shared_stack", shared},
                           {"shared_stack_bzero", shared_zeroed},
                           {"per_app_stacks_sw_gates", per_app_sw},
                           {"per_app_stacks_mpu_gates", per_app_mpu}};
  for (const Entry& entry : entries) {
    json.Row();
    json.Field("configuration", std::string(entry.label));
    json.Field("dispatch_cycles", entry.cycles);
  }
  json.Scalar("shape_ok", shape ? 1.0 : 0.0);
  json.Write();
  return shape ? 0 : 1;
}

}  // namespace
}  // namespace amulet

int main() { return amulet::Run(); }
