// Ablation: software shift-add multiply (__rt_mul) vs the MPY32 hardware
// multiplier peripheral, on the multiply-heavy Activity Case 2 workload and
// a pure multiply loop. Not a paper experiment — it quantifies one line of
// our substrate substitution: the FR5969 has MPY32, and a production
// toolchain would use it, shrinking every workload's baseline.
#include <cstdio>

#include "bench/bench_util.h"

namespace amulet {
namespace {

constexpr int kRuns = 100;

AppSpec MulLoopApp() {
  AppSpec spec;
  spec.name = "mulloop";
  spec.title = "MulLoop";
  spec.source = R"(
int sink;
void on_init(void) { amulet_button_subscribe(); }
void on_button(int id) {
  int acc = 1;
  for (int i = 1; i < 256; i++) {
    acc = acc * i + 3;
  }
  sink = acc;
}
)";
  return spec;
}

double Measure(const AppSpec& app, uint16_t button, bool hw_multiplier,
               bool warmup_accel) {
  auto rig = BootApp(app, {.model = MemoryModel::kMpu, .use_hw_multiplier = hw_multiplier},
                     /*fram_wait_states=*/1);
  if (warmup_accel) {
    rig->os->sensors().set_mode(ActivityMode::kWalking);
    if (!rig->os->RunFor(5000).ok()) {
      std::exit(1);
    }
  }
  return MeanButtonCycles(rig.get(), button, kRuns);
}

int Run() {
  std::printf("== bench_ablation_hwmul: software __rt_mul vs MPY32 peripheral (MPU model, "
              "ws=1) ==\n\n");
  struct Case {
    const char* label;
    const AppSpec* app;
    uint16_t button;
    bool warmup;
  };
  const Case cases[] = {
      {"255 dependent multiplies", nullptr, 0, false},
      {"Activity Case 2 (corr+filter)", &ActivityApp(), 2, true},
  };
  AppSpec mul = MulLoopApp();
  bool shape = true;
  BenchJson json("ablation_hwmul");
  std::printf("%-32s %14s %14s %9s\n", "Workload", "software cyc", "MPY32 cyc", "speedup");
  PrintRule(74);
  for (const Case& c : cases) {
    const AppSpec& app = c.app != nullptr ? *c.app : mul;
    double sw = Measure(app, c.button, false, c.warmup);
    double hw = Measure(app, c.button, true, c.warmup);
    std::printf("%-32s %14.0f %14.0f %8.2fx\n", c.label, sw, hw, sw / hw);
    json.Row();
    json.Field("workload", std::string(c.label));
    json.Field("software_cycles", sw);
    json.Field("mpy32_cycles", hw);
    json.Field("speedup", sw / hw);
    if (hw >= sw) {
      shape = false;
    }
  }
  PrintRule(74);
  std::printf("\nshape: %s (hardware multiplier strictly faster)\n",
              shape ? "OK" : "MISMATCH");
  json.Scalar("shape_ok", shape ? 1.0 : 0.0);
  json.Write();
  return shape ? 0 : 1;
}

}  // namespace
}  // namespace amulet

int main() { return amulet::Run(); }
