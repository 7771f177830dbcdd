// Ablation: marginal cost of each isolation-check flavour, per checked
// access and per function return. Complements Table 1 by decomposing where
// the per-model costs come from:
//   - MPU model:       one inline lower-bound compare per access
//   - SoftwareOnly:    lower + upper inline compares per access
//   - FeatureLimited:  routine-call index bounds check per access (the
//                      original AmuletC scheme)
//   - return-address checks (MPU: one-sided, SW: two-sided)
#include <cstdio>

#include "bench/bench_util.h"

namespace amulet {
namespace {

constexpr int kRuns = 100;
constexpr int kLoopIters = 512;

// A call-heavy app: measures the return-address-check cost (one checked
// return per call, no other checked accesses).
AppSpec CallHeavyApp() {
  AppSpec spec;
  spec.name = "callheavy";
  spec.title = "CallHeavy";
  spec.source = R"(
int acc;
int leaf(int v) { return v + 1; }
void on_init(void) { amulet_button_subscribe(); }
void on_button(int id) {
  acc = 0;
  for (int i = 0; i < 512; i++) {
    acc = leaf(acc);
  }
}
)";
  return spec;
}

// Marginal-cost rows pin the phase-2.5 optimizer OFF: they measure the cost
// of one check flavour, which requires the checks to still be there (the
// optimizer deletes every check in the synthetic app's masked loop).
double PerIter(const AppSpec& app, MemoryModel model, uint16_t button) {
  auto rig = BootApp(app, {.model = model, .optimize_checks = false}, /*fram_wait_states=*/0);
  return MeanButtonCycles(rig.get(), button, kRuns) / kLoopIters;
}

// Full-dispatch cycles for the check-optimizer ablation.
double DispatchCycles(const AppSpec& app, MemoryModel model, uint16_t button,
                      bool optimize_checks) {
  auto rig = BootApp(app, {.model = model, .optimize_checks = optimize_checks},
                     /*fram_wait_states=*/0);
  return MeanButtonCycles(rig.get(), button, kRuns);
}

double PerIterShadow(const AppSpec& app, MemoryModel model, uint16_t button) {
  AftOptions aft;
  aft.model = model;
  aft.shadow_return_stack = true;
  auto fw = BuildFirmware({{app.name, app.source}}, aft);
  if (!fw.ok()) {
    std::fprintf(stderr, "shadow build failed: %s\n", fw.status().ToString().c_str());
    std::exit(1);
  }
  BenchRig rig;
  OsOptions options;
  options.fram_wait_states = 0;
  rig.os = std::make_unique<AmuletOs>(&rig.machine, std::move(*fw), options);
  if (!rig.os->Boot().ok()) {
    std::exit(1);
  }
  return MeanButtonCycles(&rig, button, kRuns) / kLoopIters;
}

int Run() {
  std::printf("== bench_ablation_checks: per-check costs (zero wait states) ==\n\n");
  BenchJson json("ablation_checks");

  const double none_mem = PerIter(SyntheticApp(), MemoryModel::kNoIsolation, 1);
  const double fl_mem = PerIter(SyntheticApp(), MemoryModel::kFeatureLimited, 1);
  const double mpu_mem = PerIter(SyntheticApp(), MemoryModel::kMpu, 1);
  const double sw_mem = PerIter(SyntheticApp(), MemoryModel::kSoftwareOnly, 1);

  std::printf("Checked memory access (marginal cycles per access):\n");
  std::printf("  %-34s %6.1f\n", "MPU lower-bound compare", mpu_mem - none_mem);
  std::printf("  %-34s %6.1f\n", "SoftwareOnly lower+upper compares", sw_mem - none_mem);
  std::printf("  %-34s %6.1f\n", "FeatureLimited index-check call", fl_mem - none_mem);
  std::printf("  (second compare costs %.1f; routine-call penalty over dual-compare: "
              "%.1f)\n\n",
              sw_mem - mpu_mem, fl_mem - sw_mem);

  AppSpec calls = CallHeavyApp();
  const double none_call = PerIter(calls, MemoryModel::kNoIsolation, 0);
  const double fl_call = PerIter(calls, MemoryModel::kFeatureLimited, 0);
  const double mpu_call = PerIter(calls, MemoryModel::kMpu, 0);
  const double sw_call = PerIter(calls, MemoryModel::kSoftwareOnly, 0);

  std::printf("Function call+return (marginal cycles per call, includes return-address "
              "check):\n");
  std::printf("  %-34s %6.1f\n", "baseline call (NoIsolation)", none_call);
  std::printf("  %-34s %6.1f\n", "FeatureLimited (no ret check)", fl_call - none_call);
  std::printf("  %-34s %6.1f\n", "MPU one-sided ret check", mpu_call - none_call);
  std::printf("  %-34s %6.1f\n", "SoftwareOnly two-sided ret check", sw_call - none_call);

  // Paper §5 extension: the InfoMem shadow return-address stack. Catches
  // in-region return hijacks that bounds checks cannot, for a higher fixed
  // per-call price (prologue mirror + epilogue compare).
  const double shadow_call = PerIterShadow(calls, MemoryModel::kMpu, 0);
  std::printf("\nShadow return-address stack (paper §5 / footnote 3):\n");
  std::printf("  %-34s %6.1f\n", "InfoMem shadow (replaces ret check)",
              shadow_call - none_call);
  std::printf("  (protects against in-region return hijacks that the %0.1f-cycle bounds "
              "check misses — see tests/shadow_stack_test.cpp)\n",
              mpu_call - none_call);

  const bool shape = (mpu_mem - none_mem) < (sw_mem - none_mem) &&
                     (sw_mem - none_mem) < (fl_mem - none_mem) &&
                     (mpu_call - none_call) < (sw_call - none_call) + 0.5 &&
                     (shadow_call - none_call) > (sw_call - none_call);
  std::printf("\nshape: %s (MPU single check < SW dual check < FL routine call; one-sided "
              "ret check <= two-sided < shadow stack)\n",
              shape ? "OK" : "MISMATCH");

  struct Entry {
    const char* label;
    double marginal;
  };
  const Entry entries[] = {
      {"mpu_lower_bound_per_access", mpu_mem - none_mem},
      {"sw_dual_compare_per_access", sw_mem - none_mem},
      {"fl_index_check_call_per_access", fl_mem - none_mem},
      {"fl_no_ret_check_per_call", fl_call - none_call},
      {"mpu_one_sided_ret_check_per_call", mpu_call - none_call},
      {"sw_two_sided_ret_check_per_call", sw_call - none_call},
      {"shadow_return_stack_per_call", shadow_call - none_call},
  };
  for (const Entry& entry : entries) {
    json.Row();
    json.Field("operation", std::string(entry.label));
    json.Field("marginal_cycles", entry.marginal);
  }
  json.Scalar("baseline_call_cycles", none_call);
  json.Scalar("shape_ok", shape ? 1.0 : 0.0);

  // Phase-2.5 check-optimizer ablation: total check cycles per dispatch
  // (model minus NoIsolation) with the optimizer off vs on. Quicksort is the
  // negative control: its partition indices are data-dependent, so little is
  // provably in bounds and the reduction should stay small.
  struct AblationCase {
    const char* app;
    const char* label;
    const AppSpec& spec;
    uint16_t button;
  };
  const AblationCase cases[] = {
      {"synthetic", "synthetic (masked loop)", SyntheticApp(), 1},
      {"activity", "activity case 1 (stats)", ActivityApp(), 1},
      {"activity", "activity case 2 (corr)", ActivityApp(), 2},
      {"quicksort", "quicksort (control)", QuicksortApp(), 0},
  };
  const MemoryModel models[] = {MemoryModel::kFeatureLimited, MemoryModel::kMpu,
                                MemoryModel::kSoftwareOnly};

  std::printf("\nCheck-optimizer ablation (check cycles per dispatch = model - "
              "NoIsolation):\n");
  std::printf("  %-26s %-4s %10s %10s %8s\n", "app/case", "mdl", "unopt", "opt",
              "reduct");
  // Distinct apps whose SoftwareOnly check cycles drop by more than 10%.
  int sw_wins = 0;
  const char* last_win_app = "";
  for (const AblationCase& c : cases) {
    const double baseline =
        DispatchCycles(c.spec, MemoryModel::kNoIsolation, c.button, false);
    for (MemoryModel model : models) {
      const double unopt = DispatchCycles(c.spec, model, c.button, false) - baseline;
      const double opt = DispatchCycles(c.spec, model, c.button, true) - baseline;
      const double reduction = unopt > 0 ? 100.0 * (unopt - opt) / unopt : 0.0;
      std::printf("  %-26s %-4s %10.1f %10.1f %7.1f%%\n", c.label,
                  std::string(MemoryModelName(model)).substr(0, 4).c_str(), unopt, opt,
                  reduction);
      if (model == MemoryModel::kSoftwareOnly && reduction > 10.0 &&
          std::string(last_win_app) != c.app) {
        sw_wins++;
        last_win_app = c.app;
      }
      json.Row();
      json.Field("app", std::string(c.app));
      json.Field("case", std::string(c.label));
      json.Field("model", std::string(MemoryModelName(model)));
      json.Field("check_cycles_unopt", unopt);
      json.Field("check_cycles_opt", opt);
      json.Field("reduction_pct", reduction);
    }
  }
  const bool opt_gate = sw_wins >= 2;
  std::printf("  gate: >10%% SoftwareOnly reduction on >=2 apps: %s (%d apps)\n",
              opt_gate ? "OK" : "FAIL", sw_wins);
  json.Scalar("check_opt_sw_wins", static_cast<double>(sw_wins));
  json.Scalar("check_opt_gate_ok", opt_gate ? 1.0 : 0.0);
  json.Write();
  return shape && opt_gate ? 0 : 1;
}

}  // namespace
}  // namespace amulet

int main() { return amulet::Run(); }
