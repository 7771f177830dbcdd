// Fault injection: what happens when an app misbehaves under each isolation
// model. Demonstrates
//   * a wild data pointer below the app (compiler lower-bound check),
//   * a wild data pointer above the app (MPU segment-3 hardware fault),
//   * a corrupted function pointer,
//   * unbounded recursion overflowing the app stack into the execute-only
//     code segment (MPU fault), and
//   * the OS restart policy putting the app back into a clean state.
#include <cstdio>

#include "src/aft/aft.h"
#include "src/os/os.h"

namespace {

const char* kChaosApp = R"(
int scratch[4];
int depth;

int deep(int n) {
  depth++;
  return deep(n + 1) + n;   /* never terminates: stack must overflow */
}

void on_init(void) {
  amulet_button_subscribe();
  amulet_log_value(100, 1);  /* visible restart marker */
}

void on_button(int id) {
  if (id == 0) {             /* wild write below the app: into SRAM */
    int* p = (int*)0x1C00;
    *p = 0xDEAD;
  }
  if (id == 1) {             /* wild write above the app */
    int* p = (int*)0xF000;
    *p = 0xDEAD;
  }
  if (id == 2) {             /* corrupted function pointer into OS data */
    void (*fn)(void) = (void (*)(void))0x1D00;
    fn();
  }
  if (id == 3) {             /* stack overflow by recursion */
    depth = 0;
    deep(1);
  }
  if (id == 4) {             /* a well-behaved access, for contrast */
    scratch[1] = 7;
    amulet_log_value(101, scratch[1]);
  }
}
)";

void Demonstrate(amulet::MemoryModel model) {
  std::printf("\n=== model: %s ===\n", std::string(amulet::MemoryModelName(model)).c_str());
  amulet::AftOptions aft;
  aft.model = model;
  auto firmware = amulet::BuildFirmware({{"chaos", kChaosApp}}, aft);
  if (!firmware.ok()) {
    std::printf("build rejected: %s\n", firmware.status().ToString().c_str());
    return;
  }
  std::printf("app region: code=[0x%04x,0x%04x) data/stack=[0x%04x,0x%04x)\n",
              firmware->apps[0].code_lo, firmware->apps[0].code_hi,
              firmware->apps[0].data_lo, firmware->apps[0].data_hi);

  amulet::Machine machine;
  amulet::OsOptions options;
  options.fault_policy = amulet::FaultPolicy::kRestartApp;
  amulet::AmuletOs os(&machine, std::move(*firmware), options);
  if (!os.Boot().ok()) {
    std::printf("boot failed\n");
    return;
  }

  const char* kScenario[] = {
      "wild write BELOW the app (into SRAM)",
      "wild write ABOVE the app",
      "corrupted function pointer",
      "unbounded recursion (stack overflow)",
      "well-behaved array write",
  };
  for (int button = 0; button <= 4; ++button) {
    const size_t faults_before = os.faults().size();
    auto result = os.Deliver(0, amulet::EventType::kButton, static_cast<uint16_t>(button));
    if (!result.ok()) {
      std::printf("  [%d] %-42s -> dispatch error: %s\n", button, kScenario[button],
                  result.status().ToString().c_str());
      continue;
    }
    if (os.faults().size() > faults_before) {
      const amulet::FaultRecord& fault = os.faults().back();
      if (fault.kind == amulet::FaultKind::kCpuCrash) {
        std::printf("  [%d] %-42s -> CPU CRASH (isolation failed; device reset)\n", button,
                    kScenario[button]);
      } else {
        std::printf("  [%d] %-42s -> CAUGHT (%s), app restarted\n", button,
                    kScenario[button],
                    fault.from_mpu ? "MPU hardware fault" : "compiler-inserted check");
      }
      std::printf("        %s\n", fault.description.c_str());
    } else {
      std::printf("  [%d] %-42s -> no fault%s\n", button, kScenario[button],
                  button == 4 ? " (as expected)" : "  <-- UNDETECTED CORRUPTION");
    }
  }
  // Restart markers: one per boot + one per restart.
  int restarts = 0;
  for (const amulet::LogEntry& entry : os.log()) {
    if (entry.tag == 100) {
      ++restarts;
    }
  }
  std::printf("  on_init ran %d time(s) total (1 boot + %d restart(s))\n", restarts,
              restarts - 1);
}

}  // namespace

// Return-address smash: overwrite the saved return address with an address
// *inside the app's own code region*. The bounds-style ret check passes (the
// value is in bounds); the paper-§5 shadow stack catches it.
void DemonstrateReturnHijack(bool shadow) {
  const char* kSmash = R"(
int decoy_ran;
void decoy(void) { decoy_ran = 1; }
void smash(int target, int i) {
  int buf[2];
  buf[0] = 0;
  buf[i] = target;      /* i chosen to land on the saved return address */
}
void on_init(void) { amulet_button_subscribe(); }
void on_button(int id) {
  void (*f)(void) = decoy;
  smash((int)f, id);
}
)";
  // Sweep frame offsets on a fresh device each probe (FRAM keeps stack
  // tailings between dispatches, which makes shared-device sweeps chaotic).
  for (int index = 2; index < 16; ++index) {
    amulet::AftOptions aft;
    aft.model = amulet::MemoryModel::kMpu;
    aft.shadow_return_stack = shadow;
    auto firmware = amulet::BuildFirmware({{"smash", kSmash}}, aft);
    if (!firmware.ok()) {
      std::printf("build failed: %s\n", firmware.status().ToString().c_str());
      return;
    }
    amulet::Machine machine;
    amulet::OsOptions options;
    options.fault_policy = amulet::FaultPolicy::kLogOnly;
    amulet::AmuletOs os(&machine, std::move(*firmware), options);
    if (!os.Boot().ok()) {
      return;
    }
    uint16_t decoy_addr = os.firmware().image.SymbolOrZero("smash_g_decoy_ran");
    auto result = os.Deliver(0, amulet::EventType::kButton, static_cast<uint16_t>(index));
    if (!result.ok()) {
      continue;
    }
    const bool hijacked = machine.bus().PeekWord(decoy_addr) == 1;
    const bool ret_fault =
        !os.faults().empty() && os.faults().back().kind == amulet::FaultKind::kCheckReturn;
    if (shadow && ret_fault && !hijacked) {
      std::printf("  [shadow] hijack CAUGHT before the corrupted return executed: %s\n",
                  os.faults().back().description.c_str());
      return;
    }
    if (!shadow && hijacked) {
      std::printf("  [bounds] control flow HIJACKED: decoy() ran via a smashed return "
                  "address (in-bounds, so the bounds check passed)\n");
      return;
    }
  }
  std::printf("  [%s] no decisive probe in this sweep\n", shadow ? "shadow" : "bounds");
}

int main() {
  std::printf("fault_injection: isolation failure modes under each memory model\n");
  Demonstrate(amulet::MemoryModel::kNoIsolation);
  Demonstrate(amulet::MemoryModel::kSoftwareOnly);
  Demonstrate(amulet::MemoryModel::kMpu);

  std::printf("\n=== return-address smash: MPU bounds check vs InfoMem shadow stack "
              "(paper section 5) ===\n");
  DemonstrateReturnHijack(/*shadow=*/false);
  DemonstrateReturnHijack(/*shadow=*/true);
  std::printf("\n(FeatureLimited is absent by design: this app needs pointers and "
              "recursion, which AmuletC rejects in AFT phase 1.)\n");
  amulet::AftOptions fl;
  fl.model = amulet::MemoryModel::kFeatureLimited;
  auto rejected = amulet::BuildFirmware({{"chaos", kChaosApp}}, fl);
  std::printf("FeatureLimited build says: %s\n", rejected.status().ToString().c_str());
  return 0;
}
