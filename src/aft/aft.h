// The Amulet Firmware Toolchain (AFT): analyzes, transforms, and compiles a
// set of applications together with the AmuletOS support code into one
// firmware image, under a selected memory-isolation model.
//
// Four-phase pipeline (paper, Section 3 "AFT Implementation"):
//   Phase 1  feature audit (unsupported features, pointer/recursion usage),
//            memory-access and API-call enumeration, call-graph construction,
//            maximum-stack-depth analysis.
//   Phase 2  model-specific isolation checks inserted at the IR level, with
//            symbolic (placeholder) app bounds.
//   Phase 3  section attributes for the linker, per-app syscall gates and
//            dispatch veneers (stack-pointer switch, MPU reconfiguration).
//   Phase 4  memory layout (per-app code and data/stack regions in high
//            FRAM), bound-symbol resolution, final link.
#ifndef SRC_AFT_AFT_H_
#define SRC_AFT_AFT_H_

#include <array>
#include <map>
#include <string>
#include <vector>

#include "src/aft/checks.h"
#include "src/aft/model.h"
#include "src/asm/linker.h"
#include "src/common/status.h"
#include "src/lang/sema.h"
#include "src/os/api.h"

namespace amulet {

struct AppSource {
  std::string name;    // symbol-safe identifier ([a-z0-9_])
  std::string source;  // AmuletC translation unit (prelude added by the AFT)
};

struct AftOptions {
  MemoryModel model = MemoryModel::kMpu;
  // Ablation: the design the paper rejected — one shared stack zeroed on
  // every app switch instead of per-app stacks.
  bool zero_shared_stack = false;
  // Stack bytes reserved when recursion/indirect calls defeat the static
  // analysis (the paper: "the AFT cannot guarantee a large enough stack").
  // Generous because the uniform code generator spills every temporary:
  // frames run 100-200 bytes, so even log-depth recursion needs room.
  int recursion_stack_bytes = 2048;
  // Ablation of the paper's Section-5 vision: a hypothetical MPU with 4+
  // segments covering all of memory. No compiler checks are inserted and the
  // gates skip MPU reprogramming (isolation would be free in hardware); the
  // per-app stack design is kept. Only meaningful with model == kMpu.
  bool future_mpu = false;
  // Use the MPY32 hardware multiplier for 16x16 multiplies instead of the
  // software shift-add routine (the FR5969 has the peripheral; the original
  // toolchain used it through compiler intrinsics).
  bool use_hw_multiplier = false;
  // Paper §5 / footnote 3 extension: keep a shadow return-address stack in
  // InfoMem. Every compiled function mirrors its return address at entry and
  // verifies it at exit (fault on mismatch). Replaces the bounds-style
  // return-address checks of phase 2 with strictly stronger protection.
  bool shadow_return_stack = false;
  // Phase 2.5: CFG/dominator/range analysis that deletes provably-redundant
  // bound checks and hoists loop-invariant header checks (src/aft/opt.h).
  // Trap-for-trap equivalent to the unoptimized pipeline. On by default;
  // `amuletc build/fleet --no-check-opt` and -DAMULET_CHECK_OPT=OFF flip it
  // for the smart-software-baseline ablation.
#if defined(AMULET_CHECK_OPT_DISABLED)
  bool optimize_checks = false;
#else
  bool optimize_checks = true;
#endif
  // Run the structural IR verifier after every phase (cheap; catches pass
  // bugs at compile time instead of as silent miscompiles).
  bool verify_ir = true;
};

// Per-app results of the build.
struct AppImage {
  std::string name;
  FeatureAudit audit;
  CheckStats checks;

  // Region addresses (16-byte aligned; Figure 1 of the paper).
  uint16_t code_lo = 0;
  uint16_t code_hi = 0;
  uint16_t data_lo = 0;   // == D_i: stack bottom; also the MPU B1 while running
  uint16_t data_hi = 0;   // == MPU B2 while running
  uint16_t stack_top = 0; // initial SP for dispatches (stack grows DOWN to data_lo)
  int stack_bytes = 0;
  bool stack_statically_bounded = false;

  // Resolved event-handler entry addresses (0 = handler not defined).
  std::array<uint16_t, static_cast<size_t>(EventType::kCount)> handlers{};

  // MPU register values while this app runs.
  uint16_t mpu_segb1 = 0;
  uint16_t mpu_segb2 = 0;
  uint16_t mpu_sam = 0;

  uint16_t dispatch_addr = 0;  // __dispatch_<app> veneer
};

struct Firmware {
  MemoryModel model = MemoryModel::kNoIsolation;
  Image image;
  std::vector<AppImage> apps;
  bool shadow_return_stack = false;

  uint16_t os_stack_top = 0;   // SRAM top (shared / OS stack)
  uint16_t nmi_handler = 0;    // __os_nmi veneer address
  uint16_t idle_addr = 0;      // reset target (host-driven; idles)
  // MPU register values while the OS runs.
  uint16_t os_mpu_segb1 = 0;
  uint16_t os_mpu_segb2 = 0;
  uint16_t os_mpu_sam = 0;

  const AppImage* FindApp(const std::string& name) const {
    for (const AppImage& app : apps) {
      if (app.name == name) {
        return &app;
      }
    }
    return nullptr;
  }
};

// Builds the firmware. App names must be unique, non-empty, symbol-safe.
Result<Firmware> BuildFirmware(const std::vector<AppSource>& apps, const AftOptions& options);

// Per-phase artifacts of one app (the toolchain tour, `amuletc --dump-ir`).
// TraceAppBuild runs the app through BuildFirmware's own per-app pipeline,
// with the same options and the same rejections (app name, FeatureLimited
// pointers and recursion), so the artifacts are those of the built image.
struct AftTrace {
  std::string prelude_source;
  FeatureAudit audit;
  std::string ir_before_checks;
  std::string ir_after_checks;
  std::string ir_after_opt;  // empty when the check optimizer is disabled
  std::string assembly;
  CheckStats checks;
};
Result<AftTrace> TraceAppBuild(const AppSource& app, const AftOptions& options);
Result<AftTrace> TraceAppBuild(const AppSource& app, MemoryModel model);

}  // namespace amulet

#endif  // SRC_AFT_AFT_H_
