// Mini-toolchain for compiler tests: AmuletC source -> parse -> sema ->
// lower -> phase-2 checks -> codegen -> assemble -> link -> load -> run.
// Standalone harness (no AmuletOS): a startup stub sets SP, calls the app's
// main(), and stops the CPU. The full multi-app pipeline lives in src/aft.
#ifndef TESTS_COMPILE_TEST_UTIL_H_
#define TESTS_COMPILE_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <string>

#include "src/aft/checks.h"
#include "src/aft/opt.h"
#include "src/asm/assembler.h"
#include "src/asm/linker.h"
#include "src/common/status.h"
#include "src/compiler/codegen.h"
#include "src/compiler/lower.h"
#include "src/lang/parser.h"
#include "src/lang/sema.h"
#include "src/mcu/machine.h"

namespace amulet {

struct CompileOutcome {
  Image image;
  Cpu::RunOutcome run;
  FeatureAudit audit;
  CheckStats checks;
};

// Build-configured default for the phase-2.5 check optimizer, so the whole
// test suite exercises whichever pipeline -DAMULET_CHECK_OPT selected.
#if defined(AMULET_CHECK_OPT_DISABLED)
inline constexpr bool kCheckOptDefault = false;
#else
inline constexpr bool kCheckOptDefault = true;
#endif

// Compiles `source` under `model` and runs its main() to completion.
// Data/code bounds for the checked models cover exactly the test layout
// (code [0x4400,0x7000), data+stack [0x7000,0x8800)); the test stack lives
// at the top of the data region so in-app pointers stay in bounds.
// `forward_values` off is codegen's reference path (every vreg reloaded).
inline Result<CompileOutcome> CompileAndRun(Machine* machine, const std::string& source,
                                            MemoryModel model = MemoryModel::kNoIsolation,
                                            uint64_t max_cycles = 2'000'000,
                                            bool optimize_checks = kCheckOptDefault,
                                            bool forward_values = true) {
  CompileOutcome out;
  ASSIGN_OR_RETURN(std::unique_ptr<Program> program, Parse(source, "t"));
  SemaOptions sema_options;
  RETURN_IF_ERROR(Analyze(program.get(), sema_options, &out.audit));
  if (model == MemoryModel::kFeatureLimited &&
      (out.audit.uses_pointers || out.audit.uses_recursion)) {
    return FailedPreconditionError("FeatureLimited rejects pointers/recursion (phase 1)");
  }
  ASSIGN_OR_RETURN(IrProgram ir, LowerProgram(program.get(), "t"));
  ASSIGN_OR_RETURN(out.checks, InsertChecks(&ir, model, BoundSymbolsFor("t")));
  RETURN_IF_ERROR(VerifyIr(ir, /*allow_markers=*/false));
  if (optimize_checks) {
    CheckOptOptions opt;
    opt.frame_safe = !out.audit.uses_recursion && !out.audit.has_indirect_calls;
    ASSIGN_OR_RETURN(CheckOptStats opt_stats, OptimizeChecks(&ir, BoundSymbolsFor("t"), opt));
    out.checks.elided_data_checks = opt_stats.elided_data_checks;
    out.checks.elided_code_checks = opt_stats.elided_code_checks;
    out.checks.elided_index_checks = opt_stats.elided_index_checks;
    out.checks.hoisted_checks = opt_stats.hoisted_checks;
    RETURN_IF_ERROR(VerifyIr(ir, /*allow_markers=*/false));
  }
  CodegenOptions cg{".text", ".data"};
  cg.forward_values = forward_values;
  ASSIGN_OR_RETURN(CodegenResult code, GenerateAssembly(ir, cg));

  const std::string startup =
      "__start:\n"
      "  mov #0x8800, sp\n"   // stack at the top of the app data region
      "  call #t_f_main\n"
      "  mov #4, &0x0710\n"   // kStopMainDone
      "__hang:\n"
      "  jmp __hang\n";

  Linker linker;
  ASSIGN_OR_RETURN(ObjectFile startup_obj, Assemble(startup, "startup.s"));
  linker.AddObject(std::move(startup_obj));
  ASSIGN_OR_RETURN(ObjectFile rt_obj, Assemble(RuntimeAssembly(), "runtime.s"));
  linker.AddObject(std::move(rt_obj));
  ASSIGN_OR_RETURN(ObjectFile app_obj, Assemble(code.assembly, "app.s"));
  linker.AddObject(std::move(app_obj));

  BoundSymbols bounds = BoundSymbolsFor("t");
  linker.DefineAbsolute(bounds.code_lo, 0x4400);
  linker.DefineAbsolute(bounds.code_hi, 0x7000);
  linker.DefineAbsolute(bounds.data_lo, 0x7000);
  linker.DefineAbsolute(bounds.data_hi, 0x8800);

  ASSIGN_OR_RETURN(Image image, linker.Link({{".text", 0x4400}, {".data", 0x7000}}));
  LoadImage(image, &machine->bus());
  machine->bus().PokeWord(kResetVector, image.SymbolOrZero("__start"));
  machine->cpu().Reset();
  out.run = machine->Run(max_cycles);
  out.image = std::move(image);
  return out;
}

// Reads a 16-bit app global after a run.
inline uint16_t GlobalWord(Machine* machine, const Image& image, const std::string& name) {
  uint16_t addr = image.SymbolOrZero("t_g_" + name);
  EXPECT_NE(addr, 0) << "no such global: " << name;
  return machine->bus().PeekWord(addr);
}

}  // namespace amulet

#endif  // TESTS_COMPILE_TEST_UTIL_H_
