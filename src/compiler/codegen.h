// IR -> MSP430 assembly. Naive but uniform: every vreg lives in a frame
// slot; values pass through r12/r13. The uniformity matters more than speed
// here — all four isolation models compile the same IR through the same
// generator, so measured cycle differences are exactly the inserted checks
// and gate code, not code-generation noise.
//
// ABI (mspgcc-flavoured):
//   r4           frame pointer (callee-saved)
//   r12..r15     first four arguments / return value in r12 / scratch
//   r11          scratch (indirect call targets, check staging)
#ifndef SRC_COMPILER_CODEGEN_H_
#define SRC_COMPILER_CODEGEN_H_

#include <map>
#include <string>

#include "src/common/status.h"
#include "src/compiler/ir.h"

namespace amulet {

struct CodegenOptions {
  std::string text_section = ".text";
  std::string data_section = ".data";
  // Paper §5 / footnote 3 extension: mirror every return address onto a
  // shadow stack in InfoMem (grows up from __shadow_sp) and fault on
  // mismatch at return. Catches *any* return-address corruption, not just
  // out-of-bounds values, at a fixed prologue/epilogue cost.
  bool shadow_ret_stack = false;
  // Peephole value forwarding: skip reloading a vreg whose value is already
  // live in r12/r13 (straight-line only; invalidated at control merges and
  // calls). Purely a cycle optimization; semantics are identical. Off, every
  // vreg is reloaded: the reference ForwardingDifferential compares against.
  bool forward_values = true;
  // Emit MPY32 hardware-multiplier sequences for 16x16 multiplies instead of
  // calling the shift-add __rt_mul routine (the low 16 result bits are
  // sign-agnostic, so one unsigned path serves both).
  bool use_hw_multiplier = false;
};

struct CodegenResult {
  std::string assembly;
  // Function asm-name -> stack bytes consumed per activation (frame + saved
  // FP + return address). AFT phase 1 multiplies through the call graph.
  std::map<std::string, int> stack_bytes;
};

Result<CodegenResult> GenerateAssembly(const IrProgram& program, const CodegenOptions& options);

// Assembly source of the shared runtime routines (__rt_mul, __rt_divu, ...,
// __rt_check_index, __rt_fault_*). Assembled once into the OS text section;
// callable from apps (execute-only under the MPU model, like OS code).
std::string RuntimeAssembly();

// Stack bytes used by the deepest runtime routine (they are leaves).
inline constexpr int kRuntimeStackBytes = 4;

}  // namespace amulet

#endif  // SRC_COMPILER_CODEGEN_H_
