#include "src/compiler/codegen.h"

#include <algorithm>
#include <iterator>
#include <vector>

#include "src/common/strings.h"
#include "src/mcu/hostio.h"
#include "src/mcu/memory_map.h"
#include "src/mcu/multiplier.h"
#include "src/scope/region_map.h"

namespace amulet {

namespace {

// How each binary operator is emitted: inline on r12 (r12:r13 for 4-byte
// operands, the high word taking the carry-propagating form), or as a call
// to a shared runtime routine, one per operand width. Rows in IrBin order.
struct BinLowering {
  IrBin bin;
  const char* op;       // low-word instruction; nullptr: call a routine
  const char* op_high;  // high-word instruction of a 4-byte operation
  const char* routine;       // 2-byte operands: r12 op r13 -> r12
  const char* routine_pair;  // 4-byte operands: r12:r13 op r14:r15 -> r12:r13
};

constexpr BinLowering kBinLowerings[] = {
    {IrBin::kAdd, "add", "addc", nullptr, nullptr},
    {IrBin::kSub, "sub", "subc", nullptr, nullptr},
    {IrBin::kAnd, "and", "and", nullptr, nullptr},
    {IrBin::kOr, "bis", "bis", nullptr, nullptr},
    {IrBin::kXor, "xor", "xor", nullptr, nullptr},
    {IrBin::kShl, nullptr, nullptr, "__rt_shl", "__rt_shl32"},
    {IrBin::kShr, nullptr, nullptr, "__rt_shr", "__rt_shr32"},
    {IrBin::kSar, nullptr, nullptr, "__rt_sar", "__rt_sar32"},
    {IrBin::kMul, nullptr, nullptr, "__rt_mul", "__rt_mul32"},
    {IrBin::kDivS, nullptr, nullptr, "__rt_divs", "__rt_divs32"},
    {IrBin::kDivU, nullptr, nullptr, "__rt_divu", "__rt_divu32"},
    {IrBin::kModS, nullptr, nullptr, "__rt_mods", "__rt_mods32"},
    {IrBin::kModU, nullptr, nullptr, "__rt_modu", "__rt_modu32"},
};

constexpr bool BinRowsInEnumOrder() {
  for (size_t i = 0; i < std::size(kBinLowerings); ++i) {
    if (static_cast<size_t>(kBinLowerings[i].bin) != i) {
      return false;
    }
  }
  return static_cast<size_t>(IrBin::kModU) + 1 == std::size(kBinLowerings);
}
static_assert(BinRowsInEnumOrder(), "kBinLowerings needs one row per IrBin, in enum order");

// A load/store's memory operand, one operand per word, and the register the
// value travels in.
struct MemOperand {
  std::string word[2];
  int value_reg = 12;
};

class FunctionCodegen {
 public:
  FunctionCodegen(const IrFunction& fn, const CodegenOptions& options,
                  std::string gate_prefix, std::string* out)
      : fn_(fn),
        gate_prefix_(std::move(gate_prefix)),
        shadow_ret_stack_(options.shadow_ret_stack),
        forward_values_(options.forward_values),
        use_hw_multiplier_(options.use_hw_multiplier),
        out_(out) {}

  Result<int> Run();  // returns stack bytes per activation

 private:
  void Line(const std::string& text) {
    out_->append("  ");
    out_->append(text);
    out_->push_back('\n');
  }
  void Label(const std::string& name) {
    out_->append(name);
    out_->append(":\n");
  }
  std::string LocalLabel(int id) const {
    return StrFormat("%s_L%d", fn_.name.c_str(), id);
  }
  std::string UniqueLabel() { return StrFormat("%s_T%d", fn_.name.c_str(), temp_label_++); }

  // Paired zero-size labels bracketing compiler-inserted check sequences.
  // The scope profiler (src/scope/region_map.h) parses them back out of the
  // image's symbol table to attribute cycles; they assemble to no bytes, so
  // the generated code is bit-identical whether or not anyone is profiling.
  std::string ScopeBegin(RegionTag tag) {
    std::string id = StrFormat("%s_S%d", fn_.name.c_str(), scope_id_++);
    Label(ScopeLabel(ScopeEdge::kBegin, tag, id));
    return id;
  }
  void ScopeEnd(RegionTag tag, const std::string& id) {
    Label(ScopeLabel(ScopeEdge::kEnd, tag, id));
  }

  // Frame slot addressing: "-6(r4)".
  std::string Slot(int offset) const { return StrFormat("%d(r4)", offset); }
  int VregWidth(int vr) const { return fn_.vreg_width[vr]; }
  int Words(int vr) const { return VregWidth(vr) / 2; }
  // Word `half` of vr's frame slot (1: the high word of a 4-byte vreg).
  std::string Word(int vr, int half = 0) const {
    return Slot(vreg_offsets_[vr] + 2 * half);
  }
  int LocalOffset(int slot) const { return local_offsets_[slot]; }

  // Value movement. Every vreg lives in its frame slot and travels through
  // r12, or the r12(lo):r13(hi) pair when it is 4 bytes wide. Load and Store
  // are the movers, and with LoadWord they own the forwarding cache: which
  // 16-bit vreg r12 and r13 hold, so a reload can be skipped. The cache is
  // valid along straight-line code only; Run() forgets it at every label,
  // jump, branch and call, and EmitCall after the call.
  int* Holds(int reg) { return reg == 12 || reg == 13 ? &holds_[reg - 12] : nullptr; }
  // `reg` now holds word 0 of a 16-bit `vr`, or an untracked word of a
  // 4-byte one.
  void Track(int reg, int vr) {
    if (int* holds = Holds(reg)) {
      *holds = VregWidth(vr) == 2 ? vr : -1;
    }
  }
  // vr's slot was rewritten: a register still caching its old value is stale.
  void Forget(int vr) {
    for (int& holds : holds_) {
      if (holds == vr) {
        holds = -1;
      }
    }
  }
  void ForgetAll() { holds_[0] = holds_[1] = -1; }
  // Moves word `half` of vr into `reg`; skipped when forwarding knows the
  // register already holds vr.
  void LoadWord(int vr, int half, int reg) {
    const int* holds = Holds(reg);
    if (forward_values_ && holds != nullptr && *holds == vr) {
      return;
    }
    Line(StrFormat("mov %s, r%d", Word(vr, half).c_str(), reg));
    Track(reg, vr);
  }
  // Loads vr into `reg`, or into reg:reg+1 when vr is 4 bytes wide.
  void Load(int vr, int reg = 12) {
    for (int half = 0; half < Words(vr); ++half) {
      LoadWord(vr, half, reg + half);
    }
  }
  // Stores r12 (r12:r13) into vr's slot.
  void Store(int vr) {
    Forget(vr);
    for (int half = 0; half < Words(vr); ++half) {
      Line(StrFormat("mov r%d, %s", 12 + half, Word(vr, half).c_str()));
      Track(12 + half, vr);
    }
  }
  // Stages address vreg `vr` in r11 unless the previous check or access left
  // it there. Run() and EmitCall forget the staged address where they forget
  // the forwarding cache.
  void StageAddress(int vr) {
    if (last_check_vr_ != vr) {
      Load(vr, 11);
      last_check_vr_ = vr;
    }
  }

  // Condition-code mapping after "cmp b, a" (flags = a - b).
  struct JumpSpec {
    const char* insn;
    bool swap;  // emit cmp a, b instead (canonicalize Gt/Le)
  };
  static JumpSpec JumpFor(IrRel rel) {
    switch (rel) {
      case IrRel::kEq: return {"jeq", false};
      case IrRel::kNe: return {"jne", false};
      case IrRel::kLtS: return {"jl", false};
      case IrRel::kGeS: return {"jge", false};
      case IrRel::kLtU: return {"jlo", false};
      case IrRel::kGeU: return {"jhs", false};
      case IrRel::kGtS: return {"jl", true};    // a > b  ==  b < a
      case IrRel::kLeS: return {"jge", true};   // a <= b ==  b >= a
      case IrRel::kGtU: return {"jlo", true};
      case IrRel::kLeU: return {"jhs", true};
    }
    return {"jeq", false};
  }
  static IrRel Inverse(IrRel rel) {
    switch (rel) {
      case IrRel::kEq: return IrRel::kNe;
      case IrRel::kNe: return IrRel::kEq;
      case IrRel::kLtS: return IrRel::kGeS;
      case IrRel::kGeS: return IrRel::kLtS;
      case IrRel::kLtU: return IrRel::kGeU;
      case IrRel::kGeU: return IrRel::kLtU;
      case IrRel::kGtS: return IrRel::kLeS;
      case IrRel::kLeS: return IrRel::kGtS;
      case IrRel::kGtU: return IrRel::kLeU;
      case IrRel::kLeU: return IrRel::kGtU;
    }
    return IrRel::kNe;
  }

  void EmitCompare(const IrInst& cmp, IrRel rel, const std::string& target);
  void EmitCompare32(const IrInst& cmp, IrRel rel, const std::string& target);
  Status EmitCall(const std::string& target, const std::vector<int>& args, int dst);
  MemOperand StageMemory(const IrInst& inst, bool load);
  Status EmitInst(size_t index, bool* consumed_next);
  void EmitEpilogue();

  const IrFunction& fn_;
  std::string gate_prefix_;  // "__gate_<app>_": per-app syscall gates
  bool shadow_ret_stack_ = false;
  bool forward_values_ = true;
  bool use_hw_multiplier_ = false;
  std::string* out_;
  std::vector<int> local_offsets_;
  std::vector<int> vreg_offsets_;
  int frame_size_ = 0;
  int temp_label_ = 0;
  int scope_id_ = 0;
  int last_check_vr_ = -1;  // address vreg currently staged in r11
  int holds_[2] = {-1, -1};  // vreg cached in r12, r13 (-1: none)
  std::string epilogue_label_;
};

void FunctionCodegen::EmitCompare(const IrInst& cmp, IrRel rel, const std::string& target) {
  if (cmp.width == 4) {
    EmitCompare32(cmp, rel, target);
    return;
  }
  JumpSpec spec = JumpFor(rel);
  int lhs = cmp.a;
  int rhs = cmp.b;
  if (spec.swap) {
    std::swap(lhs, rhs);
  }
  Load(lhs);
  Line(StrFormat("cmp %s, r12", Word(rhs).c_str()));
  Line(StrFormat("%s %s", spec.insn, target.c_str()));
}

// 32-bit comparison: decide on the high words when they differ (signedness
// applies there), otherwise on an unsigned comparison of the low words.
void FunctionCodegen::EmitCompare32(const IrInst& cmp, IrRel rel, const std::string& target) {
  // Canonicalize Gt/Le into Lt/Ge with swapped operands.
  int lhs = cmp.a;
  int rhs = cmp.b;
  switch (rel) {
    case IrRel::kGtS: rel = IrRel::kLtS; std::swap(lhs, rhs); break;
    case IrRel::kLeS: rel = IrRel::kGeS; std::swap(lhs, rhs); break;
    case IrRel::kGtU: rel = IrRel::kLtU; std::swap(lhs, rhs); break;
    case IrRel::kLeU: rel = IrRel::kGeU; std::swap(lhs, rhs); break;
    default: break;
  }
  const char* low_jump = nullptr;   // unsigned low-word decision
  const char* high_jump = nullptr;  // high-word decision when highs differ
  switch (rel) {
    case IrRel::kEq:  low_jump = "jeq"; high_jump = nullptr; break;  // differ -> false
    case IrRel::kNe:  low_jump = "jne"; high_jump = "jmp"; break;    // differ -> true
    case IrRel::kLtS: low_jump = "jlo"; high_jump = "jl"; break;
    case IrRel::kGeS: low_jump = "jhs"; high_jump = "jge"; break;
    case IrRel::kLtU: low_jump = "jlo"; high_jump = "jlo"; break;
    case IrRel::kGeU: low_jump = "jhs"; high_jump = "jhs"; break;
    default: low_jump = "jeq"; high_jump = nullptr; break;
  }
  std::string high_differs = UniqueLabel();
  std::string done = UniqueLabel();
  LoadWord(lhs, 1, 13);
  Line(StrFormat("cmp %s, r13", Word(rhs, 1).c_str()));
  Line(StrFormat("jne %s", high_differs.c_str()));
  LoadWord(lhs, 0, 12);
  Line(StrFormat("cmp %s, r12", Word(rhs).c_str()));
  Line(StrFormat("%s %s", low_jump, target.c_str()));
  Line(StrFormat("jmp %s", done.c_str()));
  Label(high_differs);
  if (high_jump != nullptr) {
    Line(StrFormat("%s %s", high_jump, target.c_str()));
  }
  Label(done);
}

// Calls `target` ("#symbol" or "r11") with `args` in r12..r15, a 4-byte
// argument taking two registers, and stores the r12 (r12:r13) result into
// `dst` unless it is -1. The callee may clobber r11-r15 (the runtime
// routines use r11 as scratch), so the staged address and the forwarding
// cache start over after the call.
Status FunctionCodegen::EmitCall(const std::string& target, const std::vector<int>& args,
                                 int dst) {
  int reg = 12;
  for (int arg : args) {
    if (reg + Words(arg) > 16) {
      return InternalError("call arguments exceed 4 register words in codegen");
    }
    Load(arg, reg);
    reg += Words(arg);
  }
  Line("call " + target);
  last_check_vr_ = -1;
  ForgetAll();
  if (dst >= 0) {
    Store(dst);
  }
  return OkStatus();
}

// Resolves a load/store's memory operand, staging a computed address: a
// 4-byte access goes through r11 (kept across the checks of the same
// address), a narrower one through r12, which moves a stored value to r13.
// A load reads the first word with the shorter indirect form (@Rn); a store
// needs the indexed one (0(Rn)).
MemOperand FunctionCodegen::StageMemory(const IrInst& inst, bool load) {
  MemOperand mem;
  switch (inst.op) {
    case IrOp::kLoadLocal:
    case IrOp::kStoreLocal: {
      const int off = LocalOffset(inst.a) + inst.imm;
      mem.word[0] = Slot(off);
      mem.word[1] = Slot(off + 2);
      break;
    }
    case IrOp::kLoadGlobal:
    case IrOp::kStoreGlobal: {
      const char* symbol = inst.symbol.c_str();
      mem.word[0] = inst.imm != 0 ? StrFormat("&%s + %d", symbol, inst.imm)
                                  : StrFormat("&%s", symbol);
      mem.word[1] = StrFormat("&%s + %d", symbol, inst.imm + 2);
      break;
    }
    default:  // kLoad / kStore: the address is vreg a
      if (inst.width == 4) {
        StageAddress(inst.a);
        mem.word[0] = load ? "@r11" : "0(r11)";
        mem.word[1] = "2(r11)";
      } else {
        Load(inst.a);
        mem.word[0] = load ? "@r12" : "0(r12)";
        mem.value_reg = load ? 12 : 13;
      }
      break;
  }
  return mem;
}

Status FunctionCodegen::EmitInst(size_t index, bool* consumed_next) {
  const IrInst& inst = fn_.insts[index];
  *consumed_next = false;
  switch (inst.op) {
    case IrOp::kConst:
      if (inst.width == 4) {
        Line(StrFormat("mov #%d, %s", static_cast<int16_t>(inst.imm & 0xFFFF),
                       Word(inst.dst).c_str()));
        Line(StrFormat("mov #%d, %s",
                       static_cast<int16_t>((static_cast<uint32_t>(inst.imm) >> 16) & 0xFFFF),
                       Word(inst.dst, 1).c_str()));
      } else {
        Line(StrFormat("mov #%d, %s", inst.imm, Word(inst.dst).c_str()));
      }
      Forget(inst.dst);
      return OkStatus();

    case IrOp::kCopy:
      Load(inst.a);
      Store(inst.dst);
      return OkStatus();

    case IrOp::kBin: {
      if (inst.bin == IrBin::kMul && use_hw_multiplier_ && inst.width == 2) {
        // Low 16 bits of a 16x16 product are sign-agnostic: the unsigned
        // MPY path serves signed multiplies too.
        Line(StrFormat("mov %s, &%d", Word(inst.a).c_str(), kMpyRegBase + kMpyOp1Unsigned));
        Line(StrFormat("mov %s, &%d", Word(inst.b).c_str(), kMpyRegBase + kMpyOp2));
        Line(StrFormat("mov &%d, r12", kMpyRegBase + kMpyResLo));
        Store(inst.dst);
        return OkStatus();
      }
      if (static_cast<size_t>(inst.bin) >= std::size(kBinLowerings)) {
        return InternalError("unhandled IR binary op");
      }
      const BinLowering& lowering = kBinLowerings[static_cast<size_t>(inst.bin)];
      if (lowering.op == nullptr) {
        return EmitCall(std::string("#") +
                            (inst.width == 4 ? lowering.routine_pair : lowering.routine),
                        {inst.a, inst.b}, inst.dst);
      }
      Load(inst.a);
      for (int half = 0; half < Words(inst.a); ++half) {
        Line(StrFormat("%s %s, r%d", half == 0 ? lowering.op : lowering.op_high,
                       Word(inst.b, half).c_str(), 12 + half));
      }
      Store(inst.dst);
      return OkStatus();
    }

    case IrOp::kShiftImm: {
      Load(inst.a);
      const int top = Words(inst.a) - 1;  // r12 + top holds the most significant word
      for (int i = 0; i < inst.imm; ++i) {
        if (inst.bin == IrBin::kShl) {
          // Low word first: the carry moves up.
          for (int half = 0; half <= top; ++half) {
            Line(StrFormat("%s r%d", half == 0 ? "rla" : "rlc", 12 + half));
          }
          continue;
        }
        // High word first: the carry moves down. kShr shifts a 0 in, kSar
        // the sign bit.
        if (inst.bin != IrBin::kSar) {
          Line("clrc");
        }
        for (int half = top; half >= 0; --half) {
          Line(StrFormat("%s r%d", half == top && inst.bin == IrBin::kSar ? "rra" : "rrc",
                         12 + half));
        }
      }
      Store(inst.dst);
      return OkStatus();
    }

    case IrOp::kCmp: {
      // Fuse with an immediately following branch on this result.
      if (index + 1 < fn_.insts.size()) {
        const IrInst& next = fn_.insts[index + 1];
        if ((next.op == IrOp::kBranchNonZero || next.op == IrOp::kBranchZero) &&
            next.a == inst.dst) {
          IrRel rel = next.op == IrOp::kBranchNonZero ? inst.rel : Inverse(inst.rel);
          EmitCompare(inst, rel, LocalLabel(next.imm));
          *consumed_next = true;
          return OkStatus();
        }
      }
      // Materialize 0/1.
      if (inst.width == 4) {
        std::string take32 = UniqueLabel();
        std::string end32 = UniqueLabel();
        EmitCompare32(inst, inst.rel, take32);
        Line("mov #0, r12");
        Line(StrFormat("jmp %s", end32.c_str()));
        Label(take32);
        Line("mov #1, r12");
        Label(end32);
        Store(inst.dst);
        return OkStatus();
      }
      std::string take = UniqueLabel();
      JumpSpec spec = JumpFor(inst.rel);
      int lhs = inst.a;
      int rhs = inst.b;
      if (spec.swap) {
        std::swap(lhs, rhs);
      }
      Load(lhs);
      Line(StrFormat("cmp %s, r12", Word(rhs).c_str()));
      Line("mov #1, r12");
      Line(StrFormat("%s %s", spec.insn, take.c_str()));
      Line("mov #0, r12");
      Label(take);
      Store(inst.dst);
      return OkStatus();
    }

    case IrOp::kNeg:
    case IrOp::kNot:
      Load(inst.a);
      for (int half = 0; half < Words(inst.a); ++half) {
        Line(StrFormat("inv r%d", 12 + half));
      }
      if (inst.op == IrOp::kNeg) {
        // Two's complement: add one, carrying into the high word.
        for (int half = 0; half < Words(inst.a); ++half) {
          Line(StrFormat("%s r%d", half == 0 ? "inc" : "adc", 12 + half));
        }
      }
      Store(inst.dst);
      return OkStatus();

    case IrOp::kLoadLocal:
    case IrOp::kLoadGlobal:
    case IrOp::kLoad: {
      const MemOperand mem = StageMemory(inst, /*load=*/true);
      for (int half = 0; half < (inst.width + 1) / 2; ++half) {
        Line(StrFormat("mov%s %s, r%d", inst.width == 1 ? ".b" : "", mem.word[half].c_str(),
                       12 + half));
      }
      if (inst.width == 1 && inst.signed_load) {
        Line("sxt r12");
      }
      Store(inst.dst);
      return OkStatus();
    }

    case IrOp::kStoreLocal:
    case IrOp::kStoreGlobal:
    case IrOp::kStore: {
      const MemOperand mem = StageMemory(inst, /*load=*/false);
      Load(inst.b, mem.value_reg);
      for (int half = 0; half < (inst.width + 1) / 2; ++half) {
        Line(StrFormat("mov%s r%d, %s", inst.width == 1 ? ".b" : "", mem.value_reg + half,
                       mem.word[half].c_str()));
      }
      return OkStatus();
    }

    case IrOp::kAddrLocal: {
      int off = LocalOffset(inst.a) + inst.imm;
      Line("mov r4, r12");
      if (off != 0) {
        Line(StrFormat("add #%d, r12", off));
      }
      Store(inst.dst);
      return OkStatus();
    }

    case IrOp::kAddrGlobal: {
      if (inst.imm != 0) {
        Line(StrFormat("mov #%s + %d, %s", inst.symbol.c_str(), inst.imm,
                       Word(inst.dst).c_str()));
      } else {
        Line(StrFormat("mov #%s, %s", inst.symbol.c_str(), Word(inst.dst).c_str()));
      }
      Forget(inst.dst);
      return OkStatus();
    }

    case IrOp::kCall:
      return EmitCall("#" + inst.symbol, inst.args, inst.dst);

    case IrOp::kCallApi:
      return EmitCall("#" + gate_prefix_ + inst.symbol, inst.args, inst.dst);

    case IrOp::kCallInd:
      Load(inst.a, 11);
      return EmitCall("r11", inst.args, inst.dst);

    case IrOp::kRet:
      if (inst.a >= 0) {
        Load(inst.a);
      }
      // Fall to the shared epilogue (last kRet elides the jump).
      if (index + 1 < fn_.insts.size()) {
        Line(StrFormat("jmp %s", epilogue_label_.c_str()));
      }
      return OkStatus();

    case IrOp::kJump:
      Line(StrFormat("jmp %s", LocalLabel(inst.imm).c_str()));
      return OkStatus();

    case IrOp::kBranchZero:
    case IrOp::kBranchNonZero:
      Load(inst.a);
      for (int half = 1; half < Words(inst.a); ++half) {
        Line(StrFormat("bis r%d, r12", 12 + half));
      }
      Line("tst r12");
      Line(StrFormat("%s %s", inst.op == IrOp::kBranchZero ? "jz" : "jnz",
                     LocalLabel(inst.imm).c_str()));
      return OkStatus();

    case IrOp::kLabel:
      Label(LocalLabel(inst.imm));
      return OkStatus();

    case IrOp::kCheckMarker:
      return InternalError(
          "kCheckMarker reached codegen: run AFT phase 2 (InsertChecks) first");

    case IrOp::kWiden: {
      Load(inst.a);
      if (inst.signed_load) {
        // Branch-free sign extension: C = sign bit, then r13 = C ? 0xFFFF : 0
        // inverted (see the subc identity).
        Line("mov r12, r13");
        Line("rla r13");
        Line("subc r13, r13");
        Line("inv r13");
      } else {
        Line("clr r13");
      }
      Store(inst.dst);
      return OkStatus();
    }

    case IrOp::kNarrow:
      LoadWord(inst.a, 0, 12);  // the low word is the 16-bit value
      Store(inst.dst);
      return OkStatus();

    case IrOp::kCheckLow:
    case IrOp::kCheckHigh: {
      // Keep r11 loaded across consecutive checks of the same address.
      const bool low = inst.op == IrOp::kCheckLow;
      const RegionTag tag = low ? RegionTag::kCheckLow : RegionTag::kCheckHigh;
      std::string ok = UniqueLabel();
      std::string scope = ScopeBegin(tag);
      StageAddress(inst.a);
      Line(StrFormat("cmp #%s, r11", inst.symbol.c_str()));
      Line(StrFormat("%s %s", low ? "jhs" : "jlo", ok.c_str()));
      Line("call #__rt_fault_mem");
      Label(ok);
      ScopeEnd(tag, scope);
      return OkStatus();
    }

    case IrOp::kCheckIndex: {
      // The feature-limited model's routine-call bounds check (mirrors the
      // original AmuletC implementation, which is why Table 1 shows it as
      // the slowest per-access scheme). The routine leaves r12/r13 alone.
      std::string scope = ScopeBegin(RegionTag::kCheckIndex);
      Load(inst.a, 14);
      Line(StrFormat("mov #%d, r15", inst.imm));
      Line("call #__rt_check_index");
      ScopeEnd(RegionTag::kCheckIndex, scope);
      return OkStatus();
    }
  }
  return InternalError("unhandled IR instruction");
}

void FunctionCodegen::EmitEpilogue() {
  Label(epilogue_label_);
  Line("mov r4, sp");
  Line("pop r4");
  if (shadow_ret_stack_) {
    // Pop the shadow copy and verify it matches the architectural return
    // address; any corruption (overflow, targeted overwrite) faults.
    std::string ok = UniqueLabel();
    std::string scope = ScopeBegin(RegionTag::kCheckRet);
    Line("mov &__shadow_sp, r11");
    Line("decd r11");
    Line("mov r11, &__shadow_sp");
    Line("mov @r11, r11");
    Line("cmp @sp, r11");
    Line(StrFormat("jeq %s", ok.c_str()));
    Line("call #__rt_fault_ret");
    Label(ok);
    ScopeEnd(RegionTag::kCheckRet, scope);
  }
  if (fn_.ret_check != RetCheckKind::kNone) {
    std::string ok1 = UniqueLabel();
    std::string scope = ScopeBegin(RegionTag::kCheckRet);
    Line("mov @sp, r11");
    Line(StrFormat("cmp #%s, r11", fn_.ret_check_low_sym.c_str()));
    Line(StrFormat("jhs %s", ok1.c_str()));
    Line("call #__rt_fault_ret");
    Label(ok1);
    if (fn_.ret_check == RetCheckKind::kLowHigh) {
      std::string ok2 = UniqueLabel();
      Line(StrFormat("cmp #%s, r11", fn_.ret_check_high_sym.c_str()));
      Line(StrFormat("jlo %s", ok2.c_str()));
      Line("call #__rt_fault_ret");
      Label(ok2);
    }
    ScopeEnd(RegionTag::kCheckRet, scope);
  }
  Line("ret");
}

Result<int> FunctionCodegen::Run() {
  // Frame layout: locals first (below FP), then the vreg slots (one or two
  // words each, per vreg_width).
  int offset = 0;
  local_offsets_.resize(fn_.locals.size());
  for (size_t i = 0; i < fn_.locals.size(); ++i) {
    int size = (fn_.locals[i].size + 1) & ~1;
    offset -= size;
    local_offsets_[i] = offset;
  }
  vreg_offsets_.resize(fn_.num_vregs);
  for (int vr = 0; vr < fn_.num_vregs; ++vr) {
    offset -= VregWidth(vr);
    vreg_offsets_[vr] = offset;
  }
  frame_size_ = -offset;

  epilogue_label_ = fn_.name + "_epilogue";

  Label(fn_.name);
  Line("push r4");
  Line("mov sp, r4");
  if (shadow_ret_stack_) {
    // Mirror the return address (now at FP+2) onto the InfoMem shadow stack.
    std::string scope = ScopeBegin(RegionTag::kCheckRet);
    Line("mov &__shadow_sp, r11");
    Line("mov 2(r4), 0(r11)");
    Line("incd r11");
    Line("mov r11, &__shadow_sp");
    ScopeEnd(RegionTag::kCheckRet, scope);
  }
  if (frame_size_ > 0) {
    Line(StrFormat("sub #%d, sp", frame_size_));
  }
  // Park incoming register arguments (r12..r15) in their parameter slots; a
  // long parameter arrives in two consecutive registers (lo then hi).
  std::vector<std::pair<int, size_t>> params;  // (param_index, slot)
  for (size_t i = 0; i < fn_.locals.size(); ++i) {
    if (fn_.locals[i].is_param && fn_.locals[i].param_index >= 0) {
      params.push_back({fn_.locals[i].param_index, i});
    }
  }
  std::sort(params.begin(), params.end());
  int park_cursor = 0;
  for (const auto& [param_index, slot_index] : params) {
    const LocalSlot& slot = fn_.locals[slot_index];
    const int words = slot.size >= 4 ? 2 : 1;
    if (park_cursor + words > 4) {
      break;  // lowering rejects this; defensive only
    }
    for (int half = 0; half < words; ++half) {
      Line(StrFormat("mov r%d, %s", 12 + park_cursor + half,
                     Slot(local_offsets_[slot_index] + 2 * half).c_str()));
    }
    park_cursor += words;
  }

  for (size_t i = 0; i < fn_.insts.size(); ++i) {
    // Any label / branch / call boundary forgets the staged check address
    // and the forwarding cache.
    const IrOp op = fn_.insts[i].op;
    if (op == IrOp::kLabel || op == IrOp::kJump || op == IrOp::kBranchZero ||
        op == IrOp::kBranchNonZero || op == IrOp::kCall || op == IrOp::kCallApi ||
        op == IrOp::kCallInd) {
      last_check_vr_ = -1;
      ForgetAll();
    }
    bool consumed_next = false;
    RETURN_IF_ERROR(EmitInst(i, &consumed_next));
    if (consumed_next) {
      ++i;
    }
  }
  EmitEpilogue();
  // Activation cost: frame + pushed FP + return address.
  return frame_size_ + 4;
}

}  // namespace

Result<CodegenResult> GenerateAssembly(const IrProgram& program, const CodegenOptions& options) {
  CodegenResult result;
  std::string& out = result.assembly;
  out += StrFormat("; ---- app '%s' (generated) ----\n", program.app_name.c_str());
  out += StrFormat(".section %s\n", options.text_section.c_str());
  const std::string gate_prefix = "__gate_" + program.app_name + "_";
  for (const IrFunction& fn : program.functions) {
    FunctionCodegen gen(fn, options, gate_prefix, &out);
    ASSIGN_OR_RETURN(int stack_bytes, gen.Run());
    result.stack_bytes[fn.name] = stack_bytes;
  }
  out += StrFormat(".section %s\n", options.data_section.c_str());
  for (const auto& blob : program.globals) {
    out += ".align\n";
    out += blob.symbol + ":\n";
    // Emit bytes, substituting relocated words with .word symbol.
    std::map<int, std::string> reloc_at;
    for (const auto& r : blob.relocs) {
      reloc_at[r.offset] = r.symbol;
    }
    size_t i = 0;
    while (i < blob.bytes.size()) {
      auto it = reloc_at.find(static_cast<int>(i));
      if (it != reloc_at.end()) {
        out += StrFormat("  .word %s\n", it->second.c_str());
        i += 2;
        continue;
      }
      out += StrFormat("  .byte %d\n", blob.bytes[i]);
      ++i;
    }
    if (blob.bytes.empty()) {
      out += "  .space 2\n";
    }
  }
  for (size_t i = 0; i < program.strings.size(); ++i) {
    out += ".align\n";
    out += StrFormat("%s_s_%zu:\n", program.app_name.c_str(), i);
    for (char c : program.strings[i]) {
      out += StrFormat("  .byte %d\n", static_cast<uint8_t>(c));
    }
    out += "  .byte 0\n";
  }
  return result;
}

std::string RuntimeAssembly() {
  std::string out;
  out += StrFormat(".equ __HOSTIO_FAULTCODE, %d\n", kHostIoRegBase + kHostIoFaultCode);
  out += StrFormat(".equ __HOSTIO_FAULTADDR, %d\n", kHostIoRegBase + kHostIoFaultAddr);
  out += StrFormat(".equ __HOSTIO_STOP, %d\n", kHostIoRegBase + kHostIoStop);
  out += StrFormat(".equ __STOP_SW_FAULT, %d\n", kStopSoftwareFault);
  out += R"(
; ---- shared compiler runtime (lives in OS text) ----
; The __scope_* labels assemble to zero bytes; they let the cycle profiler
; attribute runtime-helper cycles to "runtime" (and the feature-limited bounds
; routine to "check-index") instead of lumping them in with OS code.
)";
  out += ScopeLabel(ScopeEdge::kBegin, RegionTag::kRuntime, "rtlib") + ":\n";
  out += R"(; 16x16 -> 16 unsigned/two's-complement multiply: r12 * r13 -> r12.
__rt_mul:
  mov r12, r11
  clr r12
__rt_mul_loop:
  tst r13
  jz __rt_mul_done
  bit #1, r13
  jz __rt_mul_skip
  add r11, r12
__rt_mul_skip:
  rla r11
  clrc
  rrc r13
  jmp __rt_mul_loop
__rt_mul_done:
  ret

; Unsigned divide: r12 / r13 -> quotient r12, remainder r14.
__rt_divu:
  mov #1, r15        ; bit mask
  clr r14            ; remainder accumulates in r14 via shifted divisor
  tst r13
  jz __rt_divu_by0
__rt_divu_norm:      ; shift divisor left until >= dividend or MSB set
  cmp r12, r13       ; r13 - r12... stop when divisor >= dividend
  jhs __rt_divu_loop
  bit #0x8000, r13
  jnz __rt_divu_loop
  rla r13
  rla r15
  jmp __rt_divu_norm
__rt_divu_loop:
  clr r11            ; r11 = quotient
__rt_divu_step:
  cmp r13, r12
  jlo __rt_divu_next
  sub r13, r12
  bis r15, r11
__rt_divu_next:
  clrc
  rrc r13
  clrc
  rrc r15
  jnz __rt_divu_step
  mov r12, r14       ; remainder
  mov r11, r12       ; quotient
  ret
__rt_divu_by0:
  clr r12
  clr r14
  ret

; Signed divide: r12 / r13 -> r12 (C truncation semantics).
__rt_divs:
  clr r10            ; sign flags (bit0: negate result)
  tst r12
  jge __rt_divs_a_ok
  inv r12
  inc r12
  xor #1, r10
__rt_divs_a_ok:
  tst r13
  jge __rt_divs_b_ok
  inv r13
  inc r13
  xor #1, r10
__rt_divs_b_ok:
  push r10
  call #__rt_divu
  pop r10
  bit #1, r10
  jz __rt_divs_done
  inv r12
  inc r12
__rt_divs_done:
  ret

; Unsigned modulo: r12 % r13 -> r12.
__rt_modu:
  call #__rt_divu
  mov r14, r12
  ret

; Signed modulo (sign of the dividend, C semantics).
__rt_mods:
  clr r10
  tst r12
  jge __rt_mods_a_ok
  inv r12
  inc r12
  xor #1, r10
__rt_mods_a_ok:
  tst r13
  jge __rt_mods_b_ok
  inv r13
  inc r13
__rt_mods_b_ok:
  push r10
  call #__rt_divu
  pop r10
  mov r14, r12
  bit #1, r10
  jz __rt_mods_done
  inv r12
  inc r12
__rt_mods_done:
  ret

; Variable shifts: value r12, count r13.
__rt_shl:
  and #15, r13
  jz __rt_shl_done
__rt_shl_loop:
  rla r12
  dec r13
  jnz __rt_shl_loop
__rt_shl_done:
  ret

__rt_shr:
  and #15, r13
  jz __rt_shr_done
__rt_shr_loop:
  clrc
  rrc r12
  dec r13
  jnz __rt_shr_loop
__rt_shr_done:
  ret

__rt_sar:
  and #15, r13
  jz __rt_sar_done
__rt_sar_loop:
  rra r12
  dec r13
  jnz __rt_sar_loop
__rt_sar_done:
  ret

; Feature-limited array bounds check: index r14, limit r15.
; Faults (never returns) when index >= limit (unsigned covers index < 0).
)";
  out += ScopeLabel(ScopeEdge::kBegin, RegionTag::kCheckIndex, "rtcheckindex") + ":\n";
  out += R"(__rt_check_index:
  cmp r15, r14
  jlo __rt_ci_ok
  mov #1, &__HOSTIO_FAULTCODE
  mov r14, &__HOSTIO_FAULTADDR
  mov #__STOP_SW_FAULT, &__HOSTIO_STOP
__rt_ci_spin:
  jmp __rt_ci_spin
__rt_ci_ok:
  ret
)";
  out += ScopeLabel(ScopeEdge::kEnd, RegionTag::kCheckIndex, "rtcheckindex") + ":\n";
  out += R"(
; Software-check failures. r11 holds the offending address.
__rt_fault_mem:
  mov #2, &__HOSTIO_FAULTCODE
  mov r11, &__HOSTIO_FAULTADDR
  mov #__STOP_SW_FAULT, &__HOSTIO_STOP
__rt_fm_spin:
  jmp __rt_fm_spin

__rt_fault_ret:
  mov #3, &__HOSTIO_FAULTCODE
  mov r11, &__HOSTIO_FAULTADDR
  mov #__STOP_SW_FAULT, &__HOSTIO_STOP
__rt_fr_spin:
  jmp __rt_fr_spin

; ---- 32-bit runtime (long support) ----
; Convention: a in r12(lo):r13(hi), b in r14(lo):r15(hi), result r12:r13.
; r8-r11 are scratch.

; 32x32 -> low 32 multiply (shift-add, early exit when b is exhausted).
__rt_mul32:
  clr r10
  clr r11
__rt_mul32_loop:
  bit #1, r14
  jz __rt_mul32_skip
  add r12, r10
  addc r13, r11
__rt_mul32_skip:
  rla r12
  rlc r13
  clrc
  rrc r15
  rrc r14
  tst r14
  jnz __rt_mul32_loop
  tst r15
  jnz __rt_mul32_loop
  mov r10, r12
  mov r11, r13
  ret

; Unsigned 32/32 divide: quotient r12:r13, remainder r10:r11.
__rt_divu32:
  clr r10
  clr r11
  tst r14
  jnz __rt_divu32_go
  tst r15
  jz __rt_divu32_by0
__rt_divu32_go:
  mov #32, r9
__rt_divu32_loop:
  ; shift the dividend left, MSB into the remainder
  rla r12
  rlc r13
  rlc r10
  rlc r11
  ; remainder >= divisor?
  cmp r15, r11
  jlo __rt_divu32_next
  jne __rt_divu32_sub
  cmp r14, r10
  jlo __rt_divu32_next
__rt_divu32_sub:
  sub r14, r10
  subc r15, r11
  bis #1, r12
__rt_divu32_next:
  dec r9
  jnz __rt_divu32_loop
  ret
__rt_divu32_by0:
  clr r12
  clr r13
  ret

__rt_modu32:
  call #__rt_divu32
  mov r10, r12
  mov r11, r13
  ret

; Signed divide/modulo via magnitude division (C truncation semantics).
__rt_divs32:
  clr r8
  tst r13
  jge __rt_divs32_a_ok
  inv r12
  inv r13
  inc r12
  adc r13
  xor #1, r8
__rt_divs32_a_ok:
  tst r15
  jge __rt_divs32_b_ok
  inv r14
  inv r15
  inc r14
  adc r15
  xor #1, r8
__rt_divs32_b_ok:
  push r8
  call #__rt_divu32
  pop r8
  bit #1, r8
  jz __rt_divs32_done
  inv r12
  inv r13
  inc r12
  adc r13
__rt_divs32_done:
  ret

__rt_mods32:
  clr r8
  tst r13
  jge __rt_mods32_a_ok
  inv r12
  inv r13
  inc r12
  adc r13
  xor #1, r8
__rt_mods32_a_ok:
  tst r15
  jge __rt_mods32_b_ok
  inv r14
  inv r15
  inc r14
  adc r15
__rt_mods32_b_ok:
  push r8
  call #__rt_divu32
  pop r8
  mov r10, r12
  mov r11, r13
  bit #1, r8
  jz __rt_mods32_done
  inv r12
  inv r13
  inc r12
  adc r13
__rt_mods32_done:
  ret

; 32-bit shifts: value r12:r13, count r14 (mod 32).
__rt_shl32:
  and #31, r14
  jz __rt_shl32_done
__rt_shl32_loop:
  rla r12
  rlc r13
  dec r14
  jnz __rt_shl32_loop
__rt_shl32_done:
  ret

__rt_shr32:
  and #31, r14
  jz __rt_shr32_done
__rt_shr32_loop:
  clrc
  rrc r13
  rrc r12
  dec r14
  jnz __rt_shr32_loop
__rt_shr32_done:
  ret

__rt_sar32:
  and #31, r14
  jz __rt_sar32_done
__rt_sar32_loop:
  rra r13
  rrc r12
  dec r14
  jnz __rt_sar32_loop
__rt_sar32_done:
  ret
)";
  out += ScopeLabel(ScopeEdge::kEnd, RegionTag::kRuntime, "rtlib") + ":\n";
  return out;
}

}  // namespace amulet
