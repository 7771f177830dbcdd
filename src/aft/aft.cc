#include "src/aft/aft.h"

#include <functional>

#include "src/aft/opt.h"
#include "src/asm/assembler.h"
#include "src/common/strings.h"
#include "src/compiler/codegen.h"
#include "src/compiler/lower.h"
#include "src/lang/parser.h"
#include "src/mcu/hostio.h"
#include "src/mcu/memory_map.h"
#include "src/mcu/mpu.h"
#include "src/scope/region_map.h"

namespace amulet {

namespace {

constexpr uint16_t kOsStackTop = kSramEnd;  // 0x2400, grows down through SRAM
constexpr uint16_t kAppSam = 0x0034;  // seg1 X | seg2 RW | seg3 none (app view)
constexpr uint16_t kOsSam = 0x0334;   // seg1 X | seg2 RW | seg3 RW   (OS view)

// InfoMem rights nibble: no access normally; RW when the shadow return-
// address stack lives there (wild pointers into it are still blocked by the
// compiler's lower-bound checks — InfoMem is below every app's D_i).
uint16_t AppSam(const AftOptions& options) {
  return options.shadow_return_stack ? static_cast<uint16_t>(kAppSam | 0x3000) : kAppSam;
}
uint16_t OsSam(const AftOptions& options) {
  return options.shadow_return_stack ? static_cast<uint16_t>(kOsSam | 0x3000) : kOsSam;
}

// Bytes added to every statically bounded stack estimate.
constexpr int kStackMarginBytes = 64;

// 32-bit on purpose: the layout cursor must be able to exceed 0xFFFF so the
// FRAM-overflow check can see it (a 16-bit cursor would silently wrap).
uint32_t Align16(uint32_t value) { return (value + 15) & ~15u; }

Status ValidateAppName(const std::string& name) {
  if (name.empty()) {
    return InvalidArgumentError("app name must not be empty");
  }
  for (char c : name) {
    if (!(std::islower(static_cast<unsigned char>(c)) ||
          std::isdigit(static_cast<unsigned char>(c)) || c == '_')) {
      return InvalidArgumentError(
          StrFormat("app name '%s' must match [a-z0-9_]+", name.c_str()));
    }
  }
  return OkStatus();
}

SemaOptions MakeSemaOptions() {
  SemaOptions options;
  for (const ApiEntry& entry : ApiTable()) {
    options.api_numbers[entry.name] = static_cast<int>(entry.id);
  }
  return options;
}

// HOSTIO register addresses as .equ text (shared by gates/veneers).
std::string HostIoEqus() {
  std::string out;
  out += StrFormat(".equ __HIO_SYSCALL, %d\n", kHostIoRegBase + kHostIoSyscall);
  out += StrFormat(".equ __HIO_ARG0, %d\n", kHostIoRegBase + kHostIoArg0);
  out += StrFormat(".equ __HIO_ARG1, %d\n", kHostIoRegBase + kHostIoArg1);
  out += StrFormat(".equ __HIO_ARG2, %d\n", kHostIoRegBase + kHostIoArg2);
  out += StrFormat(".equ __HIO_ARG3, %d\n", kHostIoRegBase + kHostIoArg3);
  out += StrFormat(".equ __HIO_TRIGGER, %d\n", kHostIoRegBase + kHostIoTrigger);
  out += StrFormat(".equ __HIO_RESULT, %d\n", kHostIoRegBase + kHostIoResult);
  out += StrFormat(".equ __HIO_STOP, %d\n", kHostIoRegBase + kHostIoStop);
  out += StrFormat(".equ __MPUCTL0, %d\n", kMpuRegBase + kMpuCtl0);
  out += StrFormat(".equ __MPUSEGB2, %d\n", kMpuRegBase + kMpuSegB2);
  out += StrFormat(".equ __MPUSEGB1, %d\n", kMpuRegBase + kMpuSegB1);
  out += StrFormat(".equ __MPUSAM, %d\n", kMpuRegBase + kMpuSam);
  return out;
}

// MPU reconfiguration sequence (TI-style: password write, then boundaries
// and access rights). ~20 cycles + FRAM fetch penalties — this is the cost
// the paper attributes to its slower MPU context switches. `scope_id` names
// the zero-size __scope label pair that lets the cycle profiler attribute
// the sequence to "mpu-reconfig" (must be unique per emission site).
std::string MpuReconfig(const std::string& segb1_sym, const std::string& segb2_sym,
                        uint16_t sam, const std::string& scope_id) {
  std::string out;
  out += ScopeLabel(ScopeEdge::kBegin, RegionTag::kMpuReconfig, scope_id) + ":\n";
  out += "  mov #0xA501, &__MPUCTL0\n";
  out += StrFormat("  mov #%s, &__MPUSEGB1\n", segb1_sym.c_str());
  out += StrFormat("  mov #%s, &__MPUSEGB2\n", segb2_sym.c_str());
  out += StrFormat("  mov #%d, &__MPUSAM\n", sam);
  out += ScopeLabel(ScopeEdge::kEnd, RegionTag::kMpuReconfig, scope_id) + ":\n";
  return out;
}

// The context switch one app's syscall gates and dispatch veneer share,
// decided once from the model: whether the MPU is reprogrammed between the
// OS's and the app's view, and whether the app runs on its own stack.
struct AppSwitch {
  const std::string& app;
  const AftOptions& options;
  const bool reconfig_mpu = options.model == MemoryModel::kMpu && !options.future_mpu;
  const bool per_app_stacks =
      options.model == MemoryModel::kMpu || options.model == MemoryModel::kSoftwareOnly;

  // The MPU switch into the OS's view (`to_os`) or the app's; empty when
  // the model does not reprogram the MPU.
  std::string MpuView(bool to_os, const std::string& scope_id) const {
    if (!reconfig_mpu) {
      return "";
    }
    const char* owner = to_os ? "os" : app.c_str();
    return MpuReconfig(StrFormat("__mpuv_%s_segb1", owner), StrFormat("__mpuv_%s_segb2", owner),
                       to_os ? OsSam(options) : AppSam(options), scope_id);
  }
};

// Per-app, per-API syscall gate. Runs as simulated code: the stack switch,
// MPU reconfiguration, and HOSTIO marshalling all cost cycles, which is what
// Table 1's "Context Switch" row measures.
std::string GateAsm(const AppSwitch& sw, const ApiEntry& api) {
  const char* app = sw.app.c_str();
  const std::string scope_id = StrFormat("%s_%s", app, api.name);
  std::string out;
  out += ScopeLabel(ScopeEdge::kBegin, RegionTag::kGate, scope_id) + ":\n";
  out += StrFormat("__gate_%s_%s:\n", app, api.name);
  out += StrFormat("  mov #%d, &__HIO_SYSCALL\n", static_cast<int>(api.id));
  out += "  mov r12, &__HIO_ARG0\n";
  out += "  mov r13, &__HIO_ARG1\n";
  out += "  mov r14, &__HIO_ARG2\n";
  out += "  mov r15, &__HIO_ARG3\n";
  // Must happen before touching OS data: under the app's MPU view, the OS
  // data region is execute-only.
  out += sw.MpuView(/*to_os=*/true, "g0_" + scope_id);
  if (sw.per_app_stacks) {
    out += StrFormat("  mov sp, &__os_saved_sp_%s\n", app);
    out += StrFormat("  mov #%d, sp\n", kOsStackTop);
  }
  out += "  mov #1, &__HIO_TRIGGER\n";
  if (sw.per_app_stacks) {
    out += StrFormat("  mov &__os_saved_sp_%s, sp\n", app);
  }
  out += sw.MpuView(/*to_os=*/false, "g1_" + scope_id);
  out += "  mov &__HIO_RESULT, r12\n";
  out += "  ret\n";
  out += ScopeLabel(ScopeEdge::kEnd, RegionTag::kGate, scope_id) + ":\n";
  return out;
}

// Event-dispatch veneer: the host points PC here with r11 = handler entry
// and r12..r14 = event arguments.
std::string DispatchAsm(const AppSwitch& sw) {
  const char* app = sw.app.c_str();
  std::string out;
  out += ScopeLabel(ScopeEdge::kBegin, RegionTag::kDispatch, sw.app) + ":\n";
  out += StrFormat("__dispatch_%s:\n", app);
  out += sw.MpuView(/*to_os=*/false, StrFormat("d0_%s", app));
  if (sw.per_app_stacks) {
    out += StrFormat("  mov #__stacktop_%s, sp\n", app);
  } else {
    if (sw.options.zero_shared_stack) {
      // The design the paper rejected: scrub the shared stack on every app
      // switch so the next app cannot read stack tailings.
      out += StrFormat("  mov #%d, r10\n", kSramStart);
      out += StrFormat("__zs_%s:\n", app);
      out += "  clr 0(r10)\n";
      out += "  incd r10\n";
      out += StrFormat("  cmp #%d, r10\n", kOsStackTop);
      out += StrFormat("  jlo __zs_%s\n", app);
    }
    out += StrFormat("  mov #%d, sp\n", kOsStackTop);
  }
  // Enter through the app-region thunk so the handler's (compiler-checked)
  // return address lies inside the app's own code bounds.
  out += StrFormat("  call #__thunk_%s\n", app);
  out += sw.MpuView(/*to_os=*/true, StrFormat("d1_%s", app));
  out += StrFormat("  mov #%d, &__HIO_STOP\n", kStopHandlerDone);
  out += StrFormat("__dispatch_%s_spin:\n", app);
  out += StrFormat("  jmp __dispatch_%s_spin\n", app);
  out += ScopeLabel(ScopeEdge::kEnd, RegionTag::kDispatch, sw.app) + ":\n";
  return out;
}

std::string OsCoreAsm() {
  std::string out;
  out += "__os_idle:\n  jmp __os_idle\n";
  out += "__os_nmi:\n";
  out += StrFormat("  mov #%d, &__HIO_STOP\n", kStopMpuFault);
  out += "__os_nmi_spin:\n  jmp __os_nmi_spin\n";
  return out;
}

// Phase-1 stack-depth analysis: longest path through the direct call graph,
// weighted by codegen frame sizes.
int EstimateStackBytes(const std::string& app, const FeatureAudit& audit,
                       const std::map<std::string, int>& fn_stack_bytes,
                       const AftOptions& options, bool* statically_bounded) {
  if (audit.uses_recursion || audit.has_indirect_calls) {
    // Recursion (or targets unknowable at compile time): the AFT cannot
    // bound the depth; fall back to the configured reservation. Under the
    // MPU model an overflow still faults (stack descends into the
    // execute-only code segment).
    *statically_bounded = false;
    return options.recursion_stack_bytes;
  }
  *statically_bounded = true;
  const std::string prefix = app + "_f_";
  std::map<std::string, int> own;  // AST name -> activation bytes
  for (const auto& [asm_name, bytes] : fn_stack_bytes) {
    if (StartsWith(asm_name, prefix)) {
      own[asm_name.substr(prefix.size())] = bytes;
    }
  }
  std::map<std::string, int> memo;
  std::function<int(const std::string&)> depth = [&](const std::string& fn) -> int {
    auto it = memo.find(fn);
    if (it != memo.end()) {
      return it->second;
    }
    int own_bytes = own.count(fn) != 0 ? own[fn] : 0;
    int deepest_callee = 0;
    auto edges = audit.call_graph.find(fn);
    if (edges != audit.call_graph.end()) {
      for (const std::string& callee : edges->second) {
        deepest_callee = std::max(deepest_callee, depth(callee));
      }
    }
    memo[fn] = own_bytes + deepest_callee;
    return memo[fn];
  };
  int worst = 0;
  for (const auto& [fn, bytes] : own) {
    (void)bytes;
    worst = std::max(worst, depth(fn));
  }
  return worst + kRuntimeStackBytes + kStackMarginBytes;
}

std::string ThunkSection(const std::string& app) { return "." + app + ".thunk"; }

struct CompiledApp {
  std::string name;
  FeatureAudit audit;
  CheckStats checks;
  ObjectFile object;
  std::map<std::string, int> fn_stack_bytes;
};

// Phases 1-3 for one app: the one per-app pipeline. `trace`, when given,
// receives the IR and assembly of the phases as they run.
Result<CompiledApp> CompileApp(const AppSource& app, const AftOptions& options,
                               AftTrace* trace) {
  RETURN_IF_ERROR(ValidateAppName(app.name));
  const MemoryModel model = options.model;
  CompiledApp out;
  out.name = app.name;

  const std::string full_source = ApiPrelude() + app.source;
  ASSIGN_OR_RETURN(std::unique_ptr<Program> program, Parse(full_source, app.name));
  RETURN_IF_ERROR(Analyze(program.get(), MakeSemaOptions(), &out.audit));

  // Phase 1: model constraints.
  if (model == MemoryModel::kFeatureLimited) {
    if (out.audit.uses_pointers) {
      return FailedPreconditionError(StrFormat(
          "app '%s': AmuletC (FeatureLimited) forbids pointers", app.name.c_str()));
    }
    if (out.audit.uses_recursion) {
      return FailedPreconditionError(StrFormat(
          "app '%s': AmuletC (FeatureLimited) forbids recursion", app.name.c_str()));
    }
  }

  // Phase 2.
  ASSIGN_OR_RETURN(IrProgram ir, LowerProgram(program.get(), app.name));
  if (options.verify_ir) {
    RETURN_IF_ERROR(VerifyIr(ir, /*allow_markers=*/true));
  }
  if (trace != nullptr) {
    trace->ir_before_checks = DumpIr(ir);
  }
  const MemoryModel check_model =
      options.future_mpu ? MemoryModel::kNoIsolation : model;
  ASSIGN_OR_RETURN(out.checks, InsertChecks(&ir, check_model, BoundSymbolsFor(app.name)));
  if (options.shadow_return_stack) {
    // The shadow stack subsumes (and strengthens) bounds-style return checks.
    for (IrFunction& fn : ir.functions) {
      fn.ret_check = RetCheckKind::kNone;
    }
    out.checks.ret_checks = 0;
  }
  if (trace != nullptr) {
    trace->ir_after_checks = DumpIr(ir);
  }
  if (options.verify_ir) {
    RETURN_IF_ERROR(VerifyIr(ir, /*allow_markers=*/false));
  }

  // Phase 2.5: delete provably-redundant checks, hoist loop-invariant ones.
  if (options.optimize_checks) {
    CheckOptOptions opt;
    opt.frame_safe = !out.audit.uses_recursion && !out.audit.has_indirect_calls;
    ASSIGN_OR_RETURN(CheckOptStats opt_stats,
                     OptimizeChecks(&ir, BoundSymbolsFor(app.name), opt));
    out.checks.elided_data_checks = opt_stats.elided_data_checks;
    out.checks.elided_code_checks = opt_stats.elided_code_checks;
    out.checks.elided_index_checks = opt_stats.elided_index_checks;
    out.checks.hoisted_checks = opt_stats.hoisted_checks;
    if (trace != nullptr) {
      trace->ir_after_opt = DumpIr(ir);
    }
    if (options.verify_ir) {
      RETURN_IF_ERROR(VerifyIr(ir, /*allow_markers=*/false));
    }
  }

  // Phase 3 (app side): codegen into per-app sections.
  CodegenOptions cg;
  cg.text_section = "." + app.name + ".text";
  cg.data_section = "." + app.name + ".data";
  cg.shadow_ret_stack = options.shadow_return_stack;
  cg.use_hw_multiplier = options.use_hw_multiplier;
  ASSIGN_OR_RETURN(CodegenResult code, GenerateAssembly(ir, cg));
  if (trace != nullptr) {
    trace->assembly = code.assembly;
  }
  out.fn_stack_bytes = std::move(code.stack_bytes);
  // Per-app entry thunk, linked right after the app's text inside its code
  // region: the event handler's checked return address then satisfies
  // `addr >= C_i`, while the thunk's generated (uncheckable) ret
  // legitimately returns to the OS dispatch veneer. It has a section of its
  // own so the image keeps it as a chunk of its own.
  code.assembly += StrFormat(".section %s\n__thunk_%s:\n  call r11\n  ret\n",
                             ThunkSection(app.name).c_str(), app.name.c_str());
  ASSIGN_OR_RETURN(out.object, Assemble(code.assembly, app.name + ".s"));
  return out;
}

}  // namespace

Result<Firmware> BuildFirmware(const std::vector<AppSource>& apps, const AftOptions& options) {
  if (apps.empty()) {
    return InvalidArgumentError("no applications given");
  }
  Firmware fw;
  fw.model = options.model;
  fw.os_stack_top = kOsStackTop;
  fw.shadow_return_stack = options.shadow_return_stack;

  // Phases 1-3 per app.
  std::vector<CompiledApp> compiled;
  for (const AppSource& app : apps) {
    for (const CompiledApp& existing : compiled) {
      if (existing.name == app.name) {
        return AlreadyExistsError(StrFormat("duplicate app name '%s'", app.name.c_str()));
      }
    }
    ASSIGN_OR_RETURN(CompiledApp one, CompileApp(app, options, /*trace=*/nullptr));
    compiled.push_back(std::move(one));
  }

  // Phase 3 (OS side): runtime, gates, dispatch veneers, OS data slots.
  std::string os_text = HostIoEqus();
  os_text += ".section .os.text\n";
  os_text += OsCoreAsm();
  for (const CompiledApp& app : compiled) {
    const AppSwitch sw{app.name, options};
    os_text += DispatchAsm(sw);
    for (const ApiEntry& api : ApiTable()) {
      if (app.audit.called_apis.count(api.name) != 0) {
        os_text += GateAsm(sw, api);
      }
    }
  }
  os_text += RuntimeAssembly();  // placed in OS text: shared, execute-only
  std::string os_data = ".section .os.data\n";
  for (const CompiledApp& app : compiled) {
    os_data += StrFormat("__os_saved_sp_%s:\n  .space 2\n", app.name.c_str());
  }
  std::string info_data;
  if (options.shadow_return_stack) {
    // __shadow_sp sits at the very start of InfoMem, initialized to the
    // first free slot above itself; entries grow upward through the 512 B.
    info_data = StrFormat(".section .info\n__shadow_sp:\n  .word %d\n",
                          kInfoMemStart + 2);
  }

  Linker linker;
  ASSIGN_OR_RETURN(ObjectFile os_text_obj, Assemble(os_text, "os_text.s"));
  linker.AddObject(std::move(os_text_obj));
  ASSIGN_OR_RETURN(ObjectFile os_data_obj, Assemble(os_data, "os_data.s"));
  linker.AddObject(std::move(os_data_obj));
  if (!info_data.empty()) {
    ASSIGN_OR_RETURN(ObjectFile info_obj, Assemble(info_data, "info.s"));
    linker.AddObject(std::move(info_obj));
  }
  for (CompiledApp& app : compiled) {
    linker.AddObject(std::move(app.object));
  }

  // Phase 4: layout. OS code low, OS data next, then per-app
  // [code][stack][globals] regions, all on 16-byte MPU-granularity borders.
  std::vector<LayoutRule> layout;
  if (options.shadow_return_stack) {
    layout.push_back({".info", static_cast<uint16_t>(kInfoMemStart)});
  }
  uint32_t cursor = kFramStart;
  layout.push_back({".os.text", static_cast<uint16_t>(cursor)});
  cursor = Align16(cursor + linker.SectionSize(".os.text"));
  const uint16_t os_data_base = static_cast<uint16_t>(cursor);
  layout.push_back({".os.data", os_data_base});
  cursor = Align16(cursor + std::max<uint32_t>(linker.SectionSize(".os.data"), 2));
  const uint16_t apps_base = static_cast<uint16_t>(cursor);

  fw.os_mpu_segb1 = static_cast<uint16_t>(os_data_base >> 4);
  fw.os_mpu_segb2 = static_cast<uint16_t>(apps_base >> 4);
  fw.os_mpu_sam = OsSam(options);
  linker.DefineAbsolute("__mpuv_os_segb1", fw.os_mpu_segb1);
  linker.DefineAbsolute("__mpuv_os_segb2", fw.os_mpu_segb2);

  for (CompiledApp& app : compiled) {
    AppImage image;
    image.name = app.name;
    image.audit = app.audit;
    image.checks = app.checks;

    const uint32_t code_lo = cursor;
    const std::string text_section = "." + app.name + ".text";
    const std::string data_section = "." + app.name + ".data";
    const uint32_t thunk = code_lo + linker.SectionSize(text_section);
    cursor = Align16(thunk + linker.SectionSize(ThunkSection(app.name)));
    const uint32_t code_hi = cursor;

    const uint32_t data_lo = code_hi;
    image.stack_bytes = static_cast<int>(Align16(static_cast<uint32_t>(
        EstimateStackBytes(app.name, app.audit, app.fn_stack_bytes, options,
                           &image.stack_statically_bounded))));
    image.stack_bytes = std::max(image.stack_bytes, 128);
    const uint32_t stack_top = data_lo + static_cast<uint32_t>(image.stack_bytes);
    cursor = Align16(stack_top + std::max<uint32_t>(linker.SectionSize(data_section), 2));
    const uint32_t data_hi = cursor;
    if (cursor > kFramEnd) {
      return ResourceExhaustedError(
          StrFormat("firmware does not fit: app '%s' ends at 0x%05x (FRAM ends at 0x%04x)",
                    app.name.c_str(), cursor, kFramEnd));
    }
    image.code_lo = static_cast<uint16_t>(code_lo);
    image.code_hi = static_cast<uint16_t>(code_hi);
    image.data_lo = static_cast<uint16_t>(data_lo);
    image.stack_top = static_cast<uint16_t>(stack_top);
    image.data_hi = static_cast<uint16_t>(data_hi);
    layout.push_back({text_section, image.code_lo});
    layout.push_back({ThunkSection(app.name), static_cast<uint16_t>(thunk)});
    layout.push_back({data_section, image.stack_top});

    image.mpu_segb1 = static_cast<uint16_t>(image.data_lo >> 4);
    image.mpu_segb2 = static_cast<uint16_t>(image.data_hi >> 4);
    image.mpu_sam = AppSam(options);

    BoundSymbols bounds = BoundSymbolsFor(app.name);
    linker.DefineAbsolute(bounds.code_lo, image.code_lo);
    linker.DefineAbsolute(bounds.code_hi, image.code_hi);
    linker.DefineAbsolute(bounds.data_lo, image.data_lo);
    linker.DefineAbsolute(bounds.data_hi, image.data_hi);
    linker.DefineAbsolute(StrFormat("__stacktop_%s", app.name.c_str()), image.stack_top);
    linker.DefineAbsolute(StrFormat("__mpuv_%s_segb1", app.name.c_str()), image.mpu_segb1);
    linker.DefineAbsolute(StrFormat("__mpuv_%s_segb2", app.name.c_str()), image.mpu_segb2);

    fw.apps.push_back(std::move(image));
  }

  ASSIGN_OR_RETURN(fw.image, linker.Link(layout));

  // Resolve veneers and event handlers.
  fw.nmi_handler = fw.image.SymbolOrZero("__os_nmi");
  fw.idle_addr = fw.image.SymbolOrZero("__os_idle");
  for (AppImage& app : fw.apps) {
    app.dispatch_addr = fw.image.SymbolOrZero(StrFormat("__dispatch_%s", app.name.c_str()));
    for (size_t i = 0; i < static_cast<size_t>(EventType::kCount); ++i) {
      const std::string sym = StrFormat("%s_f_%s", app.name.c_str(),
                                        EventHandlerName(static_cast<EventType>(i)));
      app.handlers[i] = fw.image.SymbolOrZero(sym);
    }
  }
  return fw;
}

Result<AftTrace> TraceAppBuild(const AppSource& app, const AftOptions& options) {
  AftTrace trace;
  trace.prelude_source = ApiPrelude();
  ASSIGN_OR_RETURN(CompiledApp compiled, CompileApp(app, options, &trace));
  trace.audit = std::move(compiled.audit);
  trace.checks = compiled.checks;
  return trace;
}

Result<AftTrace> TraceAppBuild(const AppSource& app, MemoryModel model) {
  AftOptions options;
  options.model = model;
  return TraceAppBuild(app, options);
}

}  // namespace amulet
