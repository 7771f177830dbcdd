// AFT unit tests: phase-level behaviour — feature audits per model, check
// insertion counts, stack-depth analysis, memory layout arithmetic, gate and
// veneer generation, bound-symbol values, and the ablation options.
#include <gtest/gtest.h>

#include "src/aft/aft.h"
#include "src/aft/listing.h"
#include "src/common/strings.h"
#include "src/mcu/multiplier.h"
#include "src/os/os.h"

namespace amulet {
namespace {

Firmware Build(const std::string& name, const std::string& source, MemoryModel model,
               bool expect_ok = true) {
  AftOptions options;
  options.model = model;
  auto fw = BuildFirmware({{name, source}}, options);
  EXPECT_EQ(fw.ok(), expect_ok) << fw.status().ToString();
  if (!fw.ok()) {
    return Firmware{};
  }
  return std::move(*fw);
}

constexpr char kPlainApp[] = R"(
int x;
void on_init(void) { x = 1; }
)";

// ---------------------------------------------------------------------------
// Phase 1: model gating
// ---------------------------------------------------------------------------

TEST(AftPhase1Test, FeatureLimitedRejectsPointers) {
  AftOptions options;
  options.model = MemoryModel::kFeatureLimited;
  auto fw = BuildFirmware(
      {{"p", "int y; void on_init(void) { int* q = &y; *q = 1; }"}}, options);
  ASSERT_FALSE(fw.ok());
  EXPECT_NE(fw.status().message().find("pointers"), std::string::npos);
}

TEST(AftPhase1Test, FeatureLimitedRejectsRecursion) {
  AftOptions options;
  options.model = MemoryModel::kFeatureLimited;
  auto fw = BuildFirmware(
      {{"r", "int f(int n) { return n <= 0 ? 0 : f(n - 1); } void on_init(void) { f(3); }"}},
      options);
  ASSERT_FALSE(fw.ok());
  EXPECT_NE(fw.status().message().find("recursion"), std::string::npos);
}

TEST(AftPhase1Test, OtherModelsAcceptPointersAndRecursion) {
  const char* source =
      "int y; int f(int n) { return n <= 0 ? 0 : f(n - 1); } "
      "void on_init(void) { int* q = &y; *q = f(3); }";
  for (MemoryModel model : {MemoryModel::kNoIsolation, MemoryModel::kMpu,
                            MemoryModel::kSoftwareOnly}) {
    Firmware fw = Build("ok", source, model);
    EXPECT_EQ(fw.apps.size(), 1u) << MemoryModelName(model);
  }
}

TEST(AftPhase1Test, AppNamesValidated) {
  AftOptions options;
  EXPECT_FALSE(BuildFirmware({{"", kPlainApp}}, options).ok());
  EXPECT_FALSE(BuildFirmware({{"Bad-Name", kPlainApp}}, options).ok());
  EXPECT_FALSE(BuildFirmware({{"UPPER", kPlainApp}}, options).ok());
  EXPECT_TRUE(BuildFirmware({{"good_name_2", kPlainApp}}, options).ok());
}

TEST(AftPhase1Test, DuplicateAppNamesRejected) {
  AftOptions options;
  auto fw = BuildFirmware({{"dup", kPlainApp}, {"dup", kPlainApp}}, options);
  EXPECT_FALSE(fw.ok());
}

TEST(AftPhase1Test, UnknownApiCallRejected) {
  AftOptions options;
  auto fw = BuildFirmware({{"bad", "void on_init(void) { not_an_api(); }"}}, options);
  EXPECT_FALSE(fw.ok());
}

// ---------------------------------------------------------------------------
// Phase 2: check insertion counts
// ---------------------------------------------------------------------------

TEST(AftPhase2Test, CheckCountsPerModel) {
  // Two dynamic array accesses + one pointer deref + one fn-ptr call.
  const char* source = R"(
int a[8];
int tick(void) { return 1; }
void on_init(void) {
  int i = 2;
  a[i] = a[i + 1];
  int* p = &a[0];
  *p = 5;
  int (*fn)(void) = tick;
  fn();
}
)";
  struct Expectation {
    MemoryModel model;
    int data;
    int code;
    int index;
  };
  const Expectation expectations[] = {
      // Data markers: a[i] store, a[i+1] load, *p deref = 3 (&a[0] is an
      // address computation, not an access). One fn-ptr call check.
      {MemoryModel::kNoIsolation, 0, 0, 0},
      {MemoryModel::kMpu, 3, 1, 0},
      {MemoryModel::kSoftwareOnly, 3, 1, 0},
  };
  for (const Expectation& expect : expectations) {
    auto trace = TraceAppBuild({"cnt", source}, expect.model);
    ASSERT_TRUE(trace.ok()) << trace.status().ToString();
    EXPECT_EQ(trace->checks.data_checks, expect.data) << MemoryModelName(expect.model);
    EXPECT_EQ(trace->checks.code_checks, expect.code) << MemoryModelName(expect.model);
    EXPECT_EQ(trace->checks.index_checks, expect.index) << MemoryModelName(expect.model);
  }
}

TEST(AftPhase2Test, NoIsolationInsertsNothing) {
  auto trace = TraceAppBuild(
      {"cnt", "int a[4]; void on_init(void) { int i = 1; a[i] = 2; }"},
      MemoryModel::kNoIsolation);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->checks.data_checks, 0);
  EXPECT_EQ(trace->checks.index_checks, 0);
  EXPECT_EQ(trace->checks.ret_checks, 0);
  EXPECT_EQ(trace->ir_after_checks.find("check_"), std::string::npos);
}

TEST(AftPhase2Test, FeatureLimitedUsesIndexChecks) {
  auto trace = TraceAppBuild(
      {"cnt", "int a[4]; void on_init(void) { int i = 1; a[i] = 2; }"},
      MemoryModel::kFeatureLimited);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->checks.index_checks, 1);
  EXPECT_EQ(trace->checks.data_checks, 0);
  EXPECT_NE(trace->ir_after_checks.find("check_index"), std::string::npos);
}

TEST(AftPhase2Test, ConstantIndexAccessesNeedNoChecks) {
  auto trace = TraceAppBuild(
      {"cnt", "int a[4]; void on_init(void) { a[0] = 1; a[3] = 2; }"},
      MemoryModel::kSoftwareOnly);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->checks.data_checks, 0) << "statically-in-bounds accesses are free";
}

TEST(AftPhase2Test, RetChecksPerModel) {
  const char* source = "int f(void) { return 1; } void on_init(void) { f(); }";
  auto mpu = TraceAppBuild({"r", source}, MemoryModel::kMpu);
  ASSERT_TRUE(mpu.ok());
  EXPECT_EQ(mpu->checks.ret_checks, 2);  // f + on_init
  auto fl = TraceAppBuild({"r", source}, MemoryModel::kFeatureLimited);
  ASSERT_TRUE(fl.ok());
  EXPECT_EQ(fl->checks.ret_checks, 0);
  // MPU: one-sided (code_lo only); SW: two-sided.
  EXPECT_NE(mpu->assembly.find("__bnd_r_code_lo"), std::string::npos);
  EXPECT_EQ(mpu->assembly.find("__bnd_r_code_hi"), std::string::npos);
  auto sw = TraceAppBuild({"r", source}, MemoryModel::kSoftwareOnly);
  ASSERT_TRUE(sw.ok());
  EXPECT_NE(sw->assembly.find("__bnd_r_code_hi"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Phase 1/3: stack-depth analysis
// ---------------------------------------------------------------------------

TEST(AftStackTest, DeeperCallChainsGetBiggerStacks) {
  const char* shallow = "void on_init(void) { }";
  const char* deep = R"(
int f3(int a) { int pad[8]; pad[0] = a; return pad[0]; }
int f2(int a) { int pad[8]; pad[0] = f3(a); return pad[0]; }
int f1(int a) { int pad[8]; pad[0] = f2(a); return pad[0]; }
void on_init(void) { f1(1); }
)";
  Firmware fw_shallow = Build("s", shallow, MemoryModel::kMpu);
  Firmware fw_deep = Build("d", deep, MemoryModel::kMpu);
  EXPECT_TRUE(fw_shallow.apps[0].stack_statically_bounded);
  EXPECT_TRUE(fw_deep.apps[0].stack_statically_bounded);
  EXPECT_GT(fw_deep.apps[0].stack_bytes, fw_shallow.apps[0].stack_bytes);
}

TEST(AftStackTest, RecursionFallsBackToReservation) {
  const char* recursive =
      "int f(int n) { return n <= 0 ? 0 : f(n - 1); } void on_init(void) { f(3); }";
  AftOptions options;
  options.model = MemoryModel::kMpu;
  options.recursion_stack_bytes = 1024;
  auto fw = BuildFirmware({{"rec", recursive}}, options);
  ASSERT_TRUE(fw.ok());
  EXPECT_FALSE(fw->apps[0].stack_statically_bounded);
  EXPECT_GE(fw->apps[0].stack_bytes, 1024);
}

TEST(AftStackTest, IndirectCallsAlsoDefeatAnalysis) {
  const char* indirect = R"(
int leaf(void) { return 1; }
void on_init(void) { int (*p)(void) = leaf; p(); }
)";
  Firmware fw = Build("ind", indirect, MemoryModel::kMpu);
  EXPECT_FALSE(fw.apps[0].stack_statically_bounded);
}

// ---------------------------------------------------------------------------
// Phase 4: layout & symbols
// ---------------------------------------------------------------------------

TEST(AftLayoutTest, BoundSymbolsMatchLayout) {
  Firmware fw = Build("app1", kPlainApp, MemoryModel::kSoftwareOnly);
  const AppImage& app = fw.apps[0];
  EXPECT_EQ(fw.image.SymbolOrZero("__bnd_app1_code_lo"), app.code_lo);
  EXPECT_EQ(fw.image.SymbolOrZero("__bnd_app1_code_hi"), app.code_hi);
  EXPECT_EQ(fw.image.SymbolOrZero("__bnd_app1_data_lo"), app.data_lo);
  EXPECT_EQ(fw.image.SymbolOrZero("__bnd_app1_data_hi"), app.data_hi);
  EXPECT_EQ(fw.image.SymbolOrZero("__stacktop_app1"), app.stack_top);
}

TEST(AftLayoutTest, MpuRegisterValuesMatchBoundaries) {
  Firmware fw = Build("app1", kPlainApp, MemoryModel::kMpu);
  const AppImage& app = fw.apps[0];
  EXPECT_EQ(app.mpu_segb1, app.data_lo >> 4);
  EXPECT_EQ(app.mpu_segb2, app.data_hi >> 4);
  EXPECT_EQ(app.mpu_sam, 0x0034);
  EXPECT_EQ(fw.os_mpu_sam, 0x0334);
  EXPECT_EQ(fw.image.SymbolOrZero("__mpuv_app1_segb1"), app.mpu_segb1);
}

TEST(AftLayoutTest, AppsArePackedInOrderWithoutOverlap) {
  std::vector<AppSource> sources;
  for (int i = 0; i < 5; ++i) {
    sources.push_back({StrFormat("app%d", i), kPlainApp});
  }
  AftOptions options;
  options.model = MemoryModel::kMpu;
  auto fw = BuildFirmware(sources, options);
  ASSERT_TRUE(fw.ok());
  for (size_t i = 1; i < fw->apps.size(); ++i) {
    EXPECT_GE(fw->apps[i].code_lo, fw->apps[i - 1].data_hi) << i;
  }
}

TEST(AftLayoutTest, OverflowingFramFails) {
  // Each app reserves a large recursion stack; enough apps exhaust FRAM.
  const char* recursive =
      "int f(int n) { return n <= 0 ? 0 : f(n - 1); } void on_init(void) { f(1); }";
  std::vector<AppSource> sources;
  for (int i = 0; i < 40; ++i) {
    sources.push_back({StrFormat("big%d", i), recursive});
  }
  AftOptions options;
  options.model = MemoryModel::kMpu;
  options.recursion_stack_bytes = 2048;
  auto fw = BuildFirmware(sources, options);
  ASSERT_FALSE(fw.ok());
  EXPECT_EQ(fw.status().code(), StatusCode::kResourceExhausted);
}

TEST(AftLayoutTest, GatesGeneratedOnlyForCalledApis) {
  Firmware fw = Build(
      "g", "void on_init(void) { amulet_haptic_buzz(10); }", MemoryModel::kMpu);
  EXPECT_TRUE(fw.image.HasSymbol("__gate_g_amulet_haptic_buzz"));
  EXPECT_FALSE(fw.image.HasSymbol("__gate_g_amulet_noop"));
}

TEST(AftLayoutTest, HandlersResolved) {
  Firmware fw = Build("h",
                      "void on_init(void) { }\n"
                      "void on_timer(int id) { }\n"
                      "void on_accel(int x, int y, int z) { }\n",
                      MemoryModel::kMpu);
  const AppImage& app = fw.apps[0];
  EXPECT_NE(app.handlers[static_cast<size_t>(EventType::kInit)], 0);
  EXPECT_NE(app.handlers[static_cast<size_t>(EventType::kTimer)], 0);
  EXPECT_NE(app.handlers[static_cast<size_t>(EventType::kAccel)], 0);
  EXPECT_EQ(app.handlers[static_cast<size_t>(EventType::kButton)], 0);
  // Handlers live inside the app's code region.
  for (uint16_t handler : app.handlers) {
    if (handler != 0) {
      EXPECT_GE(handler, app.code_lo);
      EXPECT_LT(handler, app.code_hi);
    }
  }
}

TEST(AftLayoutTest, EmptyAppListRejected) {
  EXPECT_FALSE(BuildFirmware({}, AftOptions{}).ok());
}

// ---------------------------------------------------------------------------
// TraceAppBuild artifacts
// ---------------------------------------------------------------------------

TEST(AftTraceTest, ArtifactsPopulated) {
  auto trace = TraceAppBuild(
      {"t", "int a[4]; void on_init(void) { int i = 1; a[i] = 2; }"}, MemoryModel::kMpu);
  ASSERT_TRUE(trace.ok());
  EXPECT_NE(trace->prelude_source.find("amulet_noop"), std::string::npos);
  EXPECT_NE(trace->ir_before_checks.find("CHECK_MARKER"), std::string::npos);
  EXPECT_EQ(trace->ir_after_checks.find("CHECK_MARKER"), std::string::npos);
  EXPECT_NE(trace->ir_after_checks.find("check_low"), std::string::npos);
  EXPECT_NE(trace->assembly.find("t_f_on_init:"), std::string::npos);
}

// TraceAppBuild runs BuildFirmware's per-app pipeline, so every option and
// every rejection of a build reaches the trace.
TEST(AftTraceTest, FutureMpuTraceHasNoChecks) {
  const AppSource app = {"p", "int buf[4]; void on_init(void) { int id = 1; int *p = buf + id; "
                              "*p = 3; p[1] = 4; }"};
  auto checked = TraceAppBuild(app, MemoryModel::kMpu);
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  EXPECT_NE(checked->ir_after_checks.find("check_low"), std::string::npos);

  AftOptions options;
  options.future_mpu = true;
  auto trace = TraceAppBuild(app, options);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ(trace->ir_after_checks.find("check_"), std::string::npos) << trace->ir_after_checks;
  auto fw = BuildFirmware({app}, options);
  ASSERT_TRUE(fw.ok()) << fw.status().ToString();
  EXPECT_EQ(trace->checks.data_checks, fw->apps[0].checks.data_checks);
  EXPECT_EQ(trace->checks.code_checks, fw->apps[0].checks.code_checks);
  EXPECT_EQ(trace->checks.ret_checks, fw->apps[0].checks.ret_checks);
}

TEST(AftTraceTest, ShadowReturnStackReplacesRetChecks) {
  AftOptions options;
  options.shadow_return_stack = true;
  auto trace = TraceAppBuild({"r", "int f(void) { return 1; } void on_init(void) { f(); }"},
                             options);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ(trace->checks.ret_checks, 0);
  EXPECT_NE(trace->assembly.find("__shadow_sp"), std::string::npos);
  EXPECT_EQ(trace->assembly.find("__bnd_r_code_lo"), std::string::npos);
}

TEST(AftTraceTest, HwMultiplierReachesCodegen) {
  AftOptions options;
  options.use_hw_multiplier = true;
  auto trace =
      TraceAppBuild({"m", "int x; int y; int r; void on_init(void) { r = x * y; }"}, options);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_NE(trace->assembly.find(StrFormat("mov &%d, r12", kMpyRegBase + kMpyResLo)),
            std::string::npos)
      << trace->assembly;
}

TEST(AftTraceTest, BuildRejectionsApply) {
  EXPECT_EQ(TraceAppBuild({"Bad-Name", kPlainApp}, MemoryModel::kMpu).status().code(),
            StatusCode::kInvalidArgument);
  auto pointers = TraceAppBuild({"p", "int y; void on_init(void) { int* q = &y; *q = 1; }"},
                                MemoryModel::kFeatureLimited);
  ASSERT_FALSE(pointers.ok());
  EXPECT_NE(pointers.status().message().find("pointers"), std::string::npos);
  auto recursion = TraceAppBuild(
      {"r", "int f(int n) { return n <= 0 ? 0 : f(n - 1); } void on_init(void) { f(3); }"},
      MemoryModel::kFeatureLimited);
  ASSERT_FALSE(recursion.ok());
  EXPECT_NE(recursion.status().message().find("recursion"), std::string::npos);
}


// ---------------------------------------------------------------------------
// Hardware-multiplier codegen option
// ---------------------------------------------------------------------------

TEST(HwMultiplierTest, ProductsMatchSoftwareRoutine) {
  const char* source = R"(
int results[6];
void on_init(void) {
  int a = 123;
  int b = -45;
  results[0] = a * 7;
  results[1] = a * b;
  results[2] = b * b;
  unsigned u = 50000;
  results[3] = (int)(u * 3);
  results[4] = a * 0;
  results[5] = (a + b) * (a - b);
}
)";
  uint16_t expect[6];
  {
    AftOptions options;
    options.model = MemoryModel::kNoIsolation;
    auto fw = BuildFirmware({{"m", source}}, options);
    ASSERT_TRUE(fw.ok());
    Machine machine;
    AmuletOs os(&machine, std::move(*fw), OsOptions{});
    ASSERT_TRUE(os.Boot().ok());
    uint16_t base = os.firmware().image.SymbolOrZero("m_g_results");
    for (int i = 0; i < 6; ++i) {
      expect[i] = machine.bus().PeekWord(static_cast<uint16_t>(base + 2 * i));
    }
  }
  AftOptions options;
  options.model = MemoryModel::kNoIsolation;
  options.use_hw_multiplier = true;
  auto fw = BuildFirmware({{"m", source}}, options);
  ASSERT_TRUE(fw.ok());
  Machine machine;
  AmuletOs os(&machine, std::move(*fw), OsOptions{});
  ASSERT_TRUE(os.Boot().ok());
  uint16_t base = os.firmware().image.SymbolOrZero("m_g_results");
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(machine.bus().PeekWord(static_cast<uint16_t>(base + 2 * i)), expect[i]) << i;
  }
}

TEST(HwMultiplierTest, HardwareMultiplyIsMuchFaster) {
  const char* source = R"(
int sink;
void on_init(void) { amulet_button_subscribe(); }
void on_button(int id) {
  int acc = 1;
  for (int i = 1; i < 100; i++) {
    acc = acc * i + 1;
  }
  sink = acc;
}
)";
  uint64_t cycles[2];
  uint16_t results[2];
  for (int hw = 0; hw < 2; ++hw) {
    AftOptions options;
    options.model = MemoryModel::kMpu;
    options.use_hw_multiplier = hw == 1;
    auto fw = BuildFirmware({{"m", source}}, options);
    ASSERT_TRUE(fw.ok());
    Machine machine;
    AmuletOs os(&machine, std::move(*fw), OsOptions{});
    ASSERT_TRUE(os.Boot().ok());
    auto r = os.Deliver(0, EventType::kButton, 0);
    ASSERT_TRUE(r.ok());
    cycles[hw] = r->cycles;
    results[hw] = machine.bus().PeekWord(os.firmware().image.SymbolOrZero("m_g_sink"));
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_LT(cycles[1] * 3, cycles[0] * 2)
      << "MPY32 should cut the mul-heavy loop by at least a third";
}


// ---------------------------------------------------------------------------
// Gate anatomy: the instruction-level mechanism behind Table 1's context-
// switch row, verified from the disassembled firmware.
// ---------------------------------------------------------------------------

size_t CountOccurrences(const std::string& haystack, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

std::string GateDisassembly(MemoryModel model, bool future_mpu = false) {
  AftOptions options;
  options.model = model;
  options.future_mpu = future_mpu;
  auto fw = BuildFirmware({{"g", "void on_init(void) { amulet_noop(); }"}}, options);
  EXPECT_TRUE(fw.ok()) << fw.status().ToString();
  if (!fw.ok()) {
    return "";
  }
  // OS text holds the gates: disassemble it and cut out the gate symbol.
  std::string os_text = DisassembleRange(
      *fw, kFramStart, static_cast<uint16_t>(fw->os_mpu_segb1 << 4));
  size_t start = os_text.find("__gate_g_amulet_noop:");
  EXPECT_NE(start, std::string::npos);
  size_t end = os_text.find("__", start + 2);  // next symbol
  return os_text.substr(start, end == std::string::npos ? std::string::npos : end - start);
}

TEST(GateAnatomyTest, NoIsolationGateIsMarshallingOnly) {
  std::string gate = GateDisassembly(MemoryModel::kNoIsolation);
  EXPECT_EQ(CountOccurrences(gate, "&0x05a"), 0u) << "no MPU register writes:\n" << gate;
  EXPECT_EQ(CountOccurrences(gate, ", sp"), 0u) << "no stack switch:\n" << gate;
  EXPECT_GE(CountOccurrences(gate, "&0x070"), 6u) << "HOSTIO marshalling:\n" << gate;
}

TEST(GateAnatomyTest, FeatureLimitedGateMatchesNoIsolation) {
  // Table 1: context switch None == FL (both 90 on silicon).
  EXPECT_EQ(GateDisassembly(MemoryModel::kFeatureLimited).substr(22),
            GateDisassembly(MemoryModel::kNoIsolation).substr(22));
}

TEST(GateAnatomyTest, SoftwareOnlyGateAddsTheStackSwitch) {
  std::string gate = GateDisassembly(MemoryModel::kSoftwareOnly);
  EXPECT_EQ(CountOccurrences(gate, "&0x05a"), 0u) << "still no MPU writes:\n" << gate;
  EXPECT_GE(CountOccurrences(gate, ", sp"), 2u) << "save + load SP:\n" << gate;
}

TEST(GateAnatomyTest, MpuGateAddsEightMpuRegisterWrites) {
  std::string gate = GateDisassembly(MemoryModel::kMpu);
  // Two reconfiguration sequences (to-OS and back-to-app), four writes each:
  // MPUCTL0 password, SEGB1, SEGB2, SAM.
  EXPECT_EQ(CountOccurrences(gate, "&0x05a"), 8u) << gate;
  EXPECT_GE(CountOccurrences(gate, ", sp"), 2u) << "per-app stacks too:\n" << gate;
}

TEST(GateAnatomyTest, FutureMpuGateDropsTheReconfiguration) {
  std::string gate = GateDisassembly(MemoryModel::kMpu, /*future_mpu=*/true);
  EXPECT_EQ(CountOccurrences(gate, "&0x05a"), 0u)
      << "a >=4-region MPU would need no per-switch programming:\n" << gate;
  EXPECT_GE(CountOccurrences(gate, ", sp"), 2u);
}

}  // namespace
}  // namespace amulet
