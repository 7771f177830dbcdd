// End-to-end compiler tests: AmuletC programs executed on the simulated
// MSP430, results read back from app globals.
#include <gtest/gtest.h>

#include "tests/compile_test_util.h"

namespace amulet {
namespace {

uint16_t RunAndGet(const std::string& source, const std::string& global,
                   MemoryModel model = MemoryModel::kNoIsolation) {
  Machine m;
  auto out = CompileAndRun(&m, source, model);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  if (!out.ok()) {
    return 0xDEAD;
  }
  EXPECT_EQ(out->run.result, StepResult::kStopped) << "program did not stop cleanly";
  EXPECT_EQ(out->run.stop_code, 4);
  return GlobalWord(&m, out->image, global);
}

TEST(CompilerExecTest, ReturnConstant) {
  EXPECT_EQ(RunAndGet("int r; void main(void) { r = 42; }", "r"), 42);
}

TEST(CompilerExecTest, Arithmetic) {
  EXPECT_EQ(RunAndGet("int r; void main(void) { r = 10 + 3 * 4 - 6 / 2; }", "r"), 19);
}

TEST(CompilerExecTest, MultiplyRuntime) {
  EXPECT_EQ(RunAndGet("int r; int a; void main(void) { a = 123; r = a * 37; }", "r"),
            123 * 37);
}

TEST(CompilerExecTest, SignedDivision) {
  EXPECT_EQ(static_cast<int16_t>(RunAndGet(
                "int r; int a; void main(void) { a = -37; r = a / 5; }", "r")),
            -7);
  EXPECT_EQ(static_cast<int16_t>(RunAndGet(
                "int r; int a; void main(void) { a = -37; r = a % 5; }", "r")),
            -2);
}

TEST(CompilerExecTest, UnsignedDivision) {
  EXPECT_EQ(RunAndGet("unsigned r; unsigned a; void main(void) { a = 50000; r = a / 7; }",
                      "r"),
            50000u / 7);
  EXPECT_EQ(RunAndGet("unsigned r; unsigned a; void main(void) { a = 50000; r = a % 7; }",
                      "r"),
            50000u % 7);
}

TEST(CompilerExecTest, Shifts) {
  EXPECT_EQ(RunAndGet("int r; void main(void) { r = 3 << 4; }", "r"), 48);
  EXPECT_EQ(RunAndGet("unsigned r; unsigned a; void main(void) { a = 0x8000; r = a >> 3; }",
                      "r"),
            0x1000);
  EXPECT_EQ(static_cast<int16_t>(RunAndGet(
                "int r; int a; void main(void) { a = -64; r = a >> 2; }", "r")),
            -16);
  EXPECT_EQ(RunAndGet("int r; int n; void main(void) { n = 5; r = 3 << n; }", "r"), 96);
}

TEST(CompilerExecTest, BitwiseOps) {
  EXPECT_EQ(RunAndGet("int r; void main(void) { r = (0xF0F0 & 0x0FF0) | 0x000F; }", "r"),
            0x00FF);
  EXPECT_EQ(RunAndGet("int r; void main(void) { r = 0xAAAA ^ 0xFFFF; }", "r"), 0x5555);
  EXPECT_EQ(RunAndGet("int r; void main(void) { r = ~0x00FF & 0xFFFF; }", "r"), 0xFF00);
}

TEST(CompilerExecTest, ComparisonsAndConditionals) {
  EXPECT_EQ(RunAndGet("int r; void main(void) { r = (3 < 4) + (4 <= 4) + (5 > 4) + "
                      "(4 >= 5) + (4 == 4) + (4 != 4); }",
                      "r"),
            4);
  EXPECT_EQ(RunAndGet("int r; int a; void main(void) { a = -1; if (a < 1) r = 7; else r = 8; }",
                      "r"),
            7);
  EXPECT_EQ(RunAndGet("unsigned r; unsigned a; void main(void) { a = 0xFFFF; "
                      "if (a < 1) r = 7; else r = 8; }",
                      "r"),
            8)
      << "0xFFFF is large unsigned";
}

TEST(CompilerExecTest, TernaryAndLogical) {
  EXPECT_EQ(RunAndGet("int r; int a; void main(void) { a = 3; r = a > 2 ? 10 : 20; }", "r"),
            10);
  EXPECT_EQ(RunAndGet("int r; int a; void main(void) { a = 0; r = (a && (1/a)) + 5; }", "r"),
            5)
      << "&& must short-circuit (no divide-by-zero)";
  EXPECT_EQ(RunAndGet("int r; void main(void) { r = (1 || 0) + (0 || 0) + !0 + !7; }", "r"),
            2);
}

TEST(CompilerExecTest, WhileLoop) {
  EXPECT_EQ(RunAndGet("int r; void main(void) { int i = 0; r = 0; "
                      "while (i < 10) { r += i; i++; } }",
                      "r"),
            45);
}

TEST(CompilerExecTest, ForLoopWithBreakContinue) {
  EXPECT_EQ(RunAndGet("int r; void main(void) { r = 0; "
                      "for (int i = 0; i < 100; i++) { "
                      "  if (i % 2 == 0) continue; "
                      "  if (i > 10) break; "
                      "  r += i; } }",
                      "r"),
            1 + 3 + 5 + 7 + 9);
}

TEST(CompilerExecTest, DoWhile) {
  EXPECT_EQ(RunAndGet("int r; void main(void) { int i = 10; r = 0; "
                      "do { r++; i--; } while (i > 0); }",
                      "r"),
            10);
}

TEST(CompilerExecTest, FunctionsAndRecursion) {
  EXPECT_EQ(RunAndGet("int r; "
                      "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); } "
                      "void main(void) { r = fib(12); }",
                      "r"),
            144);
}

TEST(CompilerExecTest, FourArguments) {
  EXPECT_EQ(RunAndGet("int r; "
                      "int f(int a, int b, int c, int d) { return a*1000 + b*100 + c*10 + d; } "
                      "void main(void) { r = f(1, 2, 3, 4); }",
                      "r"),
            1234);
}

TEST(CompilerExecTest, GlobalArraysAndInit) {
  EXPECT_EQ(RunAndGet("int tbl[4] = {5, 6, 7, 8}; int r; "
                      "void main(void) { r = tbl[0] + tbl[3]; }",
                      "r"),
            13);
}

TEST(CompilerExecTest, DynamicArrayIndexing) {
  EXPECT_EQ(RunAndGet("int a[8]; int r; "
                      "void main(void) { for (int i = 0; i < 8; i++) a[i] = i * i; "
                      "r = 0; for (int i = 0; i < 8; i++) r += a[i]; }",
                      "r"),
            0 + 1 + 4 + 9 + 16 + 25 + 36 + 49);
}

TEST(CompilerExecTest, LocalArrays) {
  EXPECT_EQ(RunAndGet("int r; void main(void) { int a[5] = {1, 2, 3}; "
                      "r = a[0] + a[1] + a[2] + a[3] + a[4]; }",
                      "r"),
            6)
      << "partial init zero-fills";
}

TEST(CompilerExecTest, CharArraysAndSignExtension) {
  EXPECT_EQ(static_cast<int16_t>(
                RunAndGet("char c[2]; int r; void main(void) { c[0] = -5; r = c[0]; }", "r")),
            -5);
  EXPECT_EQ(RunAndGet("unsigned char c[2]; int r; void main(void) { c[0] = 200; r = c[0]; }",
                      "r"),
            200);
}

TEST(CompilerExecTest, Pointers) {
  EXPECT_EQ(RunAndGet("int x; int r; void main(void) { int* p = &x; *p = 99; r = x; }", "r"),
            99);
  EXPECT_EQ(RunAndGet("int a[4]; int r; void main(void) { int* p = a; "
                      "*p = 1; *(p + 1) = 2; p[2] = 3; "
                      "r = a[0] + a[1] + a[2]; }",
                      "r"),
            6);
}

TEST(CompilerExecTest, PointerWalk) {
  EXPECT_EQ(RunAndGet("int a[6]; int r; void main(void) { "
                      "for (int i = 0; i < 6; i++) a[i] = i + 1; "
                      "int* p = a; int* end = a + 6; r = 0; "
                      "while (p < end) { r += *p; p++; } }",
                      "r"),
            21);
}

TEST(CompilerExecTest, PointerDifference) {
  EXPECT_EQ(RunAndGet("int a[10]; int r; void main(void) { "
                      "int* p = a + 7; int* q = a + 2; r = p - q; }",
                      "r"),
            5);
}

TEST(CompilerExecTest, Structs) {
  EXPECT_EQ(RunAndGet("struct Point { int x; int y; char tag; }; "
                      "struct Point g; int r; "
                      "void main(void) { g.x = 10; g.y = 32; g.tag = 'A'; "
                      "r = g.x + g.y + g.tag; }",
                      "r"),
            10 + 32 + 'A');
}

TEST(CompilerExecTest, StructPointers) {
  EXPECT_EQ(RunAndGet("struct P { int x; int y; }; struct P g; int r; "
                      "void f(struct P* p) { p->x = 3; p->y = 4; } "
                      "void main(void) { f(&g); r = g.x * 10 + g.y; }",
                      "r"),
            34);
}

TEST(CompilerExecTest, LocalStructs) {
  EXPECT_EQ(RunAndGet("struct P { int a; int b; }; int r; "
                      "void main(void) { struct P p = {7, 8}; r = p.a * p.b; }",
                      "r"),
            56);
}

TEST(CompilerExecTest, FunctionPointers) {
  EXPECT_EQ(RunAndGet("int add(int a, int b) { return a + b; } "
                      "int mul(int a, int b) { return a * b; } "
                      "int r; "
                      "void main(void) { int (*op)(int, int) = add; r = op(3, 4); "
                      "op = mul; r += op(3, 4); }",
                      "r"),
            7 + 12);
}

TEST(CompilerExecTest, FunctionPointerTable) {
  EXPECT_EQ(RunAndGet("int inc(int a) { return a + 1; } "
                      "int dbl(int a) { return a + a; } "
                      "int (*ops[2])(int) = {inc, dbl}; int r; "
                      "void main(void) { r = ops[0](10) + ops[1](10); }",
                      "r"),
            11 + 20);
}

TEST(CompilerExecTest, Switch) {
  EXPECT_EQ(RunAndGet("int classify(int x) { "
                      "  switch (x) { "
                      "    case 0: return 100; "
                      "    case 1: "
                      "    case 2: return 200; "
                      "    default: return 300; "
                      "  } "
                      "} "
                      "int r; void main(void) { r = classify(0) + classify(1) + classify(2) "
                      "+ classify(9); }",
                      "r"),
            100 + 200 + 200 + 300);
}

TEST(CompilerExecTest, SwitchFallthrough) {
  EXPECT_EQ(RunAndGet("int r; void main(void) { r = 0; "
                      "switch (2) { case 1: r += 1; case 2: r += 2; case 3: r += 4; } }",
                      "r"),
            6);
}

TEST(CompilerExecTest, EnumsAndSizeof) {
  EXPECT_EQ(RunAndGet("enum State { IDLE, RUN = 5, DONE }; int r; "
                      "void main(void) { r = IDLE + RUN + DONE + sizeof(int) + "
                      "sizeof(char); }",
                      "r"),
            0 + 5 + 6 + 2 + 1);
}

TEST(CompilerExecTest, SizeofStructRespectsAlignment) {
  EXPECT_EQ(RunAndGet("struct S { char c; int x; char d; }; int r; "
                      "void main(void) { r = sizeof(struct S); }",
                      "r"),
            6);
}

TEST(CompilerExecTest, CompoundAssignmentOnPlaces) {
  EXPECT_EQ(RunAndGet("int a[3]; int r; void main(void) { a[1] = 10; "
                      "a[1] += 5; a[1] *= 2; a[1] -= 6; "
                      "r = a[1]; }",
                      "r"),
            24);
}

TEST(CompilerExecTest, IncDecSemantics) {
  EXPECT_EQ(RunAndGet("int r; void main(void) { int i = 5; r = i++ * 10 + i; }", "r"), 56);
  EXPECT_EQ(RunAndGet("int r; void main(void) { int i = 5; r = ++i * 10 + i; }", "r"), 66);
  EXPECT_EQ(RunAndGet("int r; void main(void) { int i = 5; r = i-- * 10 + i; }", "r"), 54);
}

TEST(CompilerExecTest, Casts) {
  EXPECT_EQ(RunAndGet("int r; void main(void) { int x = 0x1234; r = (char)x; }", "r"), 0x34);
  EXPECT_EQ(static_cast<int16_t>(RunAndGet(
                "int r; void main(void) { int x = 0x12F0; r = (char)x; }", "r")),
            static_cast<int16_t>(static_cast<int8_t>(0xF0)));
  EXPECT_EQ(RunAndGet("int r; void main(void) { int x = 0x12F0; r = (unsigned char)x; }",
                      "r"),
            0xF0);
}

TEST(CompilerExecTest, StringLiterals) {
  EXPECT_EQ(RunAndGet("int r; void main(void) { char* s = \"AB\"; r = s[0] * 256 + s[1]; }",
                      "r"),
            'A' * 256 + 'B');
}

TEST(CompilerExecTest, GlobalScalarInitializers) {
  EXPECT_EQ(RunAndGet("int a = 5; int b = -3; unsigned c = 0xBEEF; int r; "
                      "void main(void) { r = a + b + (c == 0xBEEF ? 100 : 0); }",
                      "r"),
            102);
}

TEST(CompilerExecTest, QuicksortIterative) {
  // The paper's Quicksort benchmark shape: explicit stack, array workload.
  const char* source =
      "int data[16]; int stack[32]; int r; "
      "void sort(void) { "
      "  int top = 0; stack[top] = 0; stack[top + 1] = 15; top += 2; "
      "  while (top > 0) { "
      "    top -= 2; int lo = stack[top]; int hi = stack[top + 1]; "
      "    if (lo >= hi) continue; "
      "    int pivot = data[hi]; int i = lo - 1; "
      "    for (int j = lo; j < hi; j++) { "
      "      if (data[j] <= pivot) { i++; int t = data[i]; data[i] = data[j]; data[j] = t; } "
      "    } "
      "    i++; int t = data[i]; data[i] = data[hi]; data[hi] = t; "
      "    stack[top] = lo; stack[top + 1] = i - 1; top += 2; "
      "    stack[top] = i + 1; stack[top + 1] = hi; top += 2; "
      "  } "
      "} "
      "void main(void) { "
      "  int seed = 7; "
      "  for (int i = 0; i < 16; i++) { seed = seed * 31 + 17; data[i] = seed & 0xFF; } "
      "  sort(); "
      "  r = 1; "
      "  for (int i = 1; i < 16; i++) { if (data[i - 1] > data[i]) r = 0; } "
      "}";
  EXPECT_EQ(RunAndGet(source, "r"), 1);
}

// ---------------------------------------------------------------------------
// Model equivalence: isolation must not change program semantics.
// ---------------------------------------------------------------------------

class ModelEquivalence : public ::testing::TestWithParam<MemoryModel> {};

TEST_P(ModelEquivalence, PointerFreeProgramSameResultEverywhere) {
  const char* source =
      "int a[10]; int r; "
      "int sum(void) { int s = 0; for (int i = 0; i < 10; i++) s += a[i]; return s; } "
      "void main(void) { for (int i = 0; i < 10; i++) a[i] = i * 3; r = sum(); }";
  EXPECT_EQ(RunAndGet(source, "r", GetParam()), 135);
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelEquivalence,
                         ::testing::Values(MemoryModel::kNoIsolation,
                                           MemoryModel::kFeatureLimited,
                                           MemoryModel::kMpu, MemoryModel::kSoftwareOnly));

class FullFeaturedModels : public ::testing::TestWithParam<MemoryModel> {};

TEST_P(FullFeaturedModels, PointerProgramSameResult) {
  const char* source =
      "int a[6]; int r; "
      "void main(void) { for (int i = 0; i < 6; i++) a[i] = i + 1; "
      "int* p = a; int s = 0; while (p < a + 6) { s += *p; p++; } r = s; }";
  EXPECT_EQ(RunAndGet(source, "r", GetParam()), 21);
}

TEST_P(FullFeaturedModels, RecursionWorks) {
  const char* source =
      "int r; int fact(int n) { return n <= 1 ? 1 : n * fact(n - 1); } "
      "void main(void) { r = fact(7); }";
  EXPECT_EQ(RunAndGet(source, "r", GetParam()), 5040);
}

INSTANTIATE_TEST_SUITE_P(PointerModels, FullFeaturedModels,
                         ::testing::Values(MemoryModel::kNoIsolation, MemoryModel::kMpu,
                                           MemoryModel::kSoftwareOnly));

// ---------------------------------------------------------------------------
// Isolation faults
// ---------------------------------------------------------------------------

TEST(IsolationTest, WildPointerWriteFaultsUnderSoftwareOnly) {
  Machine m;
  auto out = CompileAndRun(&m,
                           "int r; void main(void) { int* p = (int*)0x1C00; *p = 1; r = 7; }",
                           MemoryModel::kSoftwareOnly);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->run.result, StepResult::kStopped);
  EXPECT_EQ(out->run.stop_code, kStopSoftwareFault);
  EXPECT_EQ(m.hostio().fault_code(), 2);  // memory-bound check
  EXPECT_EQ(m.hostio().fault_addr(), 0x1C00);
}

TEST(IsolationTest, WildPointerWriteFaultsUnderMpuModelChecks) {
  // Below the data region: caught by the compiler's lower-bound check even
  // though the MPU itself cannot protect SRAM.
  Machine m;
  auto out = CompileAndRun(&m,
                           "int r; void main(void) { int* p = (int*)0x1C00; *p = 1; r = 7; }",
                           MemoryModel::kMpu);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->run.stop_code, kStopSoftwareFault);
}

TEST(IsolationTest, NoIsolationLetsWildWritesThrough) {
  Machine m;
  auto out = CompileAndRun(&m,
                           "int r; void main(void) { int* p = (int*)0x1C00; *p = 0xAB; r = 7; }",
                           MemoryModel::kNoIsolation);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->run.stop_code, 4);
  EXPECT_EQ(m.bus().PeekWord(0x1C00), 0xAB) << "baseline has no protection";
}

TEST(IsolationTest, ArrayOverrunFaultsUnderFeatureLimited) {
  Machine m;
  auto out = CompileAndRun(&m,
                           "int a[4]; int r; void main(void) { int i = 6; a[i] = 1; r = 7; }",
                           MemoryModel::kFeatureLimited);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->run.stop_code, kStopSoftwareFault);
  EXPECT_EQ(m.hostio().fault_code(), 1);  // index check
  EXPECT_EQ(m.hostio().fault_addr(), 6);
}

TEST(IsolationTest, NegativeIndexFaultsUnderFeatureLimited) {
  Machine m;
  auto out = CompileAndRun(&m,
                           "int a[4]; int r; void main(void) { int i = -1; a[i] = 1; r = 7; }",
                           MemoryModel::kFeatureLimited);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->run.stop_code, kStopSoftwareFault);
  EXPECT_EQ(m.hostio().fault_code(), 1);
}

TEST(IsolationTest, InBoundsAccessesNeverFault) {
  for (MemoryModel model : {MemoryModel::kFeatureLimited, MemoryModel::kMpu,
                            MemoryModel::kSoftwareOnly}) {
    Machine m;
    auto out = CompileAndRun(
        &m, "int a[8]; int r; void main(void) { for (int i = 0; i < 8; i++) a[i] = i; r = a[7]; }",
        model);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out->run.stop_code, 4) << MemoryModelName(model);
    EXPECT_EQ(GlobalWord(&m, out->image, "r"), 7u) << MemoryModelName(model);
  }
}

TEST(IsolationTest, CheckStatsCountInsertedChecks) {
  Machine m;
  auto out = CompileAndRun(&m,
                           "int a[4]; int r; void main(void) { int i = 1; a[i] = 5; r = a[i]; }",
                           MemoryModel::kSoftwareOnly);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->checks.data_checks, 2);  // one per dynamic access
  EXPECT_EQ(out->checks.index_checks, 0);
  EXPECT_GE(out->checks.ret_checks, 1);
}

TEST(IsolationTest, FeatureLimitedRejectsPointerPrograms) {
  Machine m;
  auto out = CompileAndRun(&m, "int x; void main(void) { int* p = &x; *p = 1; }",
                           MemoryModel::kFeatureLimited);
  EXPECT_FALSE(out.ok());
}

TEST(IsolationTest, FeatureLimitedRejectsRecursion) {
  Machine m;
  auto out = CompileAndRun(&m, "int f(int n) { return n <= 0 ? 0 : f(n - 1); } "
                               "void main(void) { f(3); }",
                           MemoryModel::kFeatureLimited);
  EXPECT_FALSE(out.ok());
}

// ---------------------------------------------------------------------------
// Front-end rejection suite
// ---------------------------------------------------------------------------

Status CompileOnly(const std::string& source) {
  ASSIGN_OR_RETURN(std::unique_ptr<Program> program, Parse(source, "t"));
  FeatureAudit audit;
  SemaOptions options;
  return Analyze(program.get(), options, &audit);
}

TEST(FrontEndErrorsTest, RejectsBadPrograms) {
  EXPECT_FALSE(CompileOnly("void main(void) { goto out; out: ; }").ok());
  EXPECT_FALSE(CompileOnly("void main(void) { asm(\"nop\"); }").ok());
  EXPECT_FALSE(CompileOnly("void main(void) { undeclared = 1; }").ok());
  EXPECT_FALSE(CompileOnly("void main(void) { int x; x = \"str\"; }").ok());
  EXPECT_FALSE(CompileOnly("int f(int a); void main(void) { f(1, 2); }").ok());
  EXPECT_FALSE(CompileOnly("void main(void) { 5 = 6; }").ok());
  EXPECT_FALSE(CompileOnly("void main(void) { break; }").ok());
  EXPECT_FALSE(CompileOnly("void main(void) { int x; int x; }").ok());
  EXPECT_FALSE(CompileOnly("struct S { int a; }; void main(void) { struct S s; s.b = 1; }")
                   .ok());
  EXPECT_FALSE(CompileOnly("void main(void) { switch (1) { case 1: case 1: ; } }").ok());
  EXPECT_FALSE(CompileOnly("typedef int foo;").ok());
  EXPECT_FALSE(CompileOnly("int f(void);").ok());  // declared but never defined
  EXPECT_FALSE(CompileOnly("const int k = 5; void main(void) { k = 6; }").ok());
}

TEST(FrontEndErrorsTest, AuditsFeatures) {
  auto program = Parse("int x; void main(void) { int* p = &x; *p = 2; }", "t");
  ASSERT_TRUE(program.ok());
  FeatureAudit audit;
  SemaOptions options;
  ASSERT_TRUE(Analyze(program->get(), options, &audit).ok());
  EXPECT_TRUE(audit.uses_pointers);
  EXPECT_FALSE(audit.uses_recursion);

  auto rec = Parse("int f(int n) { return n <= 0 ? 0 : f(n - 1); } void main(void) { f(3); }",
                   "t");
  ASSERT_TRUE(rec.ok());
  FeatureAudit rec_audit;
  ASSERT_TRUE(Analyze(rec->get(), options, &rec_audit).ok());
  EXPECT_TRUE(rec_audit.uses_recursion);
}

TEST(FrontEndErrorsTest, MutualRecursionDetected) {
  auto program = Parse("int g(int n); int f(int n) { return g(n); } "
                       "int g(int n) { return n <= 0 ? 0 : f(n - 1); } "
                       "void main(void) { f(3); }",
                       "t");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  FeatureAudit audit;
  SemaOptions options;
  ASSERT_TRUE(Analyze(program->get(), options, &audit).ok());
  EXPECT_TRUE(audit.uses_recursion);
}


// ---------------------------------------------------------------------------
// Value forwarding (codegen peephole): identical semantics, fewer cycles.
// ---------------------------------------------------------------------------

struct ForwardingOutcome {
  uint16_t result;
  uint64_t cycles;
};

ForwardingOutcome RunWithForwarding(const std::string& source, bool forward) {
  Machine machine;
  auto out = CompileAndRun(&machine, source, MemoryModel::kSoftwareOnly, 5'000'000,
                           /*optimize_checks=*/false, /*forward_values=*/forward);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  if (!out.ok()) {
    return {};
  }
  EXPECT_EQ(out->run.result, StepResult::kStopped);
  return {GlobalWord(&machine, out->image, "r"), machine.cpu().cycle_count()};
}

TEST(ValueForwardingTest, SameResultsFewerCycles) {
  const char* kKernels[] = {
      // arithmetic + loops
      "int r; void main(void) { int acc = 0; for (int i = 0; i < 50; i++) "
      "{ acc += i * 3 - (i >> 1); } r = acc & 0x7FFF; }",
      // arrays + checked accesses
      "int a[16]; int r; void main(void) { for (int i = 0; i < 16; i++) a[i] = i * i; "
      "r = 0; for (int i = 0; i < 16; i++) r += a[i]; }",
      // calls and conditionals
      "int r; int f(int x) { return x > 10 ? x - 10 : x + 10; } "
      "void main(void) { r = 0; for (int i = 0; i < 30; i++) r += f(i); }",
  };
  for (const char* kernel : kKernels) {
    ForwardingOutcome fast = RunWithForwarding(kernel, true);
    ForwardingOutcome slow = RunWithForwarding(kernel, false);
    EXPECT_EQ(fast.result, slow.result) << kernel;
    EXPECT_LT(fast.cycles, slow.cycles) << "forwarding must save cycles: " << kernel;
  }
}

}  // namespace
}  // namespace amulet
