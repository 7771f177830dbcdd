// 32-bit `long` support: arithmetic, comparisons, conversions, parameters,
// returns, aggregates, and model-differential checks. Results are read back
// as two 16-bit words from app globals.
#include <gtest/gtest.h>

#include "src/common/strings.h"
#include "tests/compile_test_util.h"

namespace amulet {
namespace {

// Runs main() and returns the 32-bit global `name` (lo word first).
uint32_t RunAndGet32(const std::string& source, const std::string& name,
                     MemoryModel model = MemoryModel::kNoIsolation) {
  Machine m;
  auto out = CompileAndRun(&m, source, model, 20'000'000);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  if (!out.ok()) {
    return 0xDEADBEEF;
  }
  EXPECT_EQ(out->run.result, StepResult::kStopped);
  EXPECT_EQ(out->run.stop_code, 4);
  uint16_t addr = out->image.SymbolOrZero("t_g_" + name);
  EXPECT_NE(addr, 0) << name;
  return static_cast<uint32_t>(m.bus().PeekWord(addr)) |
         (static_cast<uint32_t>(m.bus().PeekWord(addr + 2)) << 16);
}

TEST(LongTest, LiteralAndStore) {
  EXPECT_EQ(RunAndGet32("long r; void main(void) { r = 123456; }", "r"), 123456u);
  EXPECT_EQ(RunAndGet32("long r; void main(void) { r = 0x89ABCDEF; }", "r"), 0x89ABCDEFu);
  EXPECT_EQ(RunAndGet32("long r; void main(void) { r = -1; }", "r"), 0xFFFFFFFFu);
}

TEST(LongTest, GlobalInitializer) {
  EXPECT_EQ(RunAndGet32("long r = 1000000; void main(void) { }", "r"), 1000000u);
  EXPECT_EQ(RunAndGet32("unsigned long r = 0xFEDCBA98; void main(void) { }", "r"),
            0xFEDCBA98u);
}

TEST(LongTest, AddSubCarryChains) {
  EXPECT_EQ(RunAndGet32("long r; void main(void) { long a = 0xFFFF; r = a + 1; }", "r"),
            0x10000u);
  EXPECT_EQ(RunAndGet32("long r; void main(void) { long a = 0x10000; r = a - 1; }", "r"),
            0xFFFFu);
  EXPECT_EQ(RunAndGet32("long r; void main(void) { long a = 123456; long b = 654321; "
                        "r = a + b; }",
                        "r"),
            777777u);
  EXPECT_EQ(RunAndGet32("long r; void main(void) { long a = 100000; long b = 300000; "
                        "r = a - b; }",
                        "r"),
            static_cast<uint32_t>(-200000));
}

TEST(LongTest, Multiply) {
  EXPECT_EQ(RunAndGet32("long r; void main(void) { long a = 1234; long b = 5678; "
                        "r = a * b; }",
                        "r"),
            1234u * 5678u);
  EXPECT_EQ(RunAndGet32("long r; void main(void) { long a = -300; long b = 7000; "
                        "r = a * b; }",
                        "r"),
            static_cast<uint32_t>(-2100000));
}

TEST(LongTest, Division) {
  EXPECT_EQ(RunAndGet32("long r; void main(void) { long a = 1000000; long b = 37; "
                        "r = a / b; }",
                        "r"),
            1000000u / 37);
  EXPECT_EQ(RunAndGet32("long r; void main(void) { long a = 1000000; long b = 37; "
                        "r = a % b; }",
                        "r"),
            1000000u % 37);
  EXPECT_EQ(RunAndGet32("long r; void main(void) { long a = -1000000; long b = 37; "
                        "r = a / b; }",
                        "r"),
            static_cast<uint32_t>(-27027));
  EXPECT_EQ(RunAndGet32("long r; void main(void) { long a = -1000000; long b = 37; "
                        "r = a % b; }",
                        "r"),
            static_cast<uint32_t>(-1));
  EXPECT_EQ(RunAndGet32("unsigned long r; void main(void) { unsigned long a = 0xF0000000; "
                        "unsigned long b = 16; r = a / b; }",
                        "r"),
            0xF0000000u / 16);
}

TEST(LongTest, Shifts) {
  EXPECT_EQ(RunAndGet32("long r; void main(void) { long a = 1; r = a << 20; }", "r"),
            1u << 20);
  EXPECT_EQ(RunAndGet32("unsigned long r; void main(void) { unsigned long a = 0x80000000; "
                        "r = a >> 31; }",
                        "r"),
            1u);
  EXPECT_EQ(RunAndGet32("long r; void main(void) { long a = -65536; r = a >> 8; }", "r"),
            static_cast<uint32_t>(-256));
  EXPECT_EQ(RunAndGet32("long r; void main(void) { long a = 3; int n = 10; r = a << n; }",
                        "r"),
            3u << 10);
}

TEST(LongTest, Bitwise) {
  EXPECT_EQ(RunAndGet32("long r; void main(void) { long a = 0x0F0F0F0F; "
                        "long b = 0x00FF00FF; r = (a & b) | 0x10000000; }",
                        "r"),
            ((0x0F0F0F0Fu & 0x00FF00FFu) | 0x10000000u));
  EXPECT_EQ(RunAndGet32("long r; void main(void) { long a = 0x12345678; r = ~a; }", "r"),
            ~0x12345678u);
  EXPECT_EQ(RunAndGet32("long r; void main(void) { long a = 0xAAAA5555; "
                        "r = a ^ 0xFFFF0000; }",
                        "r"),
            0xAAAA5555u ^ 0xFFFF0000u);
}

TEST(LongTest, Negation) {
  EXPECT_EQ(RunAndGet32("long r; void main(void) { long a = 100000; r = -a; }", "r"),
            static_cast<uint32_t>(-100000));
  EXPECT_EQ(RunAndGet32("long r; void main(void) { long a = -65536; r = -a; }", "r"),
            65536u);
}

TEST(LongTest, Comparisons) {
  const char* source =
      "int r; void main(void) { "
      "long big = 100000; long small = -100000; long same = 100000; "
      "r = 0; "
      "if (small < big) r += 1; "
      "if (big > small) r += 2; "
      "if (big == same) r += 4; "
      "if (small != big) r += 8; "
      "if (small <= big) r += 16; "
      "if (big >= same) r += 32; "
      "}";
  EXPECT_EQ(RunAndGet32(source, "r") & 0xFFFF, 63u);
}

TEST(LongTest, ComparisonHighVsLowWords) {
  // Cases where only low words or only high words differ.
  const char* source =
      "int r; void main(void) { "
      "long a = 0x00010000; long b = 0x0000FFFF; "  // highs differ
      "long c = 0x00020005; long d = 0x00020009; "  // lows differ
      "r = 0; "
      "if (a > b) r += 1; "
      "if (c < d) r += 2; "
      "if (!(a < b)) r += 4; "
      "}";
  EXPECT_EQ(RunAndGet32(source, "r") & 0xFFFF, 7u);
}

TEST(LongTest, UnsignedComparison) {
  const char* source =
      "int r; void main(void) { "
      "unsigned long big = 0xF0000000; unsigned long one = 1; "
      "r = 0; "
      "if (big > one) r += 1; "      // unsigned: huge
      "long sbig = (long)0xF0000000; "
      "if (sbig < (long)1) r += 2; "  // signed: negative
      "}";
  EXPECT_EQ(RunAndGet32(source, "r") & 0xFFFF, 3u);
}

TEST(LongTest, MixedWidthArithmetic) {
  EXPECT_EQ(RunAndGet32("long r; void main(void) { int small = 1000; long big = 100000; "
                        "r = big + small; }",
                        "r"),
            101000u);
  EXPECT_EQ(RunAndGet32("long r; void main(void) { int neg = -5; long big = 100000; "
                        "r = big + neg; }",
                        "r"),
            99995u)
      << "signed 16-bit operand must sign-extend";
  EXPECT_EQ(RunAndGet32("long r; void main(void) { unsigned u = 0xFFFF; long big = 0; "
                        "r = big + u; }",
                        "r"),
            0xFFFFu)
      << "unsigned 16-bit operand must zero-extend";
}

TEST(LongTest, NarrowingAssignment) {
  EXPECT_EQ(RunAndGet32("int r; void main(void) { long a = 0x12345678; r = (int)a; }",
                        "r") &
                0xFFFF,
            0x5678u);
  EXPECT_EQ(RunAndGet32("int r; void main(void) { long a = 0x0001FFFF; r = a; }", "r") &
                0xFFFF,
            0xFFFFu)
      << "implicit narrowing keeps the low word";
}

TEST(LongTest, LongParametersAndReturn) {
  const char* source =
      "long r; "
      "long sum(long a, long c) { return a + c; } "       // 2+2 register words
      "long bump(long a, int by) { return a + by; } "     // 2+1
      "void main(void) { r = bump(sum(100000, 200000), 34); }";
  EXPECT_EQ(RunAndGet32(source, "r"), 300034u);
}

TEST(LongTest, TooManyParameterWordsRejected) {
  Machine m;
  auto out = CompileAndRun(&m,
                           "long f(long a, long b, int c) { return a + b + c; } "
                           "void main(void) { f(1, 2, 3); }");
  EXPECT_FALSE(out.ok()) << "2+2+1 register words exceed the budget";
}

TEST(LongTest, LongArraysAndLoops) {
  const char* source =
      "long acc[4]; long r; "
      "void main(void) { "
      "for (int i = 0; i < 4; i++) { acc[i] = 100000 + i; } "
      "r = 0; "
      "for (int i = 0; i < 4; i++) { r += acc[i]; } "
      "}";
  EXPECT_EQ(RunAndGet32(source, "r"), 400006u);
}

// A 4-byte computed access stages its address in r11 and keeps it there
// across the checks of that address. A runtime routine called in between
// (__rt_mul32, __rt_divs32 and __rt_mods32 use r11 as scratch) must make the
// store stage it again, under every model.
TEST(LongTest, ComputedStoreAfterRuntimeCallRestagesAddress) {
  const char* source =
      "long acc[4]; long y; long r; int idx; "
      "void main(void) { idx = 2; acc[2] = 3; y = 100000; "
      "acc[idx & 3] *= y; acc[idx] = acc[idx] / y + acc[idx] % 7; r = acc[2]; }";
  const long long product = 3 * 100000;
  const uint32_t expected = static_cast<uint32_t>(product / 100000 + product % 7);
  for (MemoryModel model : {MemoryModel::kNoIsolation, MemoryModel::kFeatureLimited,
                            MemoryModel::kMpu, MemoryModel::kSoftwareOnly}) {
    EXPECT_EQ(RunAndGet32(source, "r", model), expected) << MemoryModelName(model);
  }
}

TEST(LongTest, LongInStructs) {
  const char* source =
      "struct Counter { int id; long total; }; "
      "struct Counter c; long r; "
      "void main(void) { c.id = 7; c.total = 1000000; c.total += 234; r = c.total; }";
  EXPECT_EQ(RunAndGet32(source, "r"), 1000234u);
}

TEST(LongTest, LongThroughPointers) {
  const char* source =
      "long value; long r; "
      "void bump(long* p, int by) { *p = *p + by; } "
      "void main(void) { value = 500000; bump(&value, 99); r = value; }";
  EXPECT_EQ(RunAndGet32(source, "r"), 500099u);
}

TEST(LongTest, IncDecAndCompound) {
  const char* source =
      "long r; void main(void) { long a = 0xFFFF; a++; a++; a--; "
      "a *= 2; a -= 1; r = a; }";
  EXPECT_EQ(RunAndGet32(source, "r"), ((0xFFFFu + 1) * 2) - 1);
}

TEST(LongTest, TernaryAndConditions) {
  EXPECT_EQ(RunAndGet32("long r; void main(void) { long a = 100000; "
                        "r = a > 50000 ? a * 2 : a; }",
                        "r"),
            200000u);
  EXPECT_EQ(RunAndGet32("int r; void main(void) { long a = 0x10000; "
                        "r = 0; if (a) r = 1; "     // low word is zero!
                        "long z = 0; if (!z) r += 2; }",
                        "r") &
                0xFFFF,
            3u)
      << "truth tests must look at both words";
}

TEST(LongTest, CyclesAccumulatorUseCase) {
  // The motivating use: accumulating quantities that overflow 16 bits
  // (the paper's own evaluation counts cycles in the billions).
  const char* source =
      "long total; long r; "
      "void main(void) { total = 0; "
      "for (int i = 0; i < 1000; i++) { total += 142; } "
      "r = total; }";
  EXPECT_EQ(RunAndGet32(source, "r"), 142000u);
}

TEST(LongTest, SizeofLong) {
  EXPECT_EQ(RunAndGet32("int r; void main(void) { r = sizeof(long) * 10 + "
                        "sizeof(unsigned long); }",
                        "r") &
                0xFFFF,
            44u);
}

TEST(LongTest, WideIndexRejected) {
  Machine m;
  auto out =
      CompileAndRun(&m, "int a[4]; void main(void) { long i = 1; a[i] = 2; }");
  EXPECT_FALSE(out.ok());
}

TEST(LongTest, WidePointerOffsetRejected) {
  Machine m;
  auto out = CompileAndRun(
      &m, "int a[4]; void main(void) { int* p = a; long off = 1; p = p + off; }");
  EXPECT_FALSE(out.ok());
}

// Edge-value comparison sweep: pairs around the signed/unsigned boundaries.
struct CmpCase {
  int32_t a;
  int32_t b;
};

class LongCompareEdges : public ::testing::TestWithParam<CmpCase> {};

TEST_P(LongCompareEdges, AllSixRelationsMatchHost) {
  const CmpCase& c = GetParam();
  const std::string source = StrFormat(
      "int r; void main(void) { "
      "long a = %d; long b = %d; r = 0; "
      "if (a < b) r += 1; if (a > b) r += 2; if (a == b) r += 4; "
      "if (a != b) r += 8; if (a <= b) r += 16; if (a >= b) r += 32; }",
      c.a, c.b);
  int expect = 0;
  if (c.a < c.b) expect += 1;
  if (c.a > c.b) expect += 2;
  if (c.a == c.b) expect += 4;
  if (c.a != c.b) expect += 8;
  if (c.a <= c.b) expect += 16;
  if (c.a >= c.b) expect += 32;
  EXPECT_EQ(static_cast<int>(RunAndGet32(source, "r") & 0xFFFF), expect)
      << c.a << " vs " << c.b;
}

INSTANTIATE_TEST_SUITE_P(
    Edges, LongCompareEdges,
    ::testing::Values(CmpCase{0, 0}, CmpCase{-1, 0}, CmpCase{0x7FFFFFFF, -2147483647 - 1},
                      CmpCase{-2147483647 - 1, -2147483647 - 1},
                      CmpCase{0x10000, 0xFFFF},          // highs differ by one
                      CmpCase{0x7FFF0000, 0x7FFF0001},   // lows differ by one
                      CmpCase{-65536, 65536}, CmpCase{-65537, -65536},
                      CmpCase{0x7FFFFFFF, 0x7FFFFFFE}, CmpCase{1, -1}));

TEST(LongTest, DivisionEdgeValues) {
  // INT32_MIN magnitudes survive our magnitude-based signed division.
  EXPECT_EQ(RunAndGet32("long r; void main(void) { long a = -2147483647 - 1; "
                        "r = a / 1; }",
                        "r"),
            0x80000000u);
  EXPECT_EQ(RunAndGet32("long r; void main(void) { long a = -2147483647 - 1; "
                        "r = a / 2; }",
                        "r"),
            static_cast<uint32_t>(-1073741824));
  EXPECT_EQ(RunAndGet32("long r; void main(void) { long a = 0x7FFFFFFF; r = a / 3; }",
                        "r"),
            0x7FFFFFFFu / 3);
  // Division by zero is defined as zero by the runtime (no trap).
  EXPECT_EQ(RunAndGet32("long r; void main(void) { long a = 5; long z = 0; r = a / z; }",
                        "r"),
            0u);
}

TEST(LongTest, MultiplyWrapsAt32Bits) {
  EXPECT_EQ(RunAndGet32("long r; void main(void) { long a = 0x10000; r = a * a; }", "r"),
            0u);
  EXPECT_EQ(
      RunAndGet32("long r; void main(void) { long a = 100000; long b = 100000; r = a * b; }",
                  "r"),
      static_cast<uint32_t>(100000ll * 100000ll & 0xFFFFFFFF));
}

class LongDifferential : public ::testing::TestWithParam<MemoryModel> {};

TEST_P(LongDifferential, SameResultUnderIsolation) {
  const char* source =
      "long r; long acc[3]; "
      "void main(void) { "
      "acc[0] = 123456; acc[1] = -99999; acc[2] = 0x7FFF0000 / 3; "
      "long s = 0; "
      "for (int i = 0; i < 3; i++) { s += acc[i] / 7 + acc[i] % 7; } "
      "r = s * 3 - 1; }";
  const uint32_t baseline = RunAndGet32(source, "r", MemoryModel::kNoIsolation);
  EXPECT_EQ(RunAndGet32(source, "r", GetParam()), baseline) << MemoryModelName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Models, LongDifferential,
                         ::testing::Values(MemoryModel::kFeatureLimited, MemoryModel::kMpu,
                                           MemoryModel::kSoftwareOnly));

}  // namespace
}  // namespace amulet
