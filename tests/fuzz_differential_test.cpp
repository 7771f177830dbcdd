// Differential fuzzing: generate random (deterministic, seeded) integer
// programs, evaluate them with a host-side reference that mirrors AmuletC
// semantics exactly (16/32-bit two's complement, C truncation division,
// shift counts masked), compile and run them on the simulated MSP430, and
// compare — under every memory model. Any divergence is a codegen, runtime-
// routine, or isolation-transparency bug.
//
// Every program additionally runs twice on the simulator — once on the
// predecoded fast-dispatch core and once on the baseline interpreter
// (cpu().set_predecode(false)) — and the two machines' full snapshots must
// be byte-identical. This is the bit-identity gate for the predecode cache
// (docs/simulator.md, "Predecoded instruction cache").
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/common/strings.h"
#include "src/mcu/hostio.h"
#include "src/mcu/memory_map.h"
#include "src/mcu/snapshot.h"
#include "tests/compile_test_util.h"

namespace amulet {
namespace {

// Deterministic RNG (so failures reproduce by seed).
class Rng {
 public:
  explicit Rng(uint32_t seed) : state_(seed * 2654435761u + 1) {}
  uint32_t Next() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 17;
    state_ ^= state_ << 5;
    return state_;
  }
  int Range(int lo, int hi) { return lo + static_cast<int>(Next() % (hi - lo + 1)); }

 private:
  uint32_t state_;
};

// A generated expression: C source text plus its reference value, tracked at
// the precision AmuletC would use (wide = 32-bit, else 16-bit).
struct Value {
  std::string text;
  int32_t value = 0;  // full-width two's-complement bit pattern
  bool wide = false;
  bool is_unsigned = false;
};

int32_t Truncate(int64_t v, bool wide) {
  if (wide) {
    return static_cast<int32_t>(static_cast<uint64_t>(v) & 0xFFFFFFFFu);
  }
  return static_cast<int16_t>(static_cast<uint64_t>(v) & 0xFFFF);
}

Value MakeLeaf(Rng* rng) {
  Value v;
  const int kind = rng->Range(0, 5);
  switch (kind) {
    case 0:
      v.value = rng->Range(0, 100);
      break;
    case 1:
      v.value = rng->Range(-50, 50);
      break;
    case 2:
      v.value = rng->Range(0, 30000);
      break;
    case 3:  // long literal
      v.value = rng->Range(-100000, 100000);
      v.wide = true;
      break;
    case 4:
      v.value = rng->Range(70000, 2000000);
      v.wide = true;
      break;
    default:
      v.value = rng->Range(1, 12);
      break;
  }
  if (!v.wide) {
    v.value = Truncate(v.value, false);
  }
  if (v.wide) {
    // Spell wide literals so the source types them as long regardless of
    // magnitude: `-47419` alone would lex as unary minus on a 16-bit
    // unsigned literal and wrap at 16 bits.
    if (v.value < 0) {
      v.text = StrFormat("(-(long)%d)", -v.value);
    } else {
      v.text = StrFormat("((long)%d)", v.value);
    }
  } else {
    v.text = v.value < 0 ? StrFormat("(%d)", v.value) : StrFormat("%d", v.value);
  }
  return v;
}

Value Combine(Rng* rng, const Value& a, const Value& b) {
  Value out;
  out.wide = a.wide || b.wide;
  out.is_unsigned = false;
  // Reference operands, promoted to the result width like AmuletC.
  const int64_t av = a.wide == out.wide ? a.value : a.value;  // sign-extends via int32
  const int64_t bv = b.wide == out.wide ? b.value : b.value;
  const int op = rng->Range(0, 8);
  switch (op) {
    case 0:
      out.text = StrFormat("(%s + %s)", a.text.c_str(), b.text.c_str());
      out.value = Truncate(av + bv, out.wide);
      break;
    case 1:
      out.text = StrFormat("(%s - %s)", a.text.c_str(), b.text.c_str());
      out.value = Truncate(av - bv, out.wide);
      break;
    case 2:
      out.text = StrFormat("(%s * %s)", a.text.c_str(), b.text.c_str());
      out.value = Truncate(av * bv, out.wide);
      break;
    case 3: {
      // Division with a guaranteed non-zero divisor expression. When the
      // zero divisor is replaced by a literal, the result width follows the
      // replacement, not the discarded operand.
      const int64_t divisor = bv == 0 ? 7 : bv;
      std::string divisor_text = bv == 0 ? "7" : b.text;
      out.wide = a.wide || (bv != 0 && b.wide);
      out.text = StrFormat("(%s / %s)", a.text.c_str(), divisor_text.c_str());
      out.value = Truncate(av / divisor, out.wide);
      break;
    }
    case 4: {
      const int64_t divisor = bv == 0 ? 5 : bv;
      std::string divisor_text = bv == 0 ? "5" : b.text;
      out.wide = a.wide || (bv != 0 && b.wide);
      out.text = StrFormat("(%s %% %s)", a.text.c_str(), divisor_text.c_str());
      out.value = Truncate(av % divisor, out.wide);
      break;
    }
    case 5:
      out.text = StrFormat("(%s & %s)", a.text.c_str(), b.text.c_str());
      out.value = Truncate(av & bv, out.wide);
      break;
    case 6:
      out.text = StrFormat("(%s | %s)", a.text.c_str(), b.text.c_str());
      out.value = Truncate(av | bv, out.wide);
      break;
    case 7:
      out.text = StrFormat("(%s ^ %s)", a.text.c_str(), b.text.c_str());
      out.value = Truncate(av ^ bv, out.wide);
      break;
    default: {
      // Comparison: yields a 16-bit 0/1 (both operands promoted).
      const bool lt = out.wide ? (static_cast<int32_t>(a.value) < static_cast<int32_t>(b.value))
                               : (static_cast<int16_t>(a.value) < static_cast<int16_t>(b.value));
      out.text = StrFormat("(%s < %s)", a.text.c_str(), b.text.c_str());
      out.value = lt ? 1 : 0;
      out.wide = false;
      break;
    }
  }
  return out;
}

Value GenerateExpr(Rng* rng, int depth) {
  if (depth == 0 || rng->Range(0, 4) == 0) {
    return MakeLeaf(rng);
  }
  Value a = GenerateExpr(rng, depth - 1);
  Value b = GenerateExpr(rng, depth - 1);
  return Combine(rng, a, b);
}

class FuzzDifferential : public ::testing::TestWithParam<int> {};

TEST_P(FuzzDifferential, HostAndSimulatorAgreeUnderEveryModel) {
  Rng rng(static_cast<uint32_t>(GetParam()));
  // Several independent expressions per program, accumulated into globals.
  std::string source = "long r0; long r1; long r2; int r3;\nvoid main(void) {\n";
  int32_t expected[4] = {0, 0, 0, 0};
  for (int i = 0; i < 3; ++i) {
    Value v = GenerateExpr(&rng, 4);
    source += StrFormat("  r%d = %s;\n", i, v.text.c_str());
    expected[i] = v.wide ? v.value : static_cast<int32_t>(static_cast<int16_t>(v.value));
  }
  Value narrow = GenerateExpr(&rng, 3);
  source += StrFormat("  r3 = (int)(%s);\n", narrow.text.c_str());
  expected[3] = static_cast<int16_t>(Truncate(narrow.value, false));
  source += "}\n";

  for (MemoryModel model :
       {MemoryModel::kNoIsolation, MemoryModel::kMpu, MemoryModel::kSoftwareOnly}) {
    Machine m;
    auto out = CompileAndRun(&m, source, model, 50'000'000);
    ASSERT_TRUE(out.ok()) << out.status().ToString() << "\nprogram:\n" << source;
    ASSERT_EQ(out->run.stop_code, 4) << source;

    // Fast-dispatch vs baseline-interpreter bit identity: the same program on
    // a second machine with predecode disabled must end in the exact same
    // architectural state (snapshot bytes cover registers, memory, cycle and
    // instruction counters, bus accumulators — everything serialized).
    Machine baseline;
    baseline.cpu().set_predecode(false);
    auto slow = CompileAndRun(&baseline, source, model, 50'000'000);
    ASSERT_TRUE(slow.ok()) << slow.status().ToString() << "\nprogram:\n" << source;
    EXPECT_EQ(slow->run.stop_code, out->run.stop_code) << source;
    EXPECT_EQ(slow->run.cycles, out->run.cycles)
        << "cycle divergence under " << MemoryModelName(model) << "\nprogram:\n" << source;
    EXPECT_EQ(CaptureSnapshot(baseline).bytes, CaptureSnapshot(m).bytes)
        << "snapshot divergence under " << MemoryModelName(model) << "\nprogram:\n"
        << source;
    for (int i = 0; i < 3; ++i) {
      uint16_t addr = out->image.SymbolOrZero(StrFormat("t_g_r%d", i));
      int32_t got = static_cast<int32_t>(
          static_cast<uint32_t>(m.bus().PeekWord(addr)) |
          (static_cast<uint32_t>(m.bus().PeekWord(addr + 2)) << 16));
      EXPECT_EQ(got, expected[i])
          << "r" << i << " under " << MemoryModelName(model) << "\nprogram:\n"
          << source;
    }
    uint16_t addr3 = out->image.SymbolOrZero("t_g_r3");
    EXPECT_EQ(static_cast<int16_t>(m.bus().PeekWord(addr3)),
              static_cast<int16_t>(expected[3]))
        << "r3 under " << MemoryModelName(model) << "\nprogram:\n" << source;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferential, ::testing::Range(1, 101));

// Programs for the compile-twice differentials below. Each mixes elidable
// accesses (counted loops, masked and clamped indices — the phase-2.5
// optimizer deletes these checks) with data-dependent ones it must keep, and
// a third of the seeds end in a deliberate out-of-bounds store (negative for
// the low check, huge positive for the high check).
std::string CheckedAccessProgram(int seed) {
  Rng rng(static_cast<uint32_t>(seed) * 2246822519u + 3);
  std::string body;
  // Elidable: counted loop covering the whole array.
  body += StrFormat("  for (int i = 0; i < 16; i++) { a[i] = i * %d; }\n", rng.Range(1, 9));
  // Elidable: masked index, trip count past the array length.
  body += StrFormat("  for (int i = 0; i < %d; i++) { m[i & 7] = m[i & 7] + i; }\n",
                    rng.Range(8, 40));
  // Elidable: clamped scalar index.
  body += StrFormat(
      "  int j = %d;\n  if (j < 0) { j = 0; }\n  if (j > 15) { j = 15; }\n  a[j] = %d;\n",
      rng.Range(-30, 40), rng.Range(1, 99));
  // Not elidable: the index depends on a global, which the analysis cannot
  // bound — these checks must survive and still pass.
  body += "  idx = m[0] & 15;\n  sum = sum + a[idx];\n";
  body += "  for (int i = 0; i < 16; i++) { sum = sum + a[i]; }\n";
  const int oob = rng.Range(0, 2);
  if (oob == 1) {
    body += StrFormat("  a[idx - %d] = 1;\n", rng.Range(20, 90));  // low-bound fault
  } else if (oob == 2) {
    body += StrFormat("  a[idx + %d] = 1;\n", rng.Range(4000, 9000));  // high-bound fault
  }
  return "int a[16];\nint m[8];\nint sum;\nint idx;\nvoid main(void) {\n" + body + "}\n";
}

// Compiles CheckedAccessProgram(seed) twice per memory model, `variant`
// switching the pipeline between the two, and requires trap-for-trap
// agreement: same stop code, same HOSTIO fault code/address on the first
// fault, and (for clean runs) the same final globals.
void ExpectCompilesAgree(int seed, const std::function<Result<CompileOutcome>(
                                       Machine*, const std::string&, MemoryModel, bool)>& variant) {
  const std::string source = CheckedAccessProgram(seed);
  for (MemoryModel model : {MemoryModel::kNoIsolation, MemoryModel::kFeatureLimited,
                            MemoryModel::kMpu, MemoryModel::kSoftwareOnly}) {
    Machine on_machine;
    Machine off_machine;
    auto on = variant(&on_machine, source, model, true);
    auto off = variant(&off_machine, source, model, false);
    ASSERT_TRUE(on.ok()) << on.status().ToString() << "\nprogram:\n" << source;
    ASSERT_TRUE(off.ok()) << off.status().ToString() << "\nprogram:\n" << source;
    EXPECT_EQ(on->run.stop_code, off->run.stop_code)
        << "stop divergence under " << MemoryModelName(model) << "\nprogram:\n" << source;
    EXPECT_EQ(on_machine.bus().PeekWord(kHostIoRegBase + kHostIoFaultCode),
              off_machine.bus().PeekWord(kHostIoRegBase + kHostIoFaultCode))
        << "fault-code divergence under " << MemoryModelName(model) << "\nprogram:\n"
        << source;
    EXPECT_EQ(on_machine.bus().PeekWord(kHostIoRegBase + kHostIoFaultAddr),
              off_machine.bus().PeekWord(kHostIoRegBase + kHostIoFaultAddr))
        << "fault-addr divergence under " << MemoryModelName(model) << "\nprogram:\n"
        << source;
    if (off->run.stop_code == kStopMainDone) {
      const uint16_t a_on = on->image.SymbolOrZero("t_g_a");
      const uint16_t a_off = off->image.SymbolOrZero("t_g_a");
      for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(on_machine.bus().PeekWord(a_on + 2 * i),
                  off_machine.bus().PeekWord(a_off + 2 * i))
            << "a[" << i << "] under " << MemoryModelName(model) << "\nprogram:\n" << source;
      }
      const uint16_t m_on = on->image.SymbolOrZero("t_g_m");
      const uint16_t m_off = off->image.SymbolOrZero("t_g_m");
      for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(on_machine.bus().PeekWord(m_on + 2 * i),
                  off_machine.bus().PeekWord(m_off + 2 * i))
            << "m[" << i << "] under " << MemoryModelName(model) << "\nprogram:\n" << source;
      }
      EXPECT_EQ(GlobalWord(&on_machine, on->image, "sum"),
                GlobalWord(&off_machine, off->image, "sum"))
          << source;
      EXPECT_EQ(GlobalWord(&on_machine, on->image, "idx"),
                GlobalWord(&off_machine, off->image, "idx"))
          << source;
    }
  }
}

// Differential gate for the phase-2.5 check optimizer: on vs off.
class CheckOptDifferential : public ::testing::TestWithParam<int> {};

TEST_P(CheckOptDifferential, OptOnAndOffAgreeUnderEveryModel) {
  ExpectCompilesAgree(GetParam(), [](Machine* machine, const std::string& source,
                                     MemoryModel model, bool optimize) {
    return CompileAndRun(machine, source, model, 2'000'000, /*optimize_checks=*/optimize);
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckOptDifferential, ::testing::Range(1, 61));

// Codegen's r12/r13 value forwarding against its reference path, which
// reloads every vreg from its frame slot: the same programs, forwarding on
// vs off.
class ForwardingDifferential : public ::testing::TestWithParam<int> {};

TEST_P(ForwardingDifferential, ForwardingOnAndOffAgreeUnderEveryModel) {
  ExpectCompilesAgree(GetParam(), [](Machine* machine, const std::string& source,
                                     MemoryModel model, bool forward) {
    return CompileAndRun(machine, source, model, 2'000'000, kCheckOptDefault,
                         /*forward_values=*/forward);
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForwardingDifferential, ::testing::Range(1, 61));

}  // namespace
}  // namespace amulet
