// Predecoded-instruction-cache correctness: the fast-dispatch core must be
// observationally identical to the baseline interpreter even when code
// changes under the cache — self-modifying firmware, host-side pokes,
// snapshot restores, and MPU reconfiguration — and a fleet run must produce
// the exact same digest in either mode (docs/simulator.md, "Predecoded
// instruction cache"). The CodeCacheTest cases drive the cache's own
// bookkeeping: which entries a write kills, entry reuse, generation wrap.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/common/strings.h"
#include "src/fleet/fleet.h"
#include "src/mcu/code_cache.h"
#include "src/mcu/machine.h"
#include "src/mcu/memory_map.h"
#include "tests/sim_test_util.h"

namespace amulet {
namespace {

constexpr char kStop[] = "  mov #4, &0x0710\n";

constexpr char kMpuRegs[] =
    ".equ MPUCTL0, 0x05A0\n"
    ".equ MPUCTL1, 0x05A2\n"
    ".equ MPUSEGB2, 0x05A4\n"
    ".equ MPUSEGB1, 0x05A6\n"
    ".equ MPUSAM, 0x05A8\n";

// Runs `source` on a fast-dispatch machine and a baseline-interpreter
// machine and checks the outcomes and final snapshots are byte-identical.
// Returns the fast machine's outcome for semantic assertions.
struct DualRun {
  Machine fast;
  Machine slow;
  Cpu::RunOutcome outcome;
};

void RunBoth(DualRun* dual, const std::string& source, uint64_t max_cycles = 100000) {
  dual->fast.cpu().set_predecode(true);
  dual->slow.cpu().set_predecode(false);
  AssembleAndLoad(&dual->fast, source);
  AssembleAndLoad(&dual->slow, source);
  dual->outcome = dual->fast.Run(max_cycles);
  const Cpu::RunOutcome slow_outcome = dual->slow.Run(max_cycles);
  EXPECT_EQ(dual->outcome.result, slow_outcome.result);
  EXPECT_EQ(dual->outcome.stop_code, slow_outcome.stop_code);
  EXPECT_EQ(dual->outcome.cycles, slow_outcome.cycles);
  EXPECT_EQ(dual->fast.cpu().instruction_count(), dual->slow.cpu().instruction_count());
  EXPECT_EQ(CaptureSnapshot(dual->fast).bytes, CaptureSnapshot(dual->slow).bytes)
      << "fast-dispatch and interpreter snapshots diverged";
}

// Firmware that writes its own instructions: builds a tiny routine in SRAM
// (`mov #1, r4; ret`), calls it, patches first the immediate ext word and
// then the opcode word through ordinary stores, and calls it again. A stale
// predecode entry would replay the old instruction.
TEST(PredecodeTest, SelfModifyingCodeMatchesInterpreter) {
  DualRun dual;
  RunBoth(&dual,
          "start:\n"
          "  mov #0x2400, sp\n"
          "  mov #0x4034, &0x2000\n"  // mov #imm, r4
          "  mov #1, &0x2002\n"       // imm = 1
          "  mov #0x4130, &0x2004\n"  // ret
          "  call #0x2000\n"
          "  mov r4, r6\n"            // r6 = 1
          "  mov #42, &0x2002\n"      // patch the ext word: imm = 42
          "  call #0x2000\n"
          "  mov r4, r7\n"            // r7 = 42 (stale cache would leave 1)
          "  mov #0x4035, &0x2000\n"  // patch the opcode word: mov #imm, r5
          "  call #0x2000\n"          // r5 = 42
          + std::string(kStop));
  EXPECT_EQ(dual.outcome.result, StepResult::kStopped);
  EXPECT_EQ(dual.fast.cpu().reg(Reg::kR6), 1);
  EXPECT_EQ(dual.fast.cpu().reg(Reg::kR7), 42);
  EXPECT_EQ(dual.fast.cpu().reg(Reg::kR5), 42);
}

// Same pattern, but the routine under modification lives in FRAM: the
// firmware patches one word of its own already-executed code in place,
// addressing it through a register so no hand-counted offsets are needed.
TEST(PredecodeTest, SelfModifyingFramExtWordMatchesInterpreter) {
  DualRun dual;
  RunBoth(&dual,
          "start:\n"
          "  mov #0x2400, sp\n"
          "  call #leaf\n"
          "  mov r4, r6\n"      // r6 = 5
          "  mov #leaf, r10\n"
          "  mov #99, 2(r10)\n" // patch the immediate ext word of `mov #5, r4`
          "  call #leaf\n"
          "  mov r4, r7\n"      // r7 = 99
          "  mov #0x4035, 0(r10)\n"  // patch the opcode word: mov #imm, r5
          "  call #leaf\n"      // r5 = 99
          + std::string(kStop) +
          "leaf:\n"
          "  mov #5, r4\n"
          "  ret\n");
  EXPECT_EQ(dual.outcome.result, StepResult::kStopped);
  EXPECT_EQ(dual.fast.cpu().reg(Reg::kR6), 5);
  EXPECT_EQ(dual.fast.cpu().reg(Reg::kR7), 99);
  EXPECT_EQ(dual.fast.cpu().reg(Reg::kR5), 99);
}

// A loop that rewrites one of its own code words 10,000 times re-predecodes
// that address on every pass, into the address's one entry: the cache holds
// an entry per distinct executed address however often the code changes.
TEST(PredecodeTest, SelfModifyingLoopDoesNotGrowTheCache) {
  DualRun dual;
  RunBoth(&dual,
          "start:\n"
          "  mov #10000, r5\n"
          "  mov #patch, r10\n"
          "loop:\n"
          "  mov r5, 2(r10)\n"  // rewrite the immediate ext word of `patch`
          "patch:\n"
          "  mov #1000, r4\n"  // r4 = r5
          "  add r4, r6\n"
          "  dec r5\n"
          "  jnz loop\n" +
              std::string(kStop),
          1'000'000);
  EXPECT_EQ(dual.outcome.result, StepResult::kStopped);
  EXPECT_EQ(dual.fast.cpu().reg(Reg::kR6), static_cast<uint16_t>(10000 * 10001 / 2));
  const CodeCache& cache = dual.fast.cpu().code_cache();
  EXPECT_GE(cache.stats().misses, 10000u);
  EXPECT_EQ(cache.size(), 8u) << "one entry per instruction of the program";
}

// Host-side PokeWord into already-executed code must invalidate the cached
// entry, exactly like tooling that patches a running machine.
TEST(PredecodeTest, HostPokeInvalidatesCachedCode) {
  for (const bool predecode : {true, false}) {
    Machine m;
    m.cpu().set_predecode(predecode);
    const Image image = AssembleAndLoad(&m,
                                        "start:\n"
                                        "  mov #1, r4\n"
                                        "loop:\n"
                                        "  jmp loop\n");
    // Spin long enough that `loop` is fetched (and cached) many times.
    Cpu::RunOutcome out = m.Run(200);
    ASSERT_EQ(out.result, StepResult::kOk);
    // Overwrite the spin jump with `mov #4, &0x0710` (stop).
    const uint16_t loop_addr = image.SymbolOrZero("loop");
    ASSERT_NE(loop_addr, 0);
    m.bus().PokeWord(loop_addr, 0x40B2);
    m.bus().PokeWord(static_cast<uint16_t>(loop_addr + 2), 4);
    m.bus().PokeWord(static_cast<uint16_t>(loop_addr + 4), 0x0710);
    out = m.Run(1000);
    EXPECT_EQ(out.result, StepResult::kStopped)
        << (predecode ? "predecode" : "interpreter") << " kept running stale code";
    EXPECT_EQ(out.stop_code, 4);
  }
}

// Restoring a snapshot replaces all of memory; cached predecode entries from
// the pre-restore program must not survive into the restored one.
TEST(PredecodeTest, RestoreSnapshotDropsStaleEntries) {
  // Donor machine: program B loaded (never run), captured as a snapshot.
  Machine donor;
  AssembleAndLoad(&donor,
                  "start:\n"
                  "  mov #222, r4\n" +
                      std::string(kStop));
  const MachineSnapshot snapshot = CaptureSnapshot(donor);

  // Victim machine: runs program A to completion (same addresses, different
  // code), then gets the donor snapshot restored over it.
  Machine m;
  m.cpu().set_predecode(true);
  Cpu::RunOutcome out;
  AssembleAndLoad(&m,
                  "start:\n"
                  "  mov #111, r4\n" +
                      std::string(kStop));
  out = m.Run(100000);
  ASSERT_EQ(out.result, StepResult::kStopped);
  ASSERT_EQ(m.cpu().reg(Reg::kR4), 111);

  ASSERT_TRUE(RestoreSnapshot(snapshot, &m).ok());
  out = m.Run(100000);
  EXPECT_EQ(out.result, StepResult::kStopped);
  EXPECT_EQ(m.cpu().reg(Reg::kR4), 222) << "stale predecode entries executed after restore";
}

// MPU enabled mid-program, then a fetch from a non-executable segment: the
// fast path must take the same NMI at the same cycle as the interpreter.
// Enabling the MPU after code has been cached also exercises the cached
// fetch-permission revalidation (the MPU config generation check).
TEST(PredecodeTest, MpuFetchViolationMatchesInterpreter) {
  DualRun dual;
  RunBoth(&dual,
          std::string(kMpuRegs) +
              "start:\n"
              "  mov #0x2400, sp\n"
              "  mov #nmi, &0xFFFC\n"
              "  mov #0x0800, &MPUSEGB1\n"
              "  mov #0x0A00, &MPUSEGB2\n"
              "  mov #0x0034, &MPUSAM\n"    // seg1 X, seg2 RW, seg3 none
              "  mov #0xA501, &MPUCTL0\n"   // enable after this code was cached
              "  br #0x9000\n"              // fetch from RW segment -> violation
              "nmi:\n"
              "  mov #1, r10\n"
              "  mov #3, &0x0710\n",
          50000);
  EXPECT_EQ(dual.outcome.result, StepResult::kStopped);
  EXPECT_EQ(dual.outcome.stop_code, 3);
  EXPECT_EQ(dual.fast.cpu().reg(Reg::kR10), 1);
  EXPECT_TRUE(dual.fast.mpu().violation_flags() != 0);
}

// Every memory-operand shape the fast core has its own dispatch slot for,
// driven into the corners its bus access can reach: an MPU refusal, a
// fault, the device path, autoincrement ordering and a store that rewrites
// the next instruction. Each case runs on both cores (RunBoth compares the
// final snapshots byte for byte) and must reach its architectural outcome,
// so a fault in a fast handler and one in the bus path it shares with the
// interpreter both fail here.
TEST(PredecodeTest, MemoryOperandShapesMatchInterpreter) {
  // seg1 = [0x4400, 0x8000) execute-only (the code), seg2 = [0x8000, 0xA000)
  // with the rights in `sam`, seg3 no access. 0x9000 holds 0x5555 before
  // the MPU is enabled; the NMI handler stops with code 3.
  auto with_mpu = [](const char* sam, const char* access) {
    return std::string(kMpuRegs) +
           "start:\n"
           "  mov #0x2400, sp\n"
           "  mov #nmi, &0xFFFC\n"
           "  mov #0x5555, &0x9000\n"
           "  mov #0x0800, &MPUSEGB1\n"
           "  mov #0x0A00, &MPUSEGB2\n"
           "  mov #" + sam + ", &MPUSAM\n"
           "  mov #0xA501, &MPUCTL0\n" + access +
           "  mov #9, r11\n"  // never runs: the NMI is taken first
           + kStop +
           "nmi:\n"
           "  mov #3, &0x0710\n";
  };
  struct Case {
    const char* name;
    std::string source;
    std::function<void(Machine&, const Cpu::RunOutcome&)> check;
  };
  const std::vector<Case> cases = {
      {"MPU-refused x(Rn) load", with_mpu("0x0024", "  mov #0x8FFE, r10\n  mov 2(r10), r4\n"),
       [](Machine& m, const Cpu::RunOutcome& out) {
         EXPECT_EQ(out.stop_code, 3);
         EXPECT_EQ(m.cpu().reg(Reg::kR4), 0x3FFF) << "a refused read yields 0x3FFF";
         EXPECT_EQ(m.cpu().reg(Reg::kR11), 0);
         EXPECT_TRUE(m.mpu().violation_flags() & kMpuSeg2Ifg);
         EXPECT_EQ(m.mpu().last_violation_addr(), 0x9000);
         EXPECT_EQ(m.mpu().last_violation_kind(), AccessKind::kRead);
       }},
      {"MPU-refused &abs store", with_mpu("0x0014", "  mov #0x1234, &0x9000\n"),
       [](Machine& m, const Cpu::RunOutcome& out) {
         EXPECT_EQ(out.stop_code, 3);
         EXPECT_EQ(m.bus().PeekWord(0x9000), 0x5555) << "a refused write is dropped";
         EXPECT_EQ(m.cpu().reg(Reg::kR11), 0);
         EXPECT_TRUE(m.mpu().violation_flags() & kMpuSeg2Ifg);
         EXPECT_EQ(m.mpu().last_violation_addr(), 0x9000);
         EXPECT_EQ(m.mpu().last_violation_kind(), AccessKind::kWrite);
       }},
      {"@Rn load from a hole",
       "start:\n"
       "  mov #0x3000, r10\n"
       "  mov @r10, r4\n"
       "  mov #9, r11\n" + std::string(kStop),
       [](Machine& m, const Cpu::RunOutcome& out) {
         EXPECT_EQ(out.result, StepResult::kHalted);
         EXPECT_EQ(m.cpu().halt_reason(), HaltReason::kBusFault);
         EXPECT_EQ(m.cpu().reg(Reg::kR4), 0x3FFF) << "the faulting load still retires";
         EXPECT_EQ(m.cpu().reg(Reg::kR11), 0);
       }},
      {"@Rn+ load from the timer",
       ".equ TACCR0, 0x0346\n"
       "start:\n"
       "  mov #0x1234, &TACCR0\n"
       "  mov #TACCR0, r10\n"
       "  mov @r10+, r4\n" + std::string(kStop),
       [](Machine& m, const Cpu::RunOutcome& out) {
         EXPECT_EQ(out.result, StepResult::kStopped);
         EXPECT_EQ(m.cpu().reg(Reg::kR4), 0x1234) << "read through the device";
         EXPECT_EQ(m.cpu().reg(Reg::kR10), 0x0348);
       }},
      {"x(Rn) store into the BSL",
       "start:\n"
       "  mov #0x1000, r10\n"
       "  mov #0x4242, r5\n"
       "  mov r5, 0(r10)\n"
       "  mov #9, r11\n" + std::string(kStop),
       [](Machine& m, const Cpu::RunOutcome& out) {
         EXPECT_EQ(out.result, StepResult::kHalted);
         EXPECT_EQ(m.cpu().halt_reason(), HaltReason::kBusFault);
         EXPECT_EQ(m.bus().PeekWord(0x1000), 0) << "the BSL stub is read-only";
         EXPECT_EQ(m.cpu().reg(Reg::kR11), 0);
       }},
      {"mov @sp+, pc",
       "start:\n"
       "  mov #0x2400, sp\n"
       "  call #sub\n"
       "  mov #7, r6\n" + std::string(kStop) +
       "sub:\n"
       "  mov #5, r4\n"
       "  mov @sp+, pc\n",
       [](Machine& m, const Cpu::RunOutcome& out) {
         EXPECT_EQ(out.result, StepResult::kStopped);
         EXPECT_EQ(m.cpu().reg(Reg::kR4), 5);
         EXPECT_EQ(m.cpu().reg(Reg::kR6), 7);
         EXPECT_EQ(m.cpu().sp(), 0x2400);
       }},
      {"mov @r5+, r5",
       "start:\n"
       "  mov #word, r5\n"
       "  mov @r5+, r5\n" + std::string(kStop) +
       ".data\n"
       "word:\n"
       "  .word 0x1234\n",
       [](Machine& m, const Cpu::RunOutcome& out) {
         EXPECT_EQ(out.result, StepResult::kStopped);
         EXPECT_EQ(m.cpu().reg(Reg::kR5), 0x1234) << "the load lands after the increment";
       }},
      {"add @r5+, r5",
       "start:\n"
       "  mov #word, r5\n"
       "  add @r5+, r5\n" + std::string(kStop) +
       ".data\n"
       "word:\n"
       "  .word 0x0100\n",
       [](Machine& m, const Cpu::RunOutcome& out) {
         EXPECT_EQ(out.result, StepResult::kStopped);
         EXPECT_EQ(m.cpu().reg(Reg::kR5), 0x0100 + 0x7000 + 2)
             << "the destination is read after the increment";
       }},
      {"store into the next instruction's extension word",
       "start:\n"
       "  mov #patch, r10\n"
       "  mov #0x0042, r7\n"
       "  mov #2, r6\n"
       "loop:\n"
       "  mov r7, 2(r10)\n"  // rewrites the immediate of `patch`
       "patch:\n"
       "  mov #0x1111, r4\n"
       "  add r4, r8\n"
       "  inc r7\n"
       "  dec r6\n"
       "  jnz loop\n" + std::string(kStop),
       [](Machine& m, const Cpu::RunOutcome& out) {
         EXPECT_EQ(out.result, StepResult::kStopped);
         EXPECT_EQ(m.cpu().reg(Reg::kR4), 0x0043) << "the second pass ran a stale immediate";
         EXPECT_EQ(m.cpu().reg(Reg::kR8), 0x0042 + 0x0043);
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    DualRun dual;
    RunBoth(&dual, c.source);
    c.check(dual.fast, dual.outcome);
  }
}

// The cache's own bookkeeping, driven directly: claim an address's entry and
// mark it valid, as Cpu::FillEntry() does after predecoding it.
void Fill(CodeCache* cache, uint16_t addr) { cache->MarkValid(cache->Claim(addr)); }

TEST(CodeCacheTest, WriteKillsOnlyTheThreeEntriesThatCanSpanIt) {
  CodeCache cache;
  for (uint16_t a = 0x4400; a < 0x4420; a += 2) {
    Fill(&cache, a);
  }
  cache.InvalidateWord(0x4411);  // a byte write: the word at 0x4410
  for (uint16_t a = 0x4400; a < 0x4420; a += 2) {
    const bool killed = a == 0x4410 || a == 0x440E || a == 0x440C;
    EXPECT_EQ(cache.IsValid(cache.Find(a)), !killed) << HexWord(a);
  }
  // The three starts wrap around the bottom of the address space.
  Fill(&cache, 0xFFFE);
  Fill(&cache, 0x0000);
  Fill(&cache, 0x0002);
  cache.InvalidateWord(0x0002);
  EXPECT_FALSE(cache.IsValid(cache.Find(0xFFFE)));
  EXPECT_FALSE(cache.IsValid(cache.Find(0x0000)));
  EXPECT_FALSE(cache.IsValid(cache.Find(0x0002)));
  EXPECT_EQ(cache.stats().invalidations, 2u);
  EXPECT_EQ(cache.size(), 19u);
}

TEST(CodeCacheTest, RefillAfterInvalidationReusesTheEntry) {
  CodeCache cache;
  // Never-predecoded addresses resolve to an entry that is never valid,
  // also after invalidations touched them.
  EXPECT_FALSE(cache.IsValid(cache.Find(0x4400)));
  cache.InvalidateWord(0x4400);
  cache.InvalidateAll();
  EXPECT_FALSE(cache.IsValid(cache.Find(0x4400)));
  EXPECT_EQ(cache.size(), 0u);

  Fill(&cache, 0x4400);
  Fill(&cache, 0x4402);
  const CodeCache::Entry* entry = &cache.Find(0x4400);
  cache.InvalidateWord(0x4400);
  EXPECT_FALSE(cache.IsValid(*entry));
  EXPECT_EQ(cache.Claim(0x4400), entry);
  cache.InvalidateAll();
  EXPECT_EQ(cache.Claim(0x4400), entry);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(CodeCacheTest, InvalidateAllKillsEveryEntry) {
  CodeCache cache;
  for (uint16_t a = 0x4400; a < 0x4800; a += 2) {
    Fill(&cache, a);
  }
  cache.InvalidateAll();
  for (uint16_t a = 0x4400; a < 0x4800; a += 2) {
    EXPECT_FALSE(cache.IsValid(cache.Find(a))) << HexWord(a);
  }
  EXPECT_EQ(cache.stats().full_invalidations, 1u);
  Fill(&cache, 0x4400);
  EXPECT_TRUE(cache.IsValid(cache.Find(0x4400)));
  EXPECT_EQ(cache.size(), 0x200u);
}

TEST(CodeCacheTest, GenerationWrapKillsEveryEntry) {
  CodeCache cache(/*generation=*/0xFFFFFFFF);  // one bump short of the wrap
  Fill(&cache, 0x4400);
  // An entry validated at generation 1, 2^32 bumps ago. The generation
  // restarts at 1 after the wrap; only the wrap's clear keeps it dead.
  cache.Claim(0x4402)->gen = 1;
  cache.InvalidateAll();
  EXPECT_FALSE(cache.IsValid(cache.Find(0x4400)));
  EXPECT_FALSE(cache.IsValid(cache.Find(0x4402)));
  Fill(&cache, 0x4404);
  EXPECT_TRUE(cache.IsValid(cache.Find(0x4404)));
}

// End-to-end: a small fleet simulated with and without predecode produces
// the exact same FleetDigest (the determinism contract the CI gate enforces
// at scale with `amuletc fleet --no-predecode`).
TEST(PredecodeTest, FleetDigestIdenticalAcrossModes) {
  FleetConfig config;
  config.device_count = 4;
  config.apps = {"pedometer", "clock"};
  config.model = MemoryModel::kMpu;
  config.fleet_seed = 20180711;
  config.sim_ms = 200;
  config.jobs = 2;

  config.predecode = true;
  auto fast = RunFleet(config);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();

  config.predecode = false;
  config.jobs = 1;  // digest identity must also hold across thread counts
  auto slow = RunFleet(config);
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();

  EXPECT_EQ(FleetDigest(*fast), FleetDigest(*slow));
  EXPECT_GT(fast->aggregate.total_instructions, 0u);
  EXPECT_EQ(fast->aggregate.total_instructions, slow->aggregate.total_instructions);
}

}  // namespace
}  // namespace amulet
