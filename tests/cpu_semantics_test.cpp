// Exhaustive architectural semantics: every ALU instruction driven through
// edge-case operand pairs with hand-computed results and C/Z/N/V flags,
// in both word and byte widths, on the fast core and the interpreter, with
// word sources also read from memory through every memory addressing mode.
// These lock the CPU core against regressions; the MSP430 flag rules
// (notably C as not-borrow on SUB/CMP, and C = !Z on logical ops) are easy
// to get subtly wrong.
#include <gtest/gtest.h>

#include <type_traits>
#include <vector>

#include "src/asm/assembler.h"
#include "src/common/strings.h"
#include "src/isa/disassembler.h"
#include "src/isa/encoding.h"
#include "src/mcu/machine.h"

namespace amulet {
namespace {

// gtest names each case of a value-parameterized test after the raw bytes of
// its parameter. Padding inside the case structs would put uninitialized
// bytes into those names, so a case's name changed from one run to the next.
// The `tag` fields fill what would be padding and pin those bytes, one value
// per case, to the name the case has always been listed under; the
// static_asserts keep the structs free of padding. Tags take no part in the
// checks.

struct AluCase {
  Opcode op;
  bool byte;
  uint16_t src;
  uint16_t dst_in;
  bool carry_in;
  uint8_t tag_a;
  uint16_t expect;
  uint16_t tag_b;
  // Expected flags: -1 = don't care, 0/1 = required value.
  int c, z, n, v;
};
static_assert(std::has_unique_object_representations_v<AluCase>);

AluCase Alu(Opcode op, bool byte, uint16_t src, uint16_t dst_in, bool carry_in, uint16_t expect,
            int c, int z, int n, int v, uint8_t tag_a = 0, uint16_t tag_b = 0) {
  return {op, byte, src, dst_in, carry_in, tag_a, expect, tag_b, c, z, n, v};
}

std::string CaseName(const AluCase& c) {
  return StrFormat("%s%s src=%04x dst=%04x cin=%d", std::string(OpcodeName(c.op)).c_str(),
                   c.byte ? ".b" : "", c.src, c.dst_in, c.carry_in ? 1 : 0);
}

// The shapes a case's source operand takes: the register form the
// expectations are written for and, for word cases, the same value read from
// memory at kSrcAddr through each memory addressing mode. The fast core has
// a dispatch slot per word memory shape, so each one is held to the
// register form on both cores.
constexpr uint16_t kSrcAddr = 0x2000;
constexpr uint16_t kAluFlags = kSrCarry | kSrZero | kSrNegative | kSrOverflow;

struct SourceShape {
  const char* name;
  Operand operand;
  uint16_t r5;  // r5 before the step; the value itself for the register form
  uint16_t r5_after;
};

std::vector<SourceShape> SourceShapes(bool byte, uint16_t src) {
  std::vector<SourceShape> shapes = {{"r5", RegOp(Reg::kR5), src, src}};
  if (!byte) {
    shapes.push_back({"6(r5)", IndexedOp(Reg::kR5, 6), kSrcAddr - 6, kSrcAddr - 6});
    shapes.push_back({"&abs", AbsoluteOp(kSrcAddr), 0x0505, 0x0505});
    shapes.push_back({"@r5", IndirectOp(Reg::kR5), kSrcAddr, kSrcAddr});
    shapes.push_back({"@r5+", IndirectAutoIncOp(Reg::kR5), kSrcAddr, kSrcAddr + 2});
  }
  return shapes;
}

// Loads `<op>[.b] <shape>, <dst>` at 0x4400 with `src` at kSrcAddr, ready to
// single-step on the chosen core.
void LoadAluStep(Machine* m, Opcode op, bool byte, const SourceShape& shape, uint16_t src,
                 bool predecode, Reg dst = Reg::kR4) {
  m->cpu().set_predecode(predecode);
  Instruction insn;
  insn.op = op;
  insn.byte = byte;
  insn.src = shape.operand;
  insn.dst = RegOp(dst);
  auto words = Encode(insn);
  ASSERT_TRUE(words.ok());
  for (size_t i = 0; i < words->size(); ++i) {
    m->bus().PokeWord(static_cast<uint16_t>(0x4400 + 2 * i), (*words)[i]);
  }
  m->bus().PokeWord(kSrcAddr, src);
  m->bus().PokeWord(kResetVector, 0x4400);
  m->cpu().Reset();
  m->cpu().set_reg(Reg::kR5, shape.r5);
}

class AluSemantics : public ::testing::TestWithParam<AluCase> {};

TEST_P(AluSemantics, MatchesArchitecture) {
  const AluCase& c = GetParam();
  for (const SourceShape& shape : SourceShapes(c.byte, c.src)) {
    for (const bool predecode : {true, false}) {
      SCOPED_TRACE(StrFormat("%s, source %s, %s core", CaseName(c).c_str(), shape.name,
                             predecode ? "fast" : "interpreter"));
      Machine m;
      ASSERT_NO_FATAL_FAILURE(LoadAluStep(&m, c.op, c.byte, shape, c.src, predecode));
      m.cpu().set_reg(Reg::kR4, c.dst_in);
      // GIE rides along: no op may touch an SR bit outside C/Z/N/V.
      m.cpu().set_reg(Reg::kSr, kSrGie | (c.carry_in ? kSrCarry : 0));
      ASSERT_EQ(m.cpu().Step(), StepResult::kOk);

      const bool writes = c.op != Opcode::kCmp && c.op != Opcode::kBit;
      if (writes) {
        EXPECT_EQ(m.cpu().reg(Reg::kR4), c.expect);
      } else {
        EXPECT_EQ(m.cpu().reg(Reg::kR4), c.dst_in) << "must not write";
      }
      EXPECT_EQ(m.cpu().reg(Reg::kR5), shape.r5_after);
      const uint16_t sr = m.cpu().sr();
      EXPECT_EQ(sr & ~kAluFlags, kSrGie);
      if (c.c >= 0) {
        EXPECT_EQ((sr & kSrCarry) != 0, c.c == 1) << "C";
      }
      if (c.z >= 0) {
        EXPECT_EQ((sr & kSrZero) != 0, c.z == 1) << "Z";
      }
      if (c.n >= 0) {
        EXPECT_EQ((sr & kSrNegative) != 0, c.n == 1) << "N";
      }
      if (c.v >= 0) {
        EXPECT_EQ((sr & kSrOverflow) != 0, c.v == 1) << "V";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Add, AluSemantics,
    ::testing::Values(
        //   op           byte  src     dst    cin  expect  c  z  n  v  tag_a tag_b
        Alu(Opcode::kAdd, false, 0x0001, 0x0001, 0, 0x0002, 0, 0, 0, 0, 0x00, 0x8BEB),
        Alu(Opcode::kAdd, false, 0xFFFF, 0x0001, 0, 0x0000, 1, 1, 0, 0, 0x94),
        Alu(Opcode::kAdd, false, 0x7FFF, 0x0001, 0, 0x8000, 0, 0, 1, 1),
        Alu(Opcode::kAdd, false, 0x8000, 0x8000, 0, 0x0000, 1, 1, 0, 1, 0x60),
        Alu(Opcode::kAdd, false, 0x1234, 0x0000, 1, 0x1234, 0, 0, 0, 0),  // C_in ignored
        Alu(Opcode::kAdd, true, 0x00FF, 0x0001, 0, 0x0000, 1, 1, 0, 0, 0x94),
        Alu(Opcode::kAdd, true, 0x007F, 0x0001, 0, 0x0080, 0, 0, 1, 1, 0x00, 0x606D),
        Alu(Opcode::kAddc, false, 0x0001, 0x0001, 1, 0x0003, 0, 0, 0, 0, 0x40, 0xAF7D),
        Alu(Opcode::kAddc, false, 0xFFFF, 0x0000, 1, 0x0000, 1, 1, 0, 0, 0x00, 0x4058),
        Alu(Opcode::kAddc, true, 0x00FE, 0x0001, 1, 0x0000, 1, 1, 0, 0)));

INSTANTIATE_TEST_SUITE_P(
    Sub, AluSemantics,
    ::testing::Values(
        Alu(Opcode::kSub, false, 0x0003, 0x0005, 0, 0x0002, 1, 0, 0, 0, 0x00, 0x606D),
        Alu(Opcode::kSub, false, 0x0005, 0x0003, 0, 0xFFFE, 0, 0, 1, 0),  // borrow: C=0
        Alu(Opcode::kSub, false, 0x0005, 0x0005, 0, 0x0000, 1, 1, 0, 0),
        Alu(Opcode::kSub, false, 0x0001, 0x8000, 0, 0x7FFF, 1, 0, 0, 1),  // ovf
        Alu(Opcode::kSub, true, 0x0001, 0x0000, 0, 0x00FF, 0, 0, 1, 0),
        Alu(Opcode::kSubc, false, 0x0003, 0x0005, 1, 0x0002, 1, 0, 0, 0, 0x60),
        Alu(Opcode::kSubc, false, 0x0003, 0x0005, 0, 0x0001, 1, 0, 0, 0, 0xAF, 0x9410),
        Alu(Opcode::kCmp, false, 0x0003, 0x0005, 0, 0x0000, 1, 0, 0, 0, 0x40, 0xAF7D),
        Alu(Opcode::kCmp, false, 0x0005, 0x0003, 0, 0x0000, 0, 0, 1, 0, 0x00, 0x9410),
        Alu(Opcode::kCmp, false, 0x8000, 0x7FFF, 0, 0x0000, 0, 0, 1, 1, 0x60)));

INSTANTIATE_TEST_SUITE_P(
    Logic, AluSemantics,
    ::testing::Values(
        Alu(Opcode::kAnd, false, 0xF0F0, 0xFF00, 0, 0xF000, 1, 0, 1, 0),
        Alu(Opcode::kAnd, false, 0x0F0F, 0xF0F0, 0, 0x0000, 0, 1, 0, 0, 0x94),  // C = !Z
        Alu(Opcode::kBit, false, 0x0001, 0x0003, 0, 0x0000, 1, 0, 0, 0, 0x00, 0x9410),
        Alu(Opcode::kBit, false, 0x0004, 0x0003, 0, 0x0000, 0, 1, 0, 0, 0xFF, 0xFFFF),
        // Both operands negative: V.
        Alu(Opcode::kXor, false, 0xFFFF, 0xFFFF, 0, 0x0000, 0, 1, 0, 1, 0x00, 0x940F),
        Alu(Opcode::kXor, false, 0xAAAA, 0x5555, 0, 0xFFFF, 1, 0, 1, 0, 0x94),
        Alu(Opcode::kBis, false, 0x00F0, 0x000F, 1, 0x00FF, -1, -1, -1, -1, 0xAF),  // no flags
        Alu(Opcode::kBic, false, 0x00F0, 0x00FF, 0, 0x000F, -1, -1, -1, -1, 0x94),
        Alu(Opcode::kAnd, true, 0x00FF, 0x1280, 0, 0x0080, 1, 0, 1, 0, 0x00, 0x8BA1)));

INSTANTIATE_TEST_SUITE_P(
    Mov, AluSemantics,
    ::testing::Values(
        // MOV copies the source and leaves every flag as it was.
        Alu(Opcode::kMov, false, 0x8001, 0x1234, 1, 0x8001, 1, 0, 0, 0, 0x4D),
        Alu(Opcode::kMov, true, 0x1280, 0xFFFF, 0, 0x0080, 0, 0, 0, 0, 0x4D)));

INSTANTIATE_TEST_SUITE_P(
    Bcd, AluSemantics,
    ::testing::Values(
        Alu(Opcode::kDadd, false, 0x0042, 0x0013, 0, 0x0055, 0, 0, 0, -1, 0x00, 0x4058),
        Alu(Opcode::kDadd, false, 0x0008, 0x0009, 0, 0x0017, 0, 0, 0, -1),
        Alu(Opcode::kDadd, false, 0x9999, 0x0001, 0, 0x0000, 1, 1, 0, -1),
        Alu(Opcode::kDadd, false, 0x0001, 0x0009, 1, 0x0011, 0, 0, 0, -1, 0x8B)));

// BIS/BIC/MOV must preserve flags exactly, whatever the source shape.
TEST(FlagPreservationTest, MovBisBicDontTouchSr) {
  for (Opcode op : {Opcode::kMov, Opcode::kBis, Opcode::kBic}) {
    for (const SourceShape& shape : SourceShapes(/*byte=*/false, 0x1234)) {
      for (const bool predecode : {true, false}) {
        SCOPED_TRACE(StrFormat("%s, source %s, %s core", std::string(OpcodeName(op)).c_str(),
                               shape.name, predecode ? "fast" : "interpreter"));
        Machine m;
        ASSERT_NO_FATAL_FAILURE(LoadAluStep(&m, op, /*byte=*/false, shape, 0x1234, predecode));
        const uint16_t all_flags = kSrCarry | kSrZero | kSrNegative | kSrOverflow;
        m.cpu().set_reg(Reg::kSr, all_flags);
        m.cpu().set_reg(Reg::kR4, 0x00FF);
        ASSERT_EQ(m.cpu().Step(), StepResult::kOk);
        EXPECT_EQ(m.cpu().sr() & all_flags, all_flags);
      }
    }
  }
}

// A Format-I op into SR writes its flags first; the result then replaces
// SR, so these expectations are the results, not the flags.
TEST(DestinationSemantics, SrTakesTheResultAfterTheFlags) {
  struct SrCase {
    Opcode op;
    bool byte;
    uint16_t src;
    uint16_t sr_in;
    uint16_t sr_out;
  };
  const SrCase cases[] = {
      {Opcode::kAdd, false, 0x0100, 0x0000, 0x0100},  // flags all clear, result sets V
      {Opcode::kSub, false, 0x0005, 0x0005, 0x0000},  // flags C and Z, result 0
      {Opcode::kXor, true, 0x0000, 0x0100, 0x0000},   // flags Z, result's high byte cleared
      {Opcode::kAnd, false, 0x0104, 0x0105, 0x0104},  // flags C, result V and N
  };
  for (const SrCase& c : cases) {
    for (const SourceShape& shape : SourceShapes(c.byte, c.src)) {
      for (const bool predecode : {true, false}) {
        SCOPED_TRACE(StrFormat("%s%s %s, sr from %04x, %s core",
                               std::string(OpcodeName(c.op)).c_str(), c.byte ? ".b" : "",
                               shape.name, c.sr_in, predecode ? "fast" : "interpreter"));
        Machine m;
        ASSERT_NO_FATAL_FAILURE(
            LoadAluStep(&m, c.op, c.byte, shape, c.src, predecode, Reg::kSr));
        m.cpu().set_reg(Reg::kSr, c.sr_in);
        ASSERT_EQ(m.cpu().Step(), StepResult::kOk);
        EXPECT_EQ(m.cpu().sr(), c.sr_out);
      }
    }
  }
}

// A result written to PC loses bit 0; the flags land in SR as usual.
TEST(DestinationSemantics, PcDropsBitZero) {
  for (const Opcode op : {Opcode::kMov, Opcode::kAdd}) {
    for (const SourceShape& shape : SourceShapes(/*byte=*/false, 0xFFFF)) {
      for (const bool predecode : {true, false}) {
        SCOPED_TRACE(StrFormat("%s %s, pc, %s core", std::string(OpcodeName(op)).c_str(),
                               shape.name, predecode ? "fast" : "interpreter"));
        Machine m;
        ASSERT_NO_FATAL_FAILURE(LoadAluStep(&m, op, /*byte=*/false, shape, 0xFFFF, predecode,
                                            Reg::kPc));
        m.cpu().set_reg(Reg::kSr, 0);
        ASSERT_EQ(m.cpu().Step(), StepResult::kOk);
        // PC reads as the fall-through address; adding 0xFFFF steps it back
        // to an odd address, one below it, with a carry out.
        const uint16_t next = ModeHasExtWord(shape.operand.mode) ? 0x4404 : 0x4402;
        if (op == Opcode::kMov) {
          EXPECT_EQ(m.cpu().pc(), 0xFFFE);
          EXPECT_EQ(m.cpu().sr(), 0);
        } else {
          EXPECT_EQ(m.cpu().pc(), next - 2);
          EXPECT_EQ(m.cpu().sr(), kSrCarry);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Format II edge semantics
// ---------------------------------------------------------------------------

struct UnaryCase {
  Opcode op;
  bool byte;
  uint16_t in;
  bool carry_in;
  uint8_t tag;
  uint16_t expect;
  int c, z, n;
};
static_assert(std::has_unique_object_representations_v<UnaryCase>);

UnaryCase Unary(Opcode op, bool byte, uint16_t in, bool carry_in, uint16_t expect, int c, int z,
                int n, uint8_t tag = 0) {
  return {op, byte, in, carry_in, tag, expect, c, z, n};
}

class UnarySemantics : public ::testing::TestWithParam<UnaryCase> {};

TEST_P(UnarySemantics, MatchesArchitecture) {
  const UnaryCase& c = GetParam();
  Instruction insn;
  insn.op = c.op;
  insn.byte = c.byte;
  insn.dst = RegOp(Reg::kR4);
  auto words = Encode(insn);
  ASSERT_TRUE(words.ok());
  for (const bool predecode : {true, false}) {
    SCOPED_TRACE(StrFormat("%s%s in=%04x cin=%d, %s core", std::string(OpcodeName(c.op)).c_str(),
                           c.byte ? ".b" : "", c.in, c.carry_in ? 1 : 0,
                           predecode ? "fast" : "interpreter"));
    Machine m;
    m.cpu().set_predecode(predecode);
    m.bus().PokeWord(0x4400, (*words)[0]);
    m.bus().PokeWord(kResetVector, 0x4400);
    m.cpu().Reset();
    m.cpu().set_reg(Reg::kR4, c.in);
    // V starts set: RRC, RRA and SXT clear it, SWPB touches no flag.
    m.cpu().set_reg(Reg::kSr, kSrOverflow | (c.carry_in ? kSrCarry : 0));
    ASSERT_EQ(m.cpu().Step(), StepResult::kOk);
    EXPECT_EQ(m.cpu().reg(Reg::kR4), c.expect);
    const uint16_t sr = m.cpu().sr();
    if (c.c >= 0) {
      EXPECT_EQ((sr & kSrCarry) != 0, c.c == 1) << "C";
    }
    if (c.z >= 0) {
      EXPECT_EQ((sr & kSrZero) != 0, c.z == 1) << "Z";
    }
    if (c.n >= 0) {
      EXPECT_EQ((sr & kSrNegative) != 0, c.n == 1) << "N";
    }
    EXPECT_EQ((sr & kSrOverflow) != 0, c.op == Opcode::kSwpb) << "V";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shifts, UnarySemantics,
    ::testing::Values(
        //     op            byte   in     cin  expect  c  z  n  tag
        Unary(Opcode::kRra, false, 0x0005, 0, 0x0002, 1, 0, 0),
        Unary(Opcode::kRra, false, 0x8000, 0, 0xC000, 0, 0, 1),  // keeps sign
        Unary(Opcode::kRra, false, 0x0001, 0, 0x0000, 1, 1, 0),
        Unary(Opcode::kRrc, false, 0x0000, 1, 0x8000, 0, 0, 1),  // C rotates in
        Unary(Opcode::kRrc, false, 0x0001, 0, 0x0000, 1, 1, 0),
        Unary(Opcode::kRrc, true, 0x0001, 1, 0x0080, 1, 0, 1),
        Unary(Opcode::kSwpb, false, 0xABCD, 0, 0xCDAB, -1, -1, -1, 0x18),
        Unary(Opcode::kSxt, false, 0x0080, 0, 0xFF80, 1, 0, 1),
        Unary(Opcode::kSxt, false, 0x007F, 0, 0x007F, 1, 0, 0),
        Unary(Opcode::kSxt, false, 0x0000, 0, 0x0000, 0, 1, 0, 0xDC),
        // Byte forms shift the low byte only and clear the high byte.
        Unary(Opcode::kRra, true, 0x1281, 0, 0x00C0, 1, 0, 1, 0x5B),
        Unary(Opcode::kRra, true, 0xFF01, 0, 0x0000, 1, 1, 0, 0x5B),
        Unary(Opcode::kRrc, true, 0xFF02, 0, 0x0001, 0, 0, 0, 0x5B),
        Unary(Opcode::kRrc, true, 0x0101, 0, 0x0000, 1, 1, 0, 0x5B),
        // SXT reads bit 7 and drops whatever the high byte held.
        Unary(Opcode::kSxt, false, 0x1234, 0, 0x0034, 1, 0, 0, 0x5B),
        Unary(Opcode::kSxt, false, 0x7F80, 0, 0xFF80, 1, 0, 1, 0x5B),
        Unary(Opcode::kSxt, false, 0xFF00, 0, 0x0000, 0, 1, 0, 0x5B)));

// ---------------------------------------------------------------------------
// Byte operations on memory: only the addressed byte changes.
// ---------------------------------------------------------------------------

TEST(ByteMemoryTest, ByteStoreLeavesNeighborAlone) {
  Machine m;
  // mov.b r5, &0x1C01  (high byte of the word at 0x1C00)
  Instruction insn;
  insn.op = Opcode::kMov;
  insn.byte = true;
  insn.src = RegOp(Reg::kR5);
  insn.dst = AbsoluteOp(0x1C01);
  auto words = Encode(insn);
  ASSERT_TRUE(words.ok());
  m.bus().PokeWord(0x4400, (*words)[0]);
  m.bus().PokeWord(0x4402, (*words)[1]);
  m.bus().PokeWord(0x1C00, 0x1122);
  m.bus().PokeWord(kResetVector, 0x4400);
  m.cpu().Reset();
  m.cpu().set_reg(Reg::kR5, 0x00AB);
  ASSERT_EQ(m.cpu().Step(), StepResult::kOk);
  EXPECT_EQ(m.bus().PeekWord(0x1C00), 0xAB22);
}

TEST(ByteMemoryTest, ByteLoadFromOddAddressGetsHighByte) {
  Machine m;
  Instruction insn;
  insn.op = Opcode::kMov;
  insn.byte = true;
  insn.src = AbsoluteOp(0x1C01);
  insn.dst = RegOp(Reg::kR4);
  auto words = Encode(insn);
  ASSERT_TRUE(words.ok());
  m.bus().PokeWord(0x4400, (*words)[0]);
  m.bus().PokeWord(0x4402, (*words)[1]);
  m.bus().PokeWord(0x1C00, 0x7E55);
  m.bus().PokeWord(kResetVector, 0x4400);
  m.cpu().Reset();
  m.cpu().set_reg(Reg::kR4, 0xFFFF);
  ASSERT_EQ(m.cpu().Step(), StepResult::kOk);
  EXPECT_EQ(m.cpu().reg(Reg::kR4), 0x007E) << "byte into register clears the high byte";
}

// ---------------------------------------------------------------------------
// Assembler <-> disassembler round trip over an instruction corpus
// ---------------------------------------------------------------------------

TEST(RoundTripTest, DisassemblyReassemblesToIdenticalBytes) {
  // A corpus covering formats, widths, addressing modes, and CG constants.
  const char* kCorpus[] = {
      "mov r5, r6",        "add #2, r7",          "add #100, r7",
      "sub @r4, r5",       "subc @r9+, r10",      "cmp #-1, r11",
      "xor 4(r4), r12",    "and #8, r13",         "bit #4, r14",
      "bis #1, r15",       "bic #0, r5",          "dadd r6, r7",
      "mov.b @r4+, r5",    "add.b #1, r6",        "xor.b 2(r7), r8",
      "rra r5",            "rrc.b r6",            "swpb r7",
      "sxt r8",            "push #4",             "push r10",
      "call r11",          "reti",                "mov &0x1c00, r5",
      "mov r5, &0x1c02",   "mov 6(r4), 8(r4)",    "push 2(r4)",
  };
  for (const char* line : kCorpus) {
    auto obj1 = Assemble(std::string("  ") + line + "\n", "a.s");
    ASSERT_TRUE(obj1.ok()) << line << ": " << obj1.status().ToString();
    const auto& bytes1 = obj1->sections[0].bytes;
    // Decode the bytes.
    std::vector<uint16_t> words;
    for (size_t i = 0; i + 1 < bytes1.size(); i += 2) {
      words.push_back(static_cast<uint16_t>(bytes1[i] | (bytes1[i + 1] << 8)));
    }
    auto decoded = Decode(words);
    ASSERT_TRUE(decoded.ok()) << line;
    std::string text = Disassemble(*decoded, 0x4400);
    auto obj2 = Assemble("  " + text + "\n", "b.s");
    ASSERT_TRUE(obj2.ok()) << line << " -> " << text << ": " << obj2.status().ToString();
    EXPECT_EQ(obj2->sections[0].bytes, bytes1) << line << " -> " << text;
  }
}

}  // namespace
}  // namespace amulet
