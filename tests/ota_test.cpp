// OTA subsystem tests: the keyed MAC (host reference vs. the simulated
// MSP430 verifier, bit for bit), the AMFU image container (round trip +
// corrupt-input fuzzing), bl-data persistence, and the tamper model
// (checksum-fixing attacker without the key).
#include <chrono>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "src/mcu/machine.h"
#include "src/ota/bootloader.h"
#include "src/ota/image.h"
#include "src/ota/mac.h"

namespace amulet {
namespace {

OtaKey TestKey() {
  OtaKey key;
  key.words[0] = 0x1234;
  key.words[1] = 0xABCD;
  key.words[2] = 0x0F0F;
  key.words[3] = 0x9999;
  return key;
}

// Deterministic pseudo-random payload (xorshift; no time/seed dependence).
std::vector<uint8_t> TestPayload(size_t len, uint32_t seed) {
  std::vector<uint8_t> out(len);
  uint32_t x = seed | 1;
  for (size_t i = 0; i < len; ++i) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    out[i] = static_cast<uint8_t>(x);
  }
  return out;
}

MacTag MacOf(const OtaKey& key, const std::vector<uint8_t>& payload) {
  return ComputeOtaMac(key, payload.data(), payload.size());
}

// ---------------------------------------------------------------------------
// Host MAC properties
// ---------------------------------------------------------------------------

TEST(MacTest, DeterministicAndNonTrivial) {
  const std::vector<uint8_t> payload = TestPayload(257, 7);
  const MacTag a = MacOf(TestKey(), payload);
  const MacTag b = MacOf(TestKey(), payload);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, MacTag{});  // not the all-zero tag
}

TEST(MacTest, KeySensitivity) {
  const std::vector<uint8_t> payload = TestPayload(64, 3);
  OtaKey other = TestKey();
  other.words[2] ^= 1;
  EXPECT_NE(MacOf(TestKey(), payload), MacOf(other, payload));
}

TEST(MacTest, MessageSensitivity) {
  const std::vector<uint8_t> payload = TestPayload(64, 3);
  for (size_t bit : {size_t{0}, size_t{17}, size_t{8 * 63 + 7}}) {
    std::vector<uint8_t> flipped = payload;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_NE(MacOf(TestKey(), payload), MacOf(TestKey(), flipped)) << "bit " << bit;
  }
}

TEST(MacTest, LengthSensitivity) {
  // "xy" and "xy\0" absorb the same padded words; only the finalization
  // length distinguishes them.
  const std::vector<uint8_t> even = {'x', 'y'};
  const std::vector<uint8_t> padded = {'x', 'y', 0};
  EXPECT_NE(MacOf(TestKey(), even), MacOf(TestKey(), padded));
}

TEST(MacTest, EmptyPayloadHasTag) {
  const std::vector<uint8_t> empty;
  EXPECT_NE(MacOf(TestKey(), empty), MacTag{});
}

// ---------------------------------------------------------------------------
// Simulated verifier vs. host reference
// ---------------------------------------------------------------------------

TEST(MacSimTest, AcceptsHostTagAcrossLengthsAndWaitStates) {
  for (size_t len : {size_t{0}, size_t{1}, size_t{2}, size_t{33}, size_t{1000}}) {
    const std::vector<uint8_t> payload = TestPayload(len, static_cast<uint32_t>(len) + 11);
    const MacTag tag = MacOf(TestKey(), payload);
    for (int waits : {0, 1, 2}) {
      auto run = SimulateMacVerify(payload, tag, TestKey(), waits);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_TRUE(run->accepted) << "len " << len << " waits " << waits;
      EXPECT_GT(run->cycles, 0u);
      EXPECT_GT(run->instructions, 0u);
    }
  }
}

TEST(MacSimTest, RejectsEveryWrongTagWord) {
  const std::vector<uint8_t> payload = TestPayload(100, 5);
  const MacTag good = MacOf(TestKey(), payload);
  for (int word = 0; word < 4; ++word) {
    MacTag bad = good;
    bad.words[word] ^= 0x0100;
    auto run = SimulateMacVerify(payload, bad, TestKey(), 1);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_FALSE(run->accepted) << "word " << word;
  }
}

TEST(MacSimTest, RejectsWrongKey) {
  const std::vector<uint8_t> payload = TestPayload(64, 9);
  const MacTag tag = MacOf(TestKey(), payload);
  OtaKey other = TestKey();
  other.words[0] ^= 0x8000;
  auto run = SimulateMacVerify(payload, tag, other, 1);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_FALSE(run->accepted);
}

TEST(MacSimTest, ChunkedStagingMatchesForLargePayloads) {
  // Larger than the 30 KiB staging window, so the driver re-stages the
  // window at least twice; the tag must still match the one-shot host MAC.
  const std::vector<uint8_t> payload = TestPayload(0x3C00 * 2 + 37, 21);
  const MacTag tag = MacOf(TestKey(), payload);
  auto run = SimulateMacVerify(payload, tag, TestKey(), 1);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->accepted);
}

TEST(MacSimTest, WaitStatesRaiseVerificationCost) {
  const std::vector<uint8_t> payload = TestPayload(2000, 13);
  const MacTag tag = MacOf(TestKey(), payload);
  auto fast = SimulateMacVerify(payload, tag, TestKey(), 0);
  auto slow = SimulateMacVerify(payload, tag, TestKey(), 2);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  EXPECT_GT(slow->cycles, fast->cycles);
  EXPECT_EQ(slow->instructions, fast->instructions);
}

TEST(MacSimTest, CostIsDeterministic) {
  const std::vector<uint8_t> payload = TestPayload(500, 17);
  const MacTag tag = MacOf(TestKey(), payload);
  auto a = SimulateMacVerify(payload, tag, TestKey(), 1);
  auto b = SimulateMacVerify(payload, tag, TestKey(), 1);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->cycles, b->cycles);
  EXPECT_EQ(a->instructions, b->instructions);
}

// ---------------------------------------------------------------------------
// AMFU image container
// ---------------------------------------------------------------------------

Image TestFirmwareImage() {
  Image image;
  image.chunks[0x4400] = TestPayload(96, 31);
  image.chunks[0x7000] = TestPayload(17, 32);
  image.symbols["start"] = 0x4400;  // not packed; must not affect the payload
  return image;
}

TEST(OtaImageTest, FirmwareImageHashPinsLoadableBytes) {
  Image image = TestFirmwareImage();
  const uint64_t hash = FirmwareImageHash(image);
  image.symbols["extra"] = 1;  // symbols are host metadata
  EXPECT_EQ(FirmwareImageHash(image), hash);
  image.chunks[0x4400][0] ^= 1;  // loadable bytes are not
  EXPECT_NE(FirmwareImageHash(image), hash);
}

TEST(OtaImageTest, ContainerRoundTrip) {
  const OtaImage packed = PackOtaImage(TestFirmwareImage(), 7, MemoryModel::kMpu, TestKey());
  const std::vector<uint8_t> bytes = EncodeOtaImage(packed);
  auto back = DecodeOtaImage(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->firmware_version, 7u);
  EXPECT_EQ(back->model, MemoryModel::kMpu);
  EXPECT_EQ(back->mac, packed.mac);
  EXPECT_EQ(back->payload, packed.payload);
}

TEST(OtaImageTest, PackedImagePassesSimulatedVerification) {
  const OtaImage packed = PackOtaImage(TestFirmwareImage(), 2, MemoryModel::kMpu, TestKey());
  auto run = SimulateImageVerify(packed, TestKey(), 1);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->accepted);
}

// Fuzz: every truncation point must decode to InvalidArgument — never crash,
// never yield a partially applied image.
TEST(OtaImageFuzzTest, EveryTruncationIsInvalidArgument) {
  const OtaImage packed = PackOtaImage(TestFirmwareImage(), 3, MemoryModel::kMpu, TestKey());
  const std::vector<uint8_t> bytes = EncodeOtaImage(packed);
  for (size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + len);
    auto result = DecodeOtaImage(cut);
    ASSERT_FALSE(result.ok()) << "length " << len;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << "length " << len;
  }
}

// Fuzz: every single-bit flip must decode to InvalidArgument (the FNV
// integrity checks catch transport corruption anywhere in the container).
TEST(OtaImageFuzzTest, EverySingleBitFlipIsInvalidArgument) {
  const OtaImage packed = PackOtaImage(TestFirmwareImage(), 3, MemoryModel::kMpu, TestKey());
  const std::vector<uint8_t> bytes = EncodeOtaImage(packed);
  for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    std::vector<uint8_t> flipped = bytes;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    auto result = DecodeOtaImage(flipped);
    ASSERT_FALSE(result.ok()) << "bit " << bit;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << "bit " << bit;
  }
}

TEST(OtaImageFuzzTest, TrailingBytesAreInvalidArgument) {
  const OtaImage packed = PackOtaImage(TestFirmwareImage(), 3, MemoryModel::kMpu, TestKey());
  std::vector<uint8_t> bytes = EncodeOtaImage(packed);
  bytes.push_back(0);
  auto result = DecodeOtaImage(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// Recomputes both FNV checks of a mutated container the way TamperOtaImage
// does (header check over the 25 header bytes, payload check over whatever
// lies between the header check and the last 8 bytes), so the mutant
// reaches the field checks behind them.
void RecomputeOtaChecks(std::vector<uint8_t>* bytes) {
  if (bytes->size() < kOtaPayloadOffset + 8) {
    return;
  }
  const uint64_t header_check = Fnv1a64(bytes->data(), kOtaHeaderBytes);
  std::memcpy(bytes->data() + kOtaHeaderBytes, &header_check, 8);
  const size_t payload_len = bytes->size() - kOtaPayloadOffset - 8;
  const uint64_t payload_check = Fnv1a64(bytes->data() + kOtaPayloadOffset, payload_len);
  std::memcpy(bytes->data() + kOtaPayloadOffset + payload_len, &payload_check, 8);
}

// Fuzz behind the checksums: seeded edits of a packed container with both
// checks recomputed, including payload lengths of 0xFFFFFFF0 and 0x7FFFFFFF
// and model bytes above the last MemoryModel. Every decode is quick and
// returns OK or InvalidArgument; an accepted container is exactly the
// encoding of what was decoded.
TEST(OtaImageFuzzTest, SeededMutantsBehindTheChecksumsDecodeOrFailCleanly) {
  const OtaImage packed = PackOtaImage(TestFirmwareImage(), 3, MemoryModel::kMpu, TestKey());
  const std::vector<uint8_t> bytes = EncodeOtaImage(packed);
  constexpr size_t kModelAt = 12;
  constexpr size_t kLengthAt = 13;
  std::mt19937 rng(0xA3F0);
  int accepted = 0;
  for (int mutant_index = 0; mutant_index < 2000; ++mutant_index) {
    std::vector<uint8_t> mutant = bytes;
    auto put_length = [&](uint32_t length) { std::memcpy(mutant.data() + kLengthAt, &length, 4); };
    switch (mutant_index % 5) {
      case 0:
        put_length(0xFFFFFFF0u);
        break;
      case 1:
        put_length(0x7FFFFFFFu);
        break;
      case 2:
        mutant[kModelAt] = static_cast<uint8_t>(4 + rng() % 252);
        break;
      case 3: {  // cut or grow the payload, the header length following or not
        const size_t payload = bytes.size() - kOtaPayloadOffset - 8;
        const size_t new_payload = rng() % (2 * payload + 1);
        mutant.resize(kOtaPayloadOffset + new_payload + 8, static_cast<uint8_t>(rng()));
        if (rng() % 2 == 0) {
          put_length(static_cast<uint32_t>(new_payload));
        }
        break;
      }
      default:
        for (int e = 1 + static_cast<int>(rng() % 3); e > 0; --e) {
          mutant[rng() % mutant.size()] ^= static_cast<uint8_t>(1 + rng() % 255);
        }
        break;
    }
    RecomputeOtaChecks(&mutant);
    const auto t0 = std::chrono::steady_clock::now();
    Result<OtaImage> decoded = DecodeOtaImage(mutant);
    const double ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
    ASSERT_LT(ms, 50.0) << "mutant " << mutant_index;
    if (decoded.ok()) {
      ++accepted;
      ASSERT_EQ(EncodeOtaImage(*decoded), mutant) << "mutant " << mutant_index;
    } else {
      ASSERT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
          << "mutant " << mutant_index << ": " << decoded.status().ToString();
    }
  }
  // Edits to the version, the MAC or the payload leave a well-formed image.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 2000);
}

// ---------------------------------------------------------------------------
// Tamper model: attacker fixes the checksums but lacks the key
// ---------------------------------------------------------------------------

TEST(OtaTamperTest, TamperedImageDecodesButFailsMacVerification) {
  const OtaImage packed = PackOtaImage(TestFirmwareImage(), 4, MemoryModel::kMpu, TestKey());
  const std::vector<uint8_t> bytes = EncodeOtaImage(packed);
  // Bit 3 lands in the MAC; bit 64 + 77 lands in the payload.
  for (size_t bit : {size_t{3}, size_t{64 + 77}}) {
    auto tampered = TamperOtaImage(bytes, bit);
    ASSERT_TRUE(tampered.ok()) << tampered.status().ToString();
    auto decoded = DecodeOtaImage(*tampered);
    ASSERT_TRUE(decoded.ok()) << "checksums were re-fixed, decode must succeed";
    auto run = SimulateImageVerify(*decoded, TestKey(), 1);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_FALSE(run->accepted) << "bit " << bit;
  }
}

TEST(OtaTamperTest, OutOfRangeBitIsRejected) {
  const OtaImage packed = PackOtaImage(TestFirmwareImage(), 4, MemoryModel::kMpu, TestKey());
  const std::vector<uint8_t> bytes = EncodeOtaImage(packed);
  auto result = TamperOtaImage(bytes, 8 * (8 + packed.payload.size()));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// bl-data record
// ---------------------------------------------------------------------------

TEST(BlDataTest, MissingRecordIsNotFound) {
  Machine machine;
  auto result = ReadBlData(machine.bus());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(BlDataTest, RoundTripAndPersistsAcrossReset) {
  Machine machine;
  BlData bl;
  bl.active_bank = 1;
  bl.attempt_count = 2;
  bl.rollback_count = 3;
  bl.current_version = 0x00010002;
  bl.prior_version = 0x00010001;
  WriteBlData(&machine.bus(), bl);
  auto back = ReadBlData(machine.bus());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, bl);
  machine.Reset();  // InfoMem is FRAM: the record survives a PUC
  auto after_reset = ReadBlData(machine.bus());
  ASSERT_TRUE(after_reset.ok());
  EXPECT_EQ(*after_reset, bl);
}

}  // namespace
}  // namespace amulet
