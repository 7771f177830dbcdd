// OTA firmware-image container ("AMFU", docs/ota.md). Modeled on the
// qm-bootloader's QFU format: a fixed header carrying the firmware version,
// target memory model, payload length, and a keyed MAC over the payload, then
// the payload (the linked firmware's loadable chunks), with FNV-1a integrity
// checks over header and payload so transport corruption is caught at decode
// time without the key. Authenticity (an attacker who can fix the checksums
// but does not hold the fleet key) is the MAC's job, and is verified by the
// simulated bootloader (src/ota/bootloader.h).
//
// Layout (little-endian, fixed offsets):
//   off  0  u32  magic "AMFU"
//   off  4  u32  container format version (kOtaFormatVersion)
//   off  8  u32  firmware version
//   off 12  u8   target MemoryModel
//   off 13  u32  payload length
//   off 17  u16  mac[4]            (8 bytes, ComputeOtaMac over the payload)
//   off 25  u64  header check      (FNV-1a over bytes [0, 25))
//   off 33  ...  payload
//   tail    u64  payload check     (FNV-1a over the payload bytes)
//
// Every malformed input — short buffer, bad magic/version/model, length
// mismatch, failed check — decodes to InvalidArgument; nothing is ever
// partially applied (tests/ota_test.cpp fuzzes every truncation point and
// every single-bit flip).
#ifndef SRC_OTA_IMAGE_H_
#define SRC_OTA_IMAGE_H_

#include <cstdint>
#include <vector>

#include "src/aft/model.h"
#include "src/asm/object.h"
#include "src/common/status.h"
#include "src/ota/mac.h"

namespace amulet {

inline constexpr uint32_t kOtaImageMagic = 0x55464D41;  // "AMFU" little-endian
inline constexpr uint32_t kOtaFormatVersion = 1;
// magic + version + fw_version + model + payload_len + mac = 25 bytes.
inline constexpr size_t kOtaHeaderBytes = 25;
// Header + header check; the payload starts here.
inline constexpr size_t kOtaPayloadOffset = kOtaHeaderBytes + 8;

// FNV-1a 64 over an arbitrary byte span; also used to fingerprint firmware
// images for the fleet-checkpoint config hash (see FirmwareImageHash).
uint64_t Fnv1a64(const uint8_t* data, size_t len, uint64_t seed = 0xCBF29CE484222325ull);

struct OtaImage {
  uint32_t firmware_version = 0;
  MemoryModel model = MemoryModel::kMpu;
  MacTag mac;
  std::vector<uint8_t> payload;
};

std::vector<uint8_t> EncodeOtaImage(const OtaImage& image);
Result<OtaImage> DecodeOtaImage(const std::vector<uint8_t>& bytes);

// The payload carried by an OTA image: the linked firmware's loadable chunks
// (u32 chunk count, then u16 base | u32 length | bytes per chunk). Symbols
// are host-side metadata and are not flashed, so they are not packed.
std::vector<uint8_t> EncodeFirmwarePayload(const Image& image);

// FNV-1a 64 over EncodeFirmwarePayload(image): a stable fingerprint of the
// bytes that would be flashed. Folded into FleetConfigHash so a checkpoint
// written by one firmware build cannot be resumed with another.
uint64_t FirmwareImageHash(const Image& image);

// Builds and authenticates a container around `image`.
OtaImage PackOtaImage(const Image& image, uint32_t firmware_version, MemoryModel model,
                      const OtaKey& key);

// Attacker model for tests/bench: flips one bit of the MAC (bit_index in
// [0, 64)) or the payload (bit_index - 64 onward), then re-fixes both FNV
// integrity checks — what an attacker without the fleet key can do. The
// result decodes cleanly; only the simulated MAC verification rejects it.
Result<std::vector<uint8_t>> TamperOtaImage(const std::vector<uint8_t>& bytes,
                                            size_t bit_index);

}  // namespace amulet

#endif  // SRC_OTA_IMAGE_H_
