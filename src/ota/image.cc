#include "src/ota/image.h"

#include <cstring>

#include "src/common/binio.h"
#include "src/common/strings.h"

namespace amulet {

uint64_t Fnv1a64(const uint8_t* data, size_t len, uint64_t seed) {
  uint64_t hash = seed;
  for (size_t i = 0; i < len; ++i) {
    hash ^= data[i];
    hash *= 0x100000001B3ull;
  }
  return hash;
}

std::vector<uint8_t> EncodeOtaImage(const OtaImage& image) {
  SnapshotWriter w;
  w.U32(kOtaImageMagic);
  w.U32(kOtaFormatVersion);
  w.U32(image.firmware_version);
  w.U8(static_cast<uint8_t>(image.model));
  w.U32(static_cast<uint32_t>(image.payload.size()));
  for (uint16_t word : image.mac.words) {
    w.U16(word);
  }
  w.U64(Fnv1a64(w.bytes().data(), kOtaHeaderBytes));
  w.Bytes(image.payload.data(), image.payload.size());
  w.U64(Fnv1a64(image.payload.data(), image.payload.size()));
  return w.Take();
}

Result<OtaImage> DecodeOtaImage(const std::vector<uint8_t>& bytes) {
  if (bytes.size() < kOtaPayloadOffset + 8) {
    return InvalidArgumentError(
        StrFormat("OTA image truncated: %zu bytes, need at least %zu", bytes.size(),
                  kOtaPayloadOffset + 8));
  }
  SnapshotReader r(bytes);
  const uint32_t magic = r.U32();
  if (magic != kOtaImageMagic) {
    return InvalidArgumentError(StrFormat("not an OTA image (magic 0x%08x)", magic));
  }
  const uint32_t format = r.U32();
  if (format != kOtaFormatVersion) {
    return InvalidArgumentError(
        StrFormat("unsupported OTA image format %u (supported: %u)", format,
                  kOtaFormatVersion));
  }
  OtaImage out;
  out.firmware_version = r.U32();
  const uint8_t model = r.U8();
  if (model > static_cast<uint8_t>(MemoryModel::kMpu)) {
    return InvalidArgumentError(StrFormat("OTA image names unknown memory model %u", model));
  }
  out.model = static_cast<MemoryModel>(model);
  const uint32_t payload_len = r.U32();
  for (uint16_t& word : out.mac.words) {
    word = r.U16();
  }
  const uint64_t header_check = r.U64();
  if (!r.ok()) {
    return InvalidArgumentError("OTA image header unreadable");
  }
  if (header_check != Fnv1a64(bytes.data(), kOtaHeaderBytes)) {
    return InvalidArgumentError("OTA image header integrity check failed");
  }
  if (bytes.size() != kOtaPayloadOffset + static_cast<size_t>(payload_len) + 8) {
    return InvalidArgumentError(
        StrFormat("OTA image length mismatch: header names a %u-byte payload but the "
                  "container is %zu bytes",
                  payload_len, bytes.size()));
  }
  out.payload.assign(bytes.begin() + kOtaPayloadOffset,
                     bytes.begin() + kOtaPayloadOffset + payload_len);
  uint64_t payload_check = 0;
  std::memcpy(&payload_check, bytes.data() + kOtaPayloadOffset + payload_len, 8);
  if (payload_check != Fnv1a64(out.payload.data(), out.payload.size())) {
    return InvalidArgumentError("OTA image payload integrity check failed");
  }
  return out;
}

std::vector<uint8_t> EncodeFirmwarePayload(const Image& image) {
  SnapshotWriter w;
  w.U32(static_cast<uint32_t>(image.chunks.size()));
  for (const auto& [base, chunk] : image.chunks) {
    w.U16(base);
    w.U32(static_cast<uint32_t>(chunk.size()));
    w.Bytes(chunk.data(), chunk.size());
  }
  return w.Take();
}

Result<Image> DecodeFirmwarePayload(const std::vector<uint8_t>& payload) {
  SnapshotReader r(payload);
  Image image;
  const uint32_t chunk_count = r.U32();
  for (uint32_t i = 0; r.ok() && i < chunk_count; ++i) {
    const uint16_t base = r.U16();
    const uint32_t size = r.U32();
    if (static_cast<uint64_t>(base) + size > 0x10000) {
      return InvalidArgumentError(
          StrFormat("firmware payload chunk [0x%04x, +%u) leaves the address space", base,
                    size));
    }
    std::vector<uint8_t> chunk = r.Blob(size);
    if (r.ok() && !image.chunks.emplace(base, std::move(chunk)).second) {
      return InvalidArgumentError(
          StrFormat("firmware payload repeats chunk base 0x%04x", base));
    }
  }
  if (!r.ok()) {
    return InvalidArgumentError("firmware payload truncated");
  }
  if (!r.AtEnd()) {
    return InvalidArgumentError("firmware payload has trailing bytes");
  }
  return image;
}

uint64_t FirmwareImageHash(const Image& image) {
  const std::vector<uint8_t> payload = EncodeFirmwarePayload(image);
  return Fnv1a64(payload.data(), payload.size());
}

OtaImage PackOtaImage(const Image& image, uint32_t firmware_version, MemoryModel model,
                      const OtaKey& key) {
  OtaImage out;
  out.firmware_version = firmware_version;
  out.model = model;
  out.payload = EncodeFirmwarePayload(image);
  out.mac = ComputeOtaMac(key, out.payload.data(), out.payload.size());
  return out;
}

Result<std::vector<uint8_t>> TamperOtaImage(const std::vector<uint8_t>& bytes,
                                            size_t bit_index) {
  RETURN_IF_ERROR(DecodeOtaImage(bytes).status());
  const size_t payload_len = bytes.size() - kOtaPayloadOffset - 8;
  const size_t mac_bits = 8 * 8;
  if (bit_index >= mac_bits + payload_len * 8) {
    return InvalidArgumentError(
        StrFormat("tamper bit %zu out of range (%zu MAC bits + %zu payload bits)",
                  bit_index, mac_bits, payload_len * 8));
  }
  std::vector<uint8_t> out = bytes;
  const size_t byte_index = bit_index < mac_bits
                                ? 17 + bit_index / 8
                                : kOtaPayloadOffset + (bit_index - mac_bits) / 8;
  out[byte_index] ^= static_cast<uint8_t>(1u << (bit_index % 8));
  // Re-fix the integrity checks: the attacker controls the container, just
  // not the key behind the MAC.
  const uint64_t header_check = Fnv1a64(out.data(), kOtaHeaderBytes);
  std::memcpy(out.data() + kOtaHeaderBytes, &header_check, 8);
  const uint64_t payload_check = Fnv1a64(out.data() + kOtaPayloadOffset, payload_len);
  std::memcpy(out.data() + kOtaPayloadOffset + payload_len, &payload_check, 8);
  return out;
}

}  // namespace amulet
