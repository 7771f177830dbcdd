// Versioned little-endian binary serialization core: the writer/reader pair
// behind machine snapshots (src/mcu/snapshot.h) and fleet checkpoints
// (src/fleet/checkpoint.h). Lives in common so any layer — including
// src/scope, which the MCU layer links — can serialize its state without a
// dependency cycle.
//
// Stream shape: callers emit fixed-width integers (little-endian), strings
// (u32 length + bytes), doubles (IEEE-754 bit pattern as u64), and flat
// sections: u8 tag | u32 payload length | payload. Sections may not nest.
#ifndef SRC_COMMON_BINIO_H_
#define SRC_COMMON_BINIO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace amulet {

class SnapshotWriter {
 public:
  void U8(uint8_t v) { out_.push_back(v); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  // IEEE-754 bit pattern as a u64: round-trips every double bit-exactly.
  void F64(double v);
  void Bytes(const uint8_t* data, size_t n);
  void Str(const std::string& s);  // u32 length + bytes

  // Sections may not nest. The tag is any enum (or integer) that fits a u8.
  template <typename Tag>
  void BeginSection(Tag tag) {
    BeginSectionRaw(static_cast<uint8_t>(tag));
  }
  void EndSection();

  const std::vector<uint8_t>& bytes() const { return out_; }
  std::vector<uint8_t> Take() { return std::move(out_); }

 private:
  void BeginSectionRaw(uint8_t tag);

  std::vector<uint8_t> out_;
  size_t section_length_at_ = 0;  // offset of the open section's length field
  bool in_section_ = false;
};

// Sticky-error reader: past the first failure every read returns zero and
// status() carries the diagnosis, so device LoadState code stays linear.
class SnapshotReader {
 public:
  explicit SnapshotReader(const std::vector<uint8_t>& bytes) : data_(&bytes) {}

  uint8_t U8();
  uint16_t U16();
  uint32_t U32();
  uint64_t U64();
  double F64();
  void Bytes(uint8_t* out, size_t n);
  // An n-byte blob. The remaining bytes are checked before anything is
  // allocated, so a corrupt length from the stream fails instead of
  // allocating it.
  std::vector<uint8_t> Blob(size_t n);
  std::string Str();

  // Reads and validates a section header; the matching LeaveSection checks
  // the payload was consumed exactly.
  template <typename Tag>
  void EnterSection(Tag tag) {
    EnterSectionRaw(static_cast<uint8_t>(tag));
  }
  void LeaveSection();

  bool AtEnd() const { return pos_ == data_->size(); }
  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  void Fail(Status status);

 private:
  bool Need(size_t n);
  void EnterSectionRaw(uint8_t tag);

  const std::vector<uint8_t>* data_;
  size_t pos_ = 0;
  size_t section_end_ = 0;
  bool in_section_ = false;
  Status status_;
};

}  // namespace amulet

#endif  // SRC_COMMON_BINIO_H_
