#include "src/common/binio.h"

#include <bit>
#include <cstring>

#include "src/common/logging.h"
#include "src/common/strings.h"

namespace amulet {

void SnapshotWriter::U16(uint16_t v) {
  out_.push_back(static_cast<uint8_t>(v & 0xFF));
  out_.push_back(static_cast<uint8_t>(v >> 8));
}

void SnapshotWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out_.push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

void SnapshotWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out_.push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

void SnapshotWriter::F64(double v) { U64(std::bit_cast<uint64_t>(v)); }

void SnapshotWriter::Bytes(const uint8_t* data, size_t n) {
  out_.insert(out_.end(), data, data + n);
}

void SnapshotWriter::Str(const std::string& s) {
  U32(static_cast<uint32_t>(s.size()));
  Bytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

void SnapshotWriter::BeginSectionRaw(uint8_t tag) {
  AMULET_CHECK(!in_section_);
  in_section_ = true;
  U8(tag);
  section_length_at_ = out_.size();
  U32(0);  // placeholder, patched by EndSection
}

void SnapshotWriter::EndSection() {
  AMULET_CHECK(in_section_);
  in_section_ = false;
  const uint32_t length = static_cast<uint32_t>(out_.size() - section_length_at_ - 4);
  for (int i = 0; i < 4; ++i) {
    out_[section_length_at_ + i] = static_cast<uint8_t>((length >> (8 * i)) & 0xFF);
  }
}

bool SnapshotReader::Need(size_t n) {
  if (!status_.ok()) {
    return false;
  }
  const size_t limit = in_section_ ? section_end_ : data_->size();
  if (n > limit - pos_) {  // pos_ <= limit; `pos_ + n` could wrap
    status_ = OutOfRangeError(
        StrFormat("snapshot truncated: need %zu bytes at offset %zu (limit %zu)", n, pos_,
                  limit));
    return false;
  }
  return true;
}

uint8_t SnapshotReader::U8() {
  if (!Need(1)) {
    return 0;
  }
  return (*data_)[pos_++];
}

uint16_t SnapshotReader::U16() {
  if (!Need(2)) {
    return 0;
  }
  uint16_t v = static_cast<uint16_t>((*data_)[pos_] | ((*data_)[pos_ + 1] << 8));
  pos_ += 2;
  return v;
}

uint32_t SnapshotReader::U32() {
  if (!Need(4)) {
    return 0;
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>((*data_)[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

uint64_t SnapshotReader::U64() {
  if (!Need(8)) {
    return 0;
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>((*data_)[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

double SnapshotReader::F64() { return std::bit_cast<double>(U64()); }

void SnapshotReader::Bytes(uint8_t* out, size_t n) {
  if (n == 0) {
    return;  // `out` may be null (an empty vector's data())
  }
  if (!Need(n)) {
    std::memset(out, 0, n);
    return;
  }
  std::memcpy(out, data_->data() + pos_, n);
  pos_ += n;
}

std::vector<uint8_t> SnapshotReader::Blob(size_t n) {
  if (!Need(n)) {
    return {};
  }
  std::vector<uint8_t> out(data_->data() + pos_, data_->data() + pos_ + n);
  pos_ += n;
  return out;
}

std::string SnapshotReader::Str() {
  const uint32_t n = U32();
  if (!Need(n)) {
    return std::string();
  }
  std::string s(reinterpret_cast<const char*>(data_->data() + pos_), n);
  pos_ += n;
  return s;
}

void SnapshotReader::EnterSectionRaw(uint8_t tag) {
  if (!status_.ok()) {
    return;
  }
  if (in_section_) {
    Fail(InternalError("nested snapshot section"));
    return;
  }
  const uint8_t got = U8();
  const uint32_t length = U32();
  if (!status_.ok()) {
    return;
  }
  if (got != tag) {
    Fail(InvalidArgumentError(
        StrFormat("snapshot section mismatch: expected tag %u, found %u",
                  static_cast<unsigned>(tag), static_cast<unsigned>(got))));
    return;
  }
  if (pos_ + length > data_->size()) {
    Fail(OutOfRangeError(StrFormat("snapshot section %u overruns the buffer (%u bytes)",
                                   static_cast<unsigned>(tag), length)));
    return;
  }
  in_section_ = true;
  section_end_ = pos_ + length;
}

void SnapshotReader::LeaveSection() {
  if (!status_.ok()) {
    return;
  }
  if (!in_section_) {
    Fail(InternalError("LeaveSection without EnterSection"));
    return;
  }
  if (pos_ != section_end_) {
    Fail(InvalidArgumentError(
        StrFormat("snapshot section has %zu unread bytes", section_end_ - pos_)));
    return;
  }
  in_section_ = false;
}

void SnapshotReader::Fail(Status status) {
  if (status_.ok()) {
    status_ = std::move(status);
  }
}

}  // namespace amulet
