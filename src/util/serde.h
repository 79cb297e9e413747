// Binary serialization helpers: little-endian, length-prefixed, with
// bounds-checked reads. Used for SFA blobs, chunk-graph blobs, and the
// on-disk page format of the mini-RDBMS.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace staccato {

/// \brief Append-only binary encoder.
class BinaryWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }
  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }

  /// Varint-encoded unsigned value (LEB128); compact for small counts.
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      PutU8(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    PutU8(static_cast<uint8_t>(v));
  }

  void PutString(const std::string& s) {
    PutVarint(s.size());
    PutRaw(s.data(), s.size());
  }

  void PutRaw(const void* data, size_t n) {
    const char* p = static_cast<const char*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  const std::string& buffer() const { return buf_; }
  std::string Release() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// \brief Bounds-checked binary decoder over a borrowed byte range.
class BinaryReader {
 public:
  BinaryReader(const void* data, size_t size)
      : data_(static_cast<const char*>(data)), size_(size) {}
  explicit BinaryReader(const std::string& s) : BinaryReader(s.data(), s.size()) {}

  Result<uint8_t> GetU8() {
    uint8_t v{};
    STACCATO_RETURN_NOT_OK(GetRaw(&v, sizeof(v)));
    return v;
  }
  Result<uint32_t> GetU32() {
    uint32_t v{};
    STACCATO_RETURN_NOT_OK(GetRaw(&v, sizeof(v)));
    return v;
  }
  Result<uint64_t> GetU64() {
    uint64_t v{};
    STACCATO_RETURN_NOT_OK(GetRaw(&v, sizeof(v)));
    return v;
  }
  Result<int64_t> GetI64() {
    int64_t v{};
    STACCATO_RETURN_NOT_OK(GetRaw(&v, sizeof(v)));
    return v;
  }
  Result<double> GetDouble() {
    double v{};
    STACCATO_RETURN_NOT_OK(GetRaw(&v, sizeof(v)));
    return v;
  }

  Result<uint64_t> GetVarint() {
    uint64_t v = 0;
    if (!ReadVarint(&v)) {
      return Status::Corruption("truncated or overlong varint");
    }
    return v;
  }

  Result<std::string> GetString() {
    STACCATO_ASSIGN_OR_RETURN(uint64_t n, GetVarint());
    if (n > remaining()) return Status::Corruption("string length out of bounds");
    std::string s(data_ + pos_, n);
    pos_ += n;
    return s;
  }

  Status GetRaw(void* out, size_t n) {
    if (n > remaining()) return Status::Corruption("read past end of buffer");
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  // Status-free reads for decoders whose per-element loops are hot
  // (SfaView::Decode): a failure is `false` or nullptr, and the caller
  // reports it.

  /// Reads a varint; false if the buffer ends first or it exceeds ten bytes.
  bool ReadVarint(uint64_t* v) {
    uint64_t r = 0;
    for (int shift = 0; shift < 64 && pos_ < size_; shift += 7) {
      const uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
      r |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        *v = r;
        return true;
      }
    }
    return false;
  }
  /// Consumes `n` bytes and returns their start; nullptr if fewer remain.
  const char* ReadBytes(size_t n) {
    if (n > remaining()) return nullptr;
    const char* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace staccato
