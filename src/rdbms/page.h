// Slotted pages: the on-disk unit of the heap tables. Classic layout —
// header and slot directory grow from the front, record payloads grow from
// the back; a record is addressed by (page id, slot id).
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace staccato::rdbms {

inline constexpr size_t kPageSize = 8192;

/// \brief Record address: page number within a table file plus slot index.
struct RecordId {
  uint32_t page = 0;
  uint16_t slot = 0;

  bool operator==(const RecordId& o) const {
    return page == o.page && slot == o.slot;
  }
};

/// 64-bit encoding of a RecordId ([page:48][slot:16]), used to store record
/// addresses as B+-tree payloads. Pack and Unpack must stay inverses; both
/// live here so the bit layout has a single owner.
inline uint64_t PackRecordId(RecordId rid) {
  return (static_cast<uint64_t>(rid.page) << 16) | rid.slot;
}
inline RecordId UnpackRecordId(uint64_t v) {
  return RecordId{static_cast<uint32_t>(v >> 16),
                  static_cast<uint16_t>(v & 0xFFFF)};
}

/// Slotted-page layout:
///   [u16 num_slots][u16 free_end][slot dir: u16 off, u16 len per slot]...
///   ...free space... [record data packed at the tail]
inline constexpr size_t kPageHeaderSize = 4;
inline constexpr size_t kSlotEntrySize = 4;

/// \brief Read-only view of one slotted page's bytes, wherever they live:
/// a SlottedPage, a read buffer, or a cached copy.
class PageView {
 public:
  explicit PageView(const char* data) : data_(data) {}

  uint16_t NumSlots() const { return ReadU16(0); }

  /// Reads the record in `slot`.
  Result<std::string_view> Get(uint16_t slot) const;

  uint16_t ReadU16(size_t off) const {
    uint16_t v;
    std::memcpy(&v, data_ + off, 2);
    return v;
  }

 private:
  const char* data_;
};

/// \brief One 8 KiB slotted page (layout above).
class SlottedPage {
 public:
  SlottedPage() { Init(); }

  void Init() {
    std::memset(data_, 0, kPageSize);
    SetNumSlots(0);
    SetFreeEnd(kPageSize);
  }

  PageView view() const { return PageView(data_); }
  uint16_t NumSlots() const { return view().NumSlots(); }

  /// Bytes still available for one more record (including its slot entry).
  size_t FreeSpace() const;

  /// True if a record of `len` bytes fits.
  bool Fits(size_t len) const { return FreeSpace() >= len + kSlotEntrySize; }

  /// Appends a record; fails with OutOfRange if it does not fit.
  Result<uint16_t> Insert(std::string_view record);

  /// Reads the record in `slot`.
  Result<std::string_view> Get(uint16_t slot) const { return view().Get(slot); }

  const char* raw() const { return data_; }
  char* raw() { return data_; }

 private:
  uint16_t ReadU16(size_t off) const { return view().ReadU16(off); }
  void WriteU16(size_t off, uint16_t v) { std::memcpy(data_ + off, &v, 2); }

  uint16_t FreeEnd() const { return ReadU16(2); }
  void SetNumSlots(uint16_t n) { WriteU16(0, n); }
  void SetFreeEnd(uint16_t v) { WriteU16(2, v); }

  char data_[kPageSize];
};

}  // namespace staccato::rdbms
