#include "rdbms/page.h"

#include "util/strings.h"

namespace staccato::rdbms {

size_t SlottedPage::FreeSpace() const {
  size_t dir_end = kPageHeaderSize + NumSlots() * kSlotEntrySize;
  size_t free_end = FreeEnd();
  return free_end > dir_end ? free_end - dir_end : 0;
}

Result<uint16_t> SlottedPage::Insert(std::string_view record) {
  if (record.size() > kPageSize - kPageHeaderSize - kSlotEntrySize) {
    return Status::InvalidArgument("record larger than page");
  }
  if (!Fits(record.size())) {
    return Status::OutOfRange("page full");
  }
  uint16_t slot = NumSlots();
  uint16_t new_end = static_cast<uint16_t>(FreeEnd() - record.size());
  std::memcpy(data_ + new_end, record.data(), record.size());
  size_t dir_off = kPageHeaderSize + static_cast<size_t>(slot) * kSlotEntrySize;
  WriteU16(dir_off, new_end);
  WriteU16(dir_off + 2, static_cast<uint16_t>(record.size()));
  SetNumSlots(static_cast<uint16_t>(slot + 1));
  SetFreeEnd(new_end);
  return slot;
}

Result<std::string_view> PageView::Get(uint16_t slot) const {
  if (slot >= NumSlots()) {
    return Status::NotFound(StringPrintf("slot %u out of range", slot));
  }
  size_t dir_off = kPageHeaderSize + static_cast<size_t>(slot) * kSlotEntrySize;
  if (dir_off + kSlotEntrySize > kPageSize) {
    return Status::Corruption("slot directory past page end");
  }
  uint16_t off = ReadU16(dir_off);
  uint16_t len = ReadU16(dir_off + 2);
  if (off + len > kPageSize) {
    return Status::Corruption("slot points past page end");
  }
  return std::string_view(data_ + off, len);
}

}  // namespace staccato::rdbms
