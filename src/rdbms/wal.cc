#include "rdbms/wal.h"

#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "util/crc32.h"
#include "util/fault_fs.h"
#include "util/serde.h"

namespace staccato {
namespace rdbms {

namespace {

void PutFixed32(char* dst, uint32_t v) {
  dst[0] = static_cast<char>(v & 0xFF);
  dst[1] = static_cast<char>((v >> 8) & 0xFF);
  dst[2] = static_cast<char>((v >> 16) & 0xFF);
  dst[3] = static_cast<char>((v >> 24) & 0xFF);
}

uint32_t GetFixed32(const char* p) {
  return static_cast<uint32_t>(static_cast<uint8_t>(p[0])) |
         static_cast<uint32_t>(static_cast<uint8_t>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[3])) << 24;
}

/// Points `*payload` at the payload of the frame starting at `pos`; false
/// when no intact frame starts there.
bool FrameAt(std::string_view data, size_t pos, std::string_view* payload) {
  const size_t remaining = data.size() - pos;
  if (remaining < kWalFrameHeaderSize) return false;
  const char* frame = data.data() + pos;
  const uint32_t len = GetFixed32(frame + 4);
  if (len > remaining - kWalFrameHeaderSize ||
      util::Crc32(frame + 4, 4 + size_t{len}) != GetFixed32(frame)) {
    return false;
  }
  *payload = std::string_view(frame + kWalFrameHeaderSize, len);
  return true;
}

/// True if `data` starts with a fragment of the retired block-framed log
/// that opens a record: crc32[4] + length[2] + type[1], type FULL (1) or
/// FIRST (2), whose CRC over the type byte and the payload verifies.
bool StartsWithRetiredFragment(std::string_view data) {
  constexpr size_t kHeader = 7;
  if (data.size() < kHeader) return false;
  const uint8_t type = static_cast<uint8_t>(data[6]);
  const size_t len = static_cast<uint8_t>(data[4]) |
                     static_cast<size_t>(static_cast<uint8_t>(data[5])) << 8;
  if ((type != 1 && type != 2) || data.size() - kHeader < len) return false;
  return util::Crc32(data.data() + 6, 1 + len) == GetFixed32(data.data());
}

}  // namespace

WalSyncPolicy WalSyncPolicyFromEnv() {
  if (const char* env = std::getenv("STACCATO_WAL_SYNC")) {
    if (std::strcmp(env, "never") == 0) return WalSyncPolicy::kNever;
  }
  return WalSyncPolicy::kCommit;
}

std::string WalPath(const std::string& dir) { return dir + "/wal.log"; }

// ---- WalWriter --------------------------------------------------------------

WalWriter::WalWriter(FILE* file, std::string path, uint64_t offset,
                     WalSyncPolicy policy)
    : file_(file), path_(std::move(path)), offset_(offset), policy_(policy) {}

WalWriter::~WalWriter() {
  if (file_ != nullptr) fclose(file_);
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& path,
                                                   uint64_t resume_offset,
                                                   WalSyncPolicy policy) {
  FILE* file = fopen(path.c_str(), "rb+");
  if (file == nullptr) file = fopen(path.c_str(), "wb+");
  if (file == nullptr) {
    return Status::IOError("cannot open WAL " + path + ": " +
                           std::strerror(errno));
  }
  // Drop any torn tail recovery identified before the first new append
  // lands, so fresh frames never sit behind garbage.
  if (ftruncate(fileno(file), static_cast<off_t>(resume_offset)) != 0) {
    fclose(file);
    return Status::IOError("cannot truncate WAL " + path + ": " +
                           std::strerror(errno));
  }
  if (fseek(file, static_cast<long>(resume_offset), SEEK_SET) != 0) {
    fclose(file);
    return Status::IOError("cannot seek WAL " + path);
  }
  return std::unique_ptr<WalWriter>(
      new WalWriter(file, path, resume_offset, policy));
}

Status WalWriter::Append(std::string_view payload) {
  STACCATO_RETURN_NOT_OK(sticky_error_);
  if (payload.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("WAL payload longer than 2^32 - 1 bytes");
  }
  // One buffer, one write: a failed write has a single boundary to roll
  // back to.
  std::string frame(kWalFrameHeaderSize, '\0');
  PutFixed32(&frame[4], static_cast<uint32_t>(payload.size()));
  frame.append(payload);
  PutFixed32(&frame[0], util::Crc32(frame.data() + 4, frame.size() - 4));

  Status st = util::CheckedWrite(file_, frame.data(), frame.size(), path_);
  if (st.ok()) {
    st = policy_ == WalSyncPolicy::kCommit ? util::CheckedSync(file_, path_)
                                           : util::CheckedFlush(file_, path_);
  }
  if (!st.ok()) {
    // Roll back to the previous frame's end, so a frame whose Append
    // failed is never replayed. Push the stdio buffer out first: bytes
    // still buffered would otherwise land after the truncate.
    if (fflush(file_) != 0 ||
        ftruncate(fileno(file_), static_cast<off_t>(offset_)) != 0 ||
        fseek(file_, static_cast<long>(offset_), SEEK_SET) != 0) {
      sticky_error_ = Status::IOError(
          "WAL left torn after failed append to " + path_);
      return sticky_error_;
    }
    return st;
  }
  offset_ += frame.size();
  return Status::OK();
}

Status WalWriter::Reset() {
  STACCATO_RETURN_NOT_OK(sticky_error_);
  // Drain the stdio buffer before truncating: bytes still buffered here
  // would otherwise be flushed after the truncate and resurrect a stale
  // tail past offset zero.
  STACCATO_RETURN_NOT_OK(util::CheckedFlush(file_, path_));
  if (ftruncate(fileno(file_), 0) != 0 || fseek(file_, 0, SEEK_SET) != 0) {
    return Status::IOError("cannot reset WAL " + path_);
  }
  offset_ = 0;
  return util::CheckedSync(file_, path_);
}

// ---- WalReader --------------------------------------------------------------

Result<std::unique_ptr<WalReader>> WalReader::Open(const std::string& path) {
  STACCATO_ASSIGN_OR_RETURN(std::string data, util::ReadFile(path));
  std::string_view first;
  if (!FrameAt(data, 0, &first) && StartsWithRetiredFragment(data)) {
    return Status::Corruption(
        path + " is a write-ahead log in the retired block-framed format; "
        "reload the database from its source documents");
  }
  return std::unique_ptr<WalReader>(new WalReader(std::move(data)));
}

bool WalReader::ReadRecord(std::string_view* out) {
  if (pos_ == data_.size()) return false;
  if (!FrameAt(data_, pos_, out)) {
    torn_tail_ = true;
    return false;
  }
  pos_ += kWalFrameHeaderSize + out->size();
  return true;
}

// ---- Logical records --------------------------------------------------------

std::string EncodeWalDoc(const WalDocRecord& rec) {
  BinaryWriter w;
  w.PutU8(kWalDocTag);
  w.PutVarint(rec.seq);
  w.PutString(rec.doc_name);
  w.PutI64(rec.year);
  w.PutString(rec.truth);
  w.PutVarint(rec.kmap_k);
  w.PutVarint(rec.staccato_m);
  w.PutVarint(rec.staccato_k);
  w.PutString(rec.full_sfa);
  return w.Release();
}

Result<WalDocRecord> DecodeWalDoc(std::string_view bytes) {
  BinaryReader r(bytes.data(), bytes.size());
  STACCATO_ASSIGN_OR_RETURN(uint8_t tag, r.GetU8());
  if (tag != kWalDocTag) {
    return Status::Corruption("WAL record is not a doc record");
  }
  WalDocRecord rec;
  STACCATO_ASSIGN_OR_RETURN(rec.seq, r.GetVarint());
  STACCATO_ASSIGN_OR_RETURN(rec.doc_name, r.GetString());
  STACCATO_ASSIGN_OR_RETURN(rec.year, r.GetI64());
  STACCATO_ASSIGN_OR_RETURN(rec.truth, r.GetString());
  STACCATO_ASSIGN_OR_RETURN(rec.kmap_k, r.GetVarint());
  STACCATO_ASSIGN_OR_RETURN(rec.staccato_m, r.GetVarint());
  STACCATO_ASSIGN_OR_RETURN(rec.staccato_k, r.GetVarint());
  STACCATO_ASSIGN_OR_RETURN(rec.full_sfa, r.GetString());
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes after WAL doc record");
  }
  return rec;
}

}  // namespace rdbms
}  // namespace staccato
