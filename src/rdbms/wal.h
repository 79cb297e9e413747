// Crash-safe write-ahead log for incremental ingest.
//
// The log is a sequence of frames, one per appended document:
//
//     +----------+----------+---------------------+
//     | crc32 4B | len 4B   | payload (len bytes) |
//     +----------+----------+---------------------+
//
// Both integers are little-endian, and the CRC covers the length field
// plus the payload, so every frame checks itself. The reader stops at the
// first frame that does not verify (bad CRC, or a length running past the
// end of the file); the frames before it are the committed prefix, and
// the writer resumes at its end, truncating the rest.
//
// A frame is the whole commit. StaccatoDb::Append derives a document
// before it logs it and publishes it only after WalWriter::Append
// returns; a failed write, flush or sync truncates the file back to the
// previous frame's end. So the log replays exactly the documents the live
// database served.
//
// A log in the retired block-framed format (LevelDB-style 32 KiB blocks
// of fragments, plus a commit record per document) is refused with a
// Corruption that says to reload, and left untouched: read as frames it
// would look torn at offset 0, and resuming there would truncate every
// append it holds.
//
// This header and wal.cc are the only code allowed to touch the on-disk
// log format (scripts/lint.sh rule 7).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "util/result.h"
#include "util/status.h"

namespace staccato {
namespace rdbms {

/// Bytes in front of every frame's payload: crc32[4] + length[4].
constexpr size_t kWalFrameHeaderSize = 8;

/// \brief When the WAL reaches durable storage.
enum class WalSyncPolicy : uint8_t {
  kNever = 0,   ///< OS-buffered only; fast, loses the tail on power cut
  kCommit = 1,  ///< fsync on every Append (the default)
};

/// \brief Reads STACCATO_WAL_SYNC ("never" | "commit"); default kCommit.
WalSyncPolicy WalSyncPolicyFromEnv();

/// \brief The log file for a database directory (`<dir>/wal.log`).
std::string WalPath(const std::string& dir);

/// \brief Appends frames to the log. Not thread-safe; the caller
/// (StaccatoDb::Append) serializes access.
class WalWriter {
 public:
  /// Opens (creating if needed) the log and truncates it to
  /// `resume_offset` — the end of the last intact frame as reported by
  /// recovery — so a torn tail never precedes fresh appends.
  static Result<std::unique_ptr<WalWriter>> Open(const std::string& path,
                                                 uint64_t resume_offset,
                                                 WalSyncPolicy policy);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Writes one frame holding `payload`, then flushes it (kNever) or
  /// fsyncs it (kCommit). On a failed write, flush or sync the file is
  /// truncated back to the previous frame's end, so the frame is never
  /// replayed; if even that rollback fails the writer becomes
  /// sticky-errored. A payload longer than 2^32 - 1 bytes is refused with
  /// InvalidArgument before anything is written.
  Status Append(std::string_view payload);

  /// Truncates the log to empty (after a checkpoint folded its contents
  /// into the base segments).
  Status Reset();

  /// End of the last successfully appended frame.
  uint64_t offset() const { return offset_; }

 private:
  WalWriter(FILE* file, std::string path, uint64_t offset,
            WalSyncPolicy policy);

  FILE* file_ = nullptr;
  std::string path_;
  uint64_t offset_ = 0;  // end of the last complete frame
  WalSyncPolicy policy_ = WalSyncPolicy::kCommit;
  Status sticky_error_;
};

/// \brief Sequentially decodes frames, stopping at the first one that does
/// not verify. Everything before the stop point is the committed prefix;
/// `last_record_end()` is where a writer should resume.
class WalReader {
 public:
  /// Reads the whole log. NotFound when there is none; Corruption when it
  /// was written in the retired block-framed format.
  static Result<std::unique_ptr<WalReader>> Open(const std::string& path);

  /// Returns true and points `*out` at the next frame's payload (valid
  /// while the reader lives); false at the end of the intact prefix
  /// (clean or torn — check torn_tail()).
  bool ReadRecord(std::string_view* out);

  /// True if reading stopped at a frame that does not verify rather than
  /// at a clean end of file.
  bool torn_tail() const { return torn_tail_; }

  /// Byte offset just past the last intact frame.
  uint64_t last_record_end() const { return pos_; }

 private:
  explicit WalReader(std::string data) : data_(std::move(data)) {}

  std::string data_;
  size_t pos_ = 0;  // start of the next unread frame
  bool torn_tail_ = false;
};

constexpr uint8_t kWalDocTag = 'D';

/// \brief One appended document, self-contained: recovery re-derives the
/// k-map rows, chunked SFA, and postings from the serialized SFA with the
/// same load parameters the live Append used, guaranteeing replay builds
/// byte-identical delta state.
struct WalDocRecord {
  uint64_t seq = 0;  ///< absolute document id (base + delta position)
  std::string doc_name;
  int64_t year = 0;
  std::string truth;
  uint64_t kmap_k = 0;      ///< LoadOptions::kmap_k at append time
  uint64_t staccato_m = 0;  ///< StaccatoParams::m
  uint64_t staccato_k = 0;  ///< StaccatoParams::k
  std::string full_sfa;     ///< Sfa::Serialize() bytes
};

std::string EncodeWalDoc(const WalDocRecord& rec);
Result<WalDocRecord> DecodeWalDoc(std::string_view bytes);

}  // namespace rdbms
}  // namespace staccato
