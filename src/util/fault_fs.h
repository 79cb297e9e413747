// Deterministic fault injection for the file operations the storage layer
// depends on (WAL appends, heap-page write-back, blob flushes, and heap-page
// and blob reads).
//
// Production code calls CheckedWrite/CheckedFlush/CheckedSync/SyncDir/
// CheckedPRead instead of bare fwrite/fflush/fsync/pread. Each wrapper
// consults the process-global FaultInjector first: tests Install() rules
// that make the Nth matching operation fail (optionally as a *short* write
// that really leaves torn bytes on disk), then assert the failure surfaces
// as a Status instead of being swallowed. With no rules armed the wrappers
// are a single relaxed atomic load away from the bare calls.
//
// Small whole files (the meta pointers, the WAL at recovery) are written
// through WriteFileAtomic, which is built on those wrappers, and read
// through ReadFile, a plain read.
#pragma once

#include <atomic>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.h"
#include "util/result.h"
#include "util/status.h"

namespace staccato {
namespace util {

enum class FaultOp : uint8_t {
  kWrite = 0,  ///< fwrite via CheckedWrite
  kFlush = 1,  ///< fflush via CheckedFlush
  kSync = 2,   ///< fsync via CheckedSync
  kRead = 3,   ///< pread via CheckedPRead (heap-page and blob reads)
  kDirSync = 4,  ///< fsync of a directory via SyncDir
};

/// \brief One injected failure: the `countdown`-th matching operation on a
/// path containing `path_substr` fails. `short_bytes` > 0 turns a kWrite
/// fault into a short write that actually persists that many prefix bytes
/// (a torn write, not a clean no-op). `sticky` keeps the rule armed so
/// every later match fails too (a dead disk rather than a glitch).
/// `probability` > 0 switches the rule to soak mode: every matching
/// operation fails independently with that probability (deterministic
/// seeded RNG; `countdown` is ignored and the rule stays installed until
/// Clear, like a flaky disk rather than a scripted glitch).
struct FaultRule {
  FaultOp op = FaultOp::kWrite;
  std::string path_substr;
  int countdown = 0;
  size_t short_bytes = 0;
  bool sticky = false;
  double probability = 0.0;
};

/// \brief Process-global registry of fault rules. Thread-safe; the armed
/// flag keeps the no-faults fast path lock-free.
class FaultInjector {
 public:
  static FaultInjector* Global();

  void Install(FaultRule rule);
  void Clear();

  /// Reseeds the RNG behind probabilistic rules, so a soak run is
  /// reproducible from its seed. Clear() does not reset the seed.
  void Seed(uint64_t seed);

  /// True if `op` on `path` should fail now. For short writes,
  /// `*short_bytes` receives how many bytes to persist before failing.
  bool ShouldFail(FaultOp op, const std::string& path, size_t* short_bytes);

 private:
  util::Mutex mu_;
  std::vector<FaultRule> rules_ GUARDED_BY(mu_);
  uint64_t rng_state_ GUARDED_BY(mu_) = 0x9e3779b97f4a7c15ull;
  std::atomic<bool> armed_{false};
};

/// \brief fwrite(data, 1, n, file) with fault injection; flushes before a
/// short-write fault so the torn prefix really reaches the file.
Status CheckedWrite(FILE* file, const void* data, size_t n,
                    const std::string& path);

/// \brief fflush(file) with fault injection.
Status CheckedFlush(FILE* file, const std::string& path);

/// \brief fflush + fsync(fileno(file)) with fault injection.
Status CheckedSync(FILE* file, const std::string& path);

/// \brief fsync of directory `dir` with fault injection (FaultOp::kDirSync,
/// matched against `dir`). A rename is durable only once its parent
/// directory is synced: call this after every atomic tmp-file rename that
/// later steps (a WAL truncate) rely on having persisted.
Status SyncDir(const std::string& dir);

/// \brief Replaces `path` (a file in directory `dir`) with `bytes`
/// atomically and durably: writes `path`.tmp, syncs it, renames it over
/// `path`, then syncs `dir` so the rename itself survives power loss.
/// Readers see the old contents or the new ones, never a torn write; on
/// failure the tmp file is removed.
Status WriteFileAtomic(const std::string& dir, const std::string& path,
                       std::string_view bytes);

/// \brief The whole contents of `path`. NotFound only when the file does
/// not exist (ENOENT); IOError for any other open or read failure.
Result<std::string> ReadFile(const std::string& path);

/// \brief pread(fd, buf, n, offset) that retries EINTR and short reads and
/// fails unless all `n` bytes arrive, with fault injection (FaultOp::kRead)
/// consulted first. The concurrent-safe positioned read every storage read
/// path uses — HeapTable's sealed pages and BlobStore's blobs — so a kRead
/// rule can hit blob and heap fetches alike (lint rule 11 keeps it so).
Status CheckedPRead(int fd, void* buf, size_t n, uint64_t offset,
                    const std::string& path);

}  // namespace util
}  // namespace staccato
