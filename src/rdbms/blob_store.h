// Append-only blob store: the OID-addressed large-object storage the
// FullSFA and StaccatoGraph columns point into (the paper stores serialized
// transducers as Postgres large objects).
//
// Concurrency contract: Get/GetCached are safe to call from any
// number of threads at once — reads use positioned I/O (pread) on the
// underlying descriptor, so they share no file-position state and proceed
// fully in parallel. This is the storage half of the executor's parallel
// Fetch stage. Put and Flush (and the truncate/reopen of a BaseEpoch
// that StaccatoDb::Load performs) require external exclusion: no
// concurrent Gets while the store is being written.
//
// Cache-aware reads: hand Create/Open the shared BufferCache and read
// through GetCached, keyed on (representation, doc, blob_generation) via
// BlobCacheKey. A hit pins the cached bytes (no pread); a miss reads from
// disk and installs the blob under the key.
// The executor passes PlanContext::blob_generation, which only Load bumps
// (Append, Checkpoint and BuildInvertedIndex leave every document's blob
// bytes as they were), so Load's invalidation falls out of that bump:
// stale entries are simply never matched again.
#pragma once

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>

#include "cache/buffer_cache.h"
#include "util/mutex.h"
#include "util/result.h"

namespace staccato::rdbms {

using BlobId = uint64_t;

/// \brief Read accounting, counted identically by every read path: Get
/// and GetCached both count one `reads`; `bytes_read` counts
/// physical disk bytes only (a cache hit serves no physical bytes and
/// counts under `cache_hits` instead). The store keeps lifetime totals
/// (io_stats()); a caller that wants one query's share passes its own
/// tally to each read, which the store bumps beside its totals.
struct BlobIoStats {
  uint64_t reads = 0;         ///< blob reads served (any path)
  uint64_t bytes_read = 0;    ///< physical bytes read from disk
  uint64_t cache_hits = 0;    ///< GetCached served from the buffer cache
  uint64_t cache_misses = 0;  ///< GetCached that had to touch disk
};

/// Blob-cache key namespaces: one per stored representation. Table page
/// namespaces are per-instance counters starting at 1, so these can never
/// collide with them.
inline constexpr uint64_t kCacheSpaceFullSfaBlob = ~uint64_t{0} - 1;
inline constexpr uint64_t kCacheSpaceStaccatoBlob = ~uint64_t{0} - 2;

/// The executor's blob-cache key: (representation, doc, blob generation).
inline cache::CacheKey BlobCacheKey(bool full_sfa, uint64_t doc,
                                    uint64_t blob_generation) {
  return cache::CacheKey{
      full_sfa ? kCacheSpaceFullSfaBlob : kCacheSpaceStaccatoBlob, doc,
      blob_generation};
}

/// \brief File-backed append-only blob store.
class BlobStore {
 public:
  static Result<std::unique_ptr<BlobStore>> Create(
      const std::string& path, cache::BufferCache* cache = nullptr);
  static Result<std::unique_ptr<BlobStore>> Open(
      const std::string& path, cache::BufferCache* cache = nullptr);

  ~BlobStore();
  BlobStore(const BlobStore&) = delete;
  BlobStore& operator=(const BlobStore&) = delete;

  /// Appends a blob; the returned id is its file offset. External-exclusive
  /// (load path only).
  Result<BlobId> Put(const std::string& data);

  /// Reads a blob back. Concurrent-safe: buffered writes are flushed once
  /// (under a mutex), then the payload is read with pread, which takes no
  /// lock and shares no seek position. Every read flavour bumps `tally`,
  /// when given, by exactly what it adds to io_stats(); concurrent callers
  /// pass distinct tallies.
  Result<std::string> Get(BlobId id, BlobIoStats* tally = nullptr);

  /// Cache-aware read of blob `id`: consults the attached buffer cache
  /// under `key`; on a miss, reads the blob from disk and installs it. A
  /// hit serves the pinned bytes with no pread at all. The returned handle
  /// pins the bytes (zero-copy view) until released. Without an attached
  /// cache this degrades to a plain disk read on a detached handle, so
  /// callers need not branch. Same concurrency contract as Get.
  Result<cache::BufferCache::Handle> GetCached(const cache::CacheKey& key,
                                               BlobId id,
                                               BlobIoStats* tally = nullptr);

  /// Pushes buffered writes to disk. Call before another handle truncates
  /// or reopens the same file. The dirty flag is cleared only when the
  /// flush actually succeeds, so a failed flush is retried (and surfaced)
  /// by the next Get instead of silently reading stale bytes.
  Status Flush();

  /// Flush + fsync: the durability barrier Checkpoint uses before
  /// committing a new epoch's blob file.
  Status Sync();

  uint64_t FileBytes() const { return end_; }

  /// Lifetime read totals over every caller (see BlobIoStats). The
  /// planner's warm-cache Fetch pricing reads the hit rate from here: the
  /// shared BufferCache's own stats mix in heap-page traffic, which says
  /// nothing about how warm the blobs are.
  BlobIoStats io_stats() const {
    BlobIoStats s;
    s.reads = reads_.load(std::memory_order_relaxed);
    s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
    s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
    s.cache_misses = cache_misses_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  BlobStore(std::string path, cache::BufferCache* cache)
      : path_(std::move(path)), cache_(cache) {}

  std::string path_;
  FILE* file_ = nullptr;
  int fd_ = -1;        ///< fileno(file_), used by the pread read path
  uint64_t end_ = 0;   ///< mutated only under the external-exclusive contract
  std::atomic<bool> dirty_{false};  ///< writes buffered since the last flush
  /// Serializes the flush-before-read (the buffered FILE* state during
  /// fflush); dirty_ is double-checked under it. No named field is
  /// guarded: the steady read path is atomics + pread by design.
  util::Mutex flush_mu_;
  cache::BufferCache* const cache_;  ///< borrowed; may be null
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
};

}  // namespace staccato::rdbms
