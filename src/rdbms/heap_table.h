// Disk-backed heap tables of slotted pages, with a small LRU buffer pool.
// This is the filescan substrate of every non-indexed query in the paper.
//
// Concurrency contract: every public operation takes the table latch, so
// any mix of Get/Scan/Insert calls from concurrent threads is safe — this
// is what lets the executor's Fetch stage fan point Gets out over the
// shared thread pool. Reads serialize briefly on the latch (even Get
// mutates the buffer pool's LRU state, so a shared lock cannot cover it);
// the expensive parts of a parallel fetch — blob I/O and deserialization —
// happen outside any table. A scan (ScanRecords, or Scan over it) holds
// the latch for its whole pass, so the callback must not re-enter the
// same table. Compound operations that replace table handles wholesale
// (StaccatoDb::Load / BuildInvertedIndex) require external exclusion: no
// concurrent queries while they run.
// io_stats() snapshots the table's lifetime counters under the latch; the
// executor counts a query's own page reads from the pages its scans visit.
#pragma once

#include <cstdio>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "cache/buffer_cache.h"
#include "rdbms/page.h"
#include "rdbms/value.h"
#include "util/mutex.h"
#include "util/result.h"

namespace staccato::rdbms {

/// \brief I/O accounting for the benches: logical and physical page reads.
struct IoStats {
  uint64_t page_reads = 0;      ///< pages fetched (buffer pool hits included)
  uint64_t page_misses = 0;     ///< pages read from disk
  uint64_t pages_written = 0;
  uint64_t bytes_read = 0;      ///< physical bytes read from disk
  /// Pool misses served by the shared buffer cache instead of disk (only
  /// nonzero when a shared cache is attached; see SetSharedCache).
  uint64_t cache_hits = 0;
};

/// \brief A heap file of tuples under a fixed schema.
class HeapTable {
 public:
  /// Creates (truncates) a heap file.
  static Result<std::unique_ptr<HeapTable>> Create(const std::string& path,
                                                   Schema schema,
                                                   size_t pool_pages = 64);
  /// Opens an existing heap file.
  static Result<std::unique_ptr<HeapTable>> Open(const std::string& path,
                                                 Schema schema,
                                                 size_t pool_pages = 64);

  ~HeapTable();
  HeapTable(const HeapTable&) = delete;
  HeapTable& operator=(const HeapTable&) = delete;

  const Schema& schema() const { return schema_; }

  Result<RecordId> Insert(const Tuple& tuple);

  Result<Tuple> Get(RecordId rid);

  /// Full filescan in storage order over the stored record bytes, which
  /// the callback may read only while it runs. The callback returns false
  /// to stop; a later scan from the refused record's id resumes there.
  /// Readers that know a table's row layout (kmap_row.h) decode rows in
  /// place instead of building Tuples.
  Status ScanRecords(
      const std::function<bool(RecordId, std::string_view)>& fn,
      RecordId from = {});

  /// Full filescan in storage order, decoding each record into a Tuple; a
  /// record that does not decode fails the scan. The callback returns
  /// false to stop; `from` resumes as for ScanRecords.
  Status Scan(const std::function<bool(RecordId, const Tuple&)>& fn,
              RecordId from = {});

  /// Flushes dirty pages to disk.
  Status Flush();

  /// Flush + fsync: the durability barrier Checkpoint uses before
  /// committing a new epoch's tables.
  Status Sync();

  size_t NumPages() const {
    util::MutexLock lock(&latch_);
    return num_pages_;
  }
  uint64_t NumTuples() const {
    util::MutexLock lock(&latch_);
    return num_tuples_;
  }
  uint64_t FileBytes() const {
    util::MutexLock lock(&latch_);
    return static_cast<uint64_t>(num_pages_) * kPageSize;
  }

  /// Snapshot of the lifetime I/O counters, taken under the table latch.
  IoStats io_stats() const {
    util::MutexLock lock(&latch_);
    return io_;
  }

  /// Drops all cached pages (simulates a cold cache for benchmarks),
  /// including this table's pages in the shared buffer cache. Dirty pages
  /// are written back first; a failed write-back is returned, not
  /// swallowed — dropping the frame anyway would serve stale bytes from
  /// disk on the next read.
  Status EvictAll();

  /// Attaches the process-shared buffer cache as a second tier behind the
  /// table's own small pool: a pool miss consults the cache (keyed on this
  /// table instance's id + page number) before going to disk, and every
  /// page write is written through to the cache, so re-reads of evicted
  /// pages skip disk while honoring the cache's memory budget. Null
  /// detaches. Not synchronized against concurrent operations: wire it at
  /// open/load time.
  void SetSharedCache(cache::BufferCache* cache);

  /// This table instance's cache-key namespace: unique per HeapTable
  /// object, so a truncate-and-replace (StaccatoDb::Load) can never serve
  /// pages cached by the previous instance.
  uint64_t cache_space() const { return cache_space_; }

 private:
  HeapTable(std::string path, Schema schema, size_t pool_pages)
      : path_(std::move(path)), schema_(std::move(schema)),
        pool_cap_(pool_pages), cache_space_(NextCacheSpace()) {}

  /// Process-wide monotone counter (starting at 1) handing every table
  /// instance a distinct cache-key namespace.
  static uint64_t NextCacheSpace();

  struct Frame {
    SlottedPage page;
    bool dirty = false;
    std::list<uint32_t>::iterator lru_it;
  };

  Result<Frame*> FetchPage(uint32_t page_no) REQUIRES(latch_);
  Status WritePage(uint32_t page_no, const SlottedPage& page)
      REQUIRES(latch_);
  Status EvictOne() REQUIRES(latch_);
  Status FlushLocked() REQUIRES(latch_);

  std::string path_;
  Schema schema_;
  size_t pool_cap_;
  cache::BufferCache* shared_cache_ GUARDED_BY(latch_) = nullptr;
  const uint64_t cache_space_;  ///< per-instance key namespace
  /// Set once by Create/Open before the table is shared; closed by the
  /// destructor. The latch covers every seek/read/write in between.
  FILE* file_ = nullptr;
  size_t num_pages_ GUARDED_BY(latch_) = 0;
  uint64_t num_tuples_ GUARDED_BY(latch_) = 0;
  std::unordered_map<uint32_t, Frame> pool_ GUARDED_BY(latch_);
  std::list<uint32_t> lru_ GUARDED_BY(latch_);  // front = most recent
  IoStats io_ GUARDED_BY(latch_);
  /// Table latch: serializes every public operation (see file comment).
  mutable util::Mutex latch_;
};

}  // namespace staccato::rdbms
