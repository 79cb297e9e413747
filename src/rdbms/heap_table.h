// Disk-backed heap tables of slotted pages: the filescan substrate of every
// non-indexed query in the paper.
//
// A heap table is append-only: Insert is its only writer, and it always
// writes the last page. So the table keeps only that unsealed tail page in
// memory. Every earlier page is sealed: Insert wrote it to the file when
// the tail moved past it, and it never changes again. Readers get a sealed
// page pinned from the shared BufferCache when one is attached (a page
// enters the cache only when it is read, keyed on this table instance's
// namespace), and otherwise read it from the file with util::CheckedPRead.
//
// Concurrency contract: the table latch guards the tail page. Insert, Flush
// and Sync take it. Get and the scans read sealed pages without it and
// take it only to read the tail; scan callbacks run outside it, so they
// may re-enter the table. NumPages, NumTuples and FileBytes read atomics.
// A reader sees every row inserted before it started. Compound operations
// that replace table handles wholesale (StaccatoDb::Load /
// BuildInvertedIndex) require external exclusion: no concurrent queries
// while they run.
#pragma once

#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "cache/buffer_cache.h"
#include "rdbms/page.h"
#include "rdbms/value.h"
#include "util/mutex.h"
#include "util/result.h"

namespace staccato::rdbms {

/// \brief A heap file of tuples under a fixed schema.
class HeapTable {
 public:
  /// Creates (truncates) a heap file. Sealed pages are read through
  /// `cache` when it is not null.
  static Result<std::unique_ptr<HeapTable>> Create(
      const std::string& path, Schema schema,
      cache::BufferCache* cache = nullptr);
  /// Opens an existing heap file; its last page becomes the tail.
  static Result<std::unique_ptr<HeapTable>> Open(
      const std::string& path, Schema schema,
      cache::BufferCache* cache = nullptr);

  ~HeapTable();
  HeapTable(const HeapTable&) = delete;
  HeapTable& operator=(const HeapTable&) = delete;

  const Schema& schema() const { return schema_; }

  /// Appends a tuple to the tail page. When it does not fit, the tail is
  /// sealed first: written and flushed to the file, then readable by
  /// readers that take no latch.
  Result<RecordId> Insert(const Tuple& tuple);

  Result<Tuple> Get(RecordId rid) const;

  /// Filescan in storage order over the stored record bytes, which the
  /// callback may read only while it runs. The callback returns false to
  /// stop; a later scan from the refused record's id resumes there. The
  /// scan ends with the tail page as it stood when the scan reached it.
  /// Readers that know a table's row layout (kmap_row.h) decode rows in
  /// place instead of building Tuples.
  Status ScanRecords(
      const std::function<bool(RecordId, std::string_view)>& fn,
      RecordId from = {}) const;

  /// Filescan in storage order, decoding each record into a Tuple; a
  /// record that does not decode fails the scan. The callback returns
  /// false to stop; `from` resumes as for ScanRecords.
  Status Scan(const std::function<bool(RecordId, const Tuple&)>& fn,
              RecordId from = {}) const;

  /// Writes the tail page to the file and flushes the stdio buffer. A
  /// failed write leaves the tail dirty, so the next Flush retries it.
  Status Flush();

  /// Flush + fsync: the durability barrier Checkpoint uses before
  /// committing a new epoch's tables.
  Status Sync();

  size_t NumPages() const {
    return num_pages_.load(std::memory_order_acquire);
  }
  uint64_t NumTuples() const {
    return num_tuples_.load(std::memory_order_acquire);
  }
  uint64_t FileBytes() const {
    return static_cast<uint64_t>(NumPages()) * kPageSize;
  }

  /// This table instance's cache-key namespace: unique per HeapTable
  /// object, so a truncate-and-replace (StaccatoDb::Load) can never serve
  /// pages cached by the previous instance.
  uint64_t cache_space() const { return cache_space_; }

 private:
  HeapTable(std::string path, Schema schema, cache::BufferCache* cache)
      : path_(std::move(path)), schema_(std::move(schema)), cache_(cache),
        cache_space_(NextCacheSpace()) {}

  /// Process-wide monotone counter (starting at 1) handing every table
  /// instance a distinct cache-key namespace.
  static uint64_t NextCacheSpace();

  /// One page's bytes as a reader holds them: `data` points into the
  /// cache entry `pin` holds, or into `buf` (a file read, or the tail
  /// copied under the latch).
  struct PageRef {
    cache::BufferCache::Handle pin;
    const char* data = nullptr;
    char buf[kPageSize] = {};
  };
  /// Which page ReadPage found.
  enum class PageKind { kNone, kSealed, kTail };

  /// Reads page `page_no` into `ref`: a sealed page without the latch,
  /// from the cache or the file, or a copy of the tail. kNone past the
  /// last page.
  Result<PageKind> ReadPage(uint32_t page_no, PageRef* ref) const;
  Status FlushLocked() REQUIRES(latch_);

  std::string path_;
  Schema schema_;
  cache::BufferCache* const cache_;  ///< borrowed; may be null
  const uint64_t cache_space_;       ///< per-instance key namespace
  /// Set once by Create/Open before the table is shared; closed by the
  /// destructor. Writes go through `file_` under the latch; sealed-page
  /// reads pread `fd_` without it.
  FILE* file_ = nullptr;
  int fd_ = -1;
  /// Pages [0, sealed_pages_) are in the file and never change. The tail,
  /// when the table has pages, is page sealed_pages_ == num_pages_ - 1.
  std::atomic<uint32_t> sealed_pages_{0};
  std::atomic<size_t> num_pages_{0};
  std::atomic<uint64_t> num_tuples_{0};
  SlottedPage tail_ GUARDED_BY(latch_);
  bool tail_dirty_ GUARDED_BY(latch_) = false;  ///< not yet in the file
  /// Table latch: guards the tail page (see file comment).
  mutable util::Mutex latch_;
};

}  // namespace staccato::rdbms
