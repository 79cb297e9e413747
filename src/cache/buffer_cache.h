// BufferCache: the engine's one shared, memory-budgeted block cache.
//
// A sharded LRU cache over immutable byte blocks, sitting between the
// on-disk storage (HeapTable pages, BlobStore transducer blobs) and the
// execution layer. The design is the classic storage-engine shard cache
// (LevelDB/RocksDB lineage):
//
//   * Sharding. Keys hash to one of N shards (power of two), each with
//     its own mutex, hash table, and intrusive LRU list, so concurrent
//     Fetch workers contend only when they land on the same shard.
//   * Strict budget. Every resident entry is charged its value bytes
//     plus a fixed bookkeeping overhead against its shard's slice of the
//     budget (budget_bytes / shards, so the total can never exceed the
//     budget). Inserting evicts cold entries until the charge fits; if
//     it still does not fit — every resident entry is pinned — the
//     insert is refused and the bytes are handed back on a *detached*
//     handle instead, so callers always get their data and the budget is
//     never exceeded.
//   * Pinnable handles. Lookup/Insert return a Handle that pins the
//     entry: pinned entries leave the LRU list and cannot be evicted
//     (their bytes stay valid for exactly as long as the handle lives),
//     which is what lets executor workers borrow cached blob bytes
//     zero-copy during a DP. Releasing the last pin re-appends the entry
//     to the hot end of its shard's LRU list.
//   * Scan resistance (segmented LRU). Each shard keeps two LRU
//     segments: new entries enter a probation segment, and only an entry
//     that is re-referenced while resident is promoted to the protected
//     segment (capped at half the shard budget; overflow demotes back to
//     probation). Eviction drains probation first, so a sequential scan
//     larger than the budget — every block inserted once, never touched
//     again — churns probation and leaves the re-referenced working set
//     (hot SFA blobs during a shard scan) resident.
//   * Invalidation by key, not by flush. Keys carry a version word (the
//     database's load generation for blobs, a per-table-instance id for
//     pages), so data replacement invalidates by construction: the new
//     keys simply never match the old entries, which age out via LRU.
//     Clear() exists for explicit cold-start (StaccatoDb::DropCaches).
//
// Concurrency: every public operation is safe from any thread. Handle
// objects themselves are not synchronized (one handle, one thread) and
// must not outlive the cache.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace staccato::cache {

/// \brief Fixed-width cache key: an entry namespace (`space`, e.g. a table
/// instance or blob representation), an id within it (page number, doc),
/// and a version word that makes stale data unreachable (load generation).
struct CacheKey {
  uint64_t space = 0;
  uint64_t id = 0;
  uint64_t version = 0;

  bool operator==(const CacheKey& o) const {
    return space == o.space && id == o.id && version == o.version;
  }
};

struct CacheKeyHash {
  size_t operator()(const CacheKey& k) const;
};

/// Spaces at the very top of the 64-bit range are reserved for
/// process-wide blob representations (rdbms/blob_store.h assigns them
/// downward from ~0 - 1); per-table page namespaces count upward from 1
/// and can never reach them. Telemetry uses the split to attribute
/// resident cache bytes per class without this layer knowing about the
/// rdbms layer.
inline constexpr uint64_t kReservedSpaceBase = ~uint64_t{0} - 15;

/// \brief Sizing knob for the database-owned cache. `budget_bytes == 0`
/// disables caching entirely (the database then reads storage directly,
/// with bit-identical answers). `shards == 0` picks the default shard
/// count; any other value is rounded up to a power of two.
struct CacheConfig {
  static constexpr size_t kDefaultBudgetBytes = 64ull << 20;  // 64 MiB

  size_t budget_bytes = kDefaultBudgetBytes;
  size_t shards = 0;

  /// The default configuration, honoring the STACCATO_CACHE_MB
  /// environment variable when it parses as a nonnegative integer
  /// (megabytes; 0 disables the cache).
  static CacheConfig Default();
};

/// \brief Aggregate counters, cheap enough to snapshot per query.
/// hits/misses/... are lifetime totals; bytes_in_use / entries /
/// pinned_entries are the current residency.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  uint64_t rejected = 0;  ///< inserts refused: pinned entries held the budget
  uint64_t bytes_in_use = 0;
  uint64_t entries = 0;
  uint64_t pinned_entries = 0;
};

/// \brief The sharded memory-budgeted LRU block cache.
class BufferCache {
 public:
  /// Per-entry bookkeeping charged against the budget on top of the value
  /// bytes (Entry struct + hash-table node, rounded up).
  static constexpr size_t kEntryOverhead = 128;

  class Handle;

  /// `shards == 0` picks kDefaultShards; counts round up to a power of
  /// two. Each shard owns budget_bytes / shards.
  explicit BufferCache(size_t budget_bytes, size_t shards = 0);
  ~BufferCache();
  BufferCache(const BufferCache&) = delete;
  BufferCache& operator=(const BufferCache&) = delete;

  /// Returns a pinned handle to the entry under `key`, or an empty handle
  /// on miss. A hit moves the entry off its shard's LRU list until the
  /// last handle releases it.
  Handle Lookup(const CacheKey& key);

  /// Inserts `value` under `key` (replacing any existing entry) and
  /// returns a pinned handle to it. Evicts cold entries to make room; if
  /// the charge cannot fit even then (the shard is full of pinned
  /// entries, or the value alone exceeds the shard budget), the entry is
  /// NOT cached and the returned handle owns the bytes detached — the
  /// caller's read always succeeds, the budget is never exceeded.
  Handle Insert(const CacheKey& key, std::string value);

  /// Drops every entry whose key.space matches (e.g. all pages of one
  /// table instance). Pinned entries are detached from the cache
  /// immediately (uncharged) and freed when the last handle releases them.
  void EraseSpace(uint64_t space);

  /// Drops every entry (DropCaches / cold-start). Pinned entries detach
  /// as in EraseSpace.
  void Clear();

  CacheStats stats() const;
  /// Current charged residency alone — O(shards), no table walk; what
  /// per-query stats snapshot instead of the full stats().
  uint64_t bytes_in_use() const;
  size_t budget_bytes() const { return budget_; }
  size_t num_shards() const { return shards_.size(); }

  /// A handle that owns `value` outside any cache — what cacheless read
  /// paths return so callers can treat cached and uncached reads
  /// uniformly.
  static Handle Detached(std::string value);

 private:
  struct Entry;
  struct Shard;

  Shard& ShardFor(const CacheKey& key);
  /// Handle destructor back-end: drop one pin.
  static void Release(Entry* e);

  const size_t budget_;
  size_t shard_mask_ = 0;
  std::vector<Shard*> shards_;  // owned; raw so Shard can stay private
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

/// \brief A pin on one cache entry (or on a detached value). Move-only;
/// the pinned bytes stay valid exactly as long as the handle lives. Not
/// synchronized — one handle belongs to one thread at a time.
class BufferCache::Handle {
 public:
  Handle() = default;
  Handle(Handle&& o) noexcept : entry_(o.entry_) { o.entry_ = nullptr; }
  Handle& operator=(Handle&& o) noexcept {
    if (this != &o) {
      Reset();
      entry_ = o.entry_;
      o.entry_ = nullptr;
    }
    return *this;
  }
  ~Handle() { Reset(); }
  Handle(const Handle&) = delete;
  Handle& operator=(const Handle&) = delete;

  explicit operator bool() const { return entry_ != nullptr; }

  /// The pinned bytes. Valid only while the handle is non-empty.
  const std::string& value() const;

  /// Drops the pin (the handle becomes empty).
  void Reset() {
    if (entry_ != nullptr) {
      BufferCache::Release(entry_);
      entry_ = nullptr;
    }
  }

 private:
  friend class BufferCache;
  explicit Handle(Entry* entry) : entry_(entry) {}

  Entry* entry_ = nullptr;
};

}  // namespace staccato::cache
