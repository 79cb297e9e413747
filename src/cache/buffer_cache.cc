#include "cache/buffer_cache.h"

#include <limits>
#include <unordered_map>

#include "telemetry/metrics_registry.h"
#include "util/mutex.h"
#include "util/strings.h"

namespace staccato::cache {

namespace {

constexpr size_t kDefaultShards = 16;
constexpr size_t kMaxShards = 256;

/// splitmix64 finalizer: a cheap, well-mixed 64-bit hash step.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Process-global cache metrics, shared by every BufferCache instance
/// (per-instance figures stay in stats()). The byte gauges are split by
/// space class so one scrape shows blob bytes and table-page bytes
/// competing for the budget.
struct CacheMetrics {
  telemetry::Counter* hits;
  telemetry::Counter* misses;
  telemetry::Counter* inserts;
  telemetry::Counter* evictions;
  telemetry::Counter* rejected;
  telemetry::Gauge* blob_bytes;
  telemetry::Gauge* page_bytes;
};

const CacheMetrics& Metrics() {
  static const CacheMetrics m = [] {
    auto& r = telemetry::MetricsRegistry::Global();
    CacheMetrics cm;
    cm.hits = r.GetCounter("staccato_cache_hits_total");
    cm.misses = r.GetCounter("staccato_cache_misses_total");
    cm.inserts = r.GetCounter("staccato_cache_inserts_total");
    cm.evictions = r.GetCounter("staccato_cache_evictions_total");
    cm.rejected = r.GetCounter("staccato_cache_rejected_total");
    cm.blob_bytes = r.GetGauge("staccato_cache_bytes{space=\"blob\"}");
    cm.page_bytes = r.GetGauge("staccato_cache_bytes{space=\"page\"}");
    return cm;
  }();
  return m;
}

telemetry::Gauge* BytesGauge(uint64_t space) {
  const CacheMetrics& m = Metrics();
  return space >= kReservedSpaceBase ? m.blob_bytes : m.page_bytes;
}

}  // namespace

size_t CacheKeyHash::operator()(const CacheKey& k) const {
  return static_cast<size_t>(Mix(k.space ^ Mix(k.id ^ Mix(k.version))));
}

CacheConfig CacheConfig::Default() {
  CacheConfig cfg;
  cfg.budget_bytes = static_cast<size_t>(
      EnvUint("STACCATO_CACHE_MB", kDefaultBudgetBytes >> 20,
              std::numeric_limits<size_t>::max() >> 20)
      << 20);
  return cfg;
}

struct BufferCache::Entry {
  CacheKey key;
  std::string value;
  size_t charge = 0;
  uint32_t refs = 0;      ///< outstanding handles, +1 while in the table
  bool in_cache = false;  ///< still reachable through the shard table
  /// Segmented-LRU state: false = probation (inserted, not re-referenced
  /// since), true = protected (hit at least once while resident). For an
  /// on-list entry the flag names its list; for a pinned (off-list)
  /// entry it names the list Release will append it to. Flipped only
  /// while off-list, so list accounting can trust it.
  bool hot = false;
  Shard* shard = nullptr;  ///< null = detached (handle is the sole owner)
  // Intrusive LRU links; non-null prev means "on the list" (evictable).
  Entry* prev = nullptr;
  Entry* next = nullptr;
};

struct BufferCache::Shard {
  util::Mutex mu;
  std::unordered_map<CacheKey, Entry*, CacheKeyHash> table GUARDED_BY(mu);
  /// Segmented LRU (scan resistance): two lists per shard, each a
  /// sentinel with next = coldest, prev = hottest. New entries enter
  /// `probation`; an entry that gets a Lookup hit is promoted to
  /// `shielded` when its last pin drops. Eviction drains probation
  /// first, so a below-budget sequential scan — whose pages are
  /// inserted once and never re-referenced — churns only the probation
  /// segment and cannot flush the re-referenced working set. The
  /// shielded segment is capped at half the shard budget; overflow
  /// demotes its coldest entries back to probation (hot end), where
  /// they outlive the scan's single-touch pages but can eventually age
  /// out. The intrusive prev/next links of every entry in this shard
  /// are guarded by `mu` — Entry has no mutex of its own, so the
  /// REQUIRES(mu) on the list-manipulation helpers below is what
  /// encodes that.
  Entry probation GUARDED_BY(mu);
  Entry shielded GUARDED_BY(mu);
  const size_t capacity;  ///< set once at construction; immutable after
  const size_t shielded_cap;  ///< budget slice of the protected segment
  size_t usage GUARDED_BY(mu) = 0;  ///< Σ charge of in-cache entries
  size_t shielded_usage GUARDED_BY(mu) = 0;  ///< Σ charge on `shielded`
  uint64_t inserts GUARDED_BY(mu) = 0;
  uint64_t evictions GUARDED_BY(mu) = 0;
  uint64_t rejected GUARDED_BY(mu) = 0;

  explicit Shard(size_t cap) : capacity(cap), shielded_cap(cap / 2) {
    probation.prev = &probation;
    probation.next = &probation;
    shielded.prev = &shielded;
    shielded.next = &shielded;
  }

  void ListRemove(Entry* e) REQUIRES(mu) {
    if (e->hot) shielded_usage -= e->charge;
    e->prev->next = e->next;
    e->next->prev = e->prev;
    e->prev = nullptr;
    e->next = nullptr;
  }

  /// Appends at the hot (sentinel.prev) end of the list `e->hot` names,
  /// then demotes shielded overflow back to probation.
  void AppendHot(Entry* e) REQUIRES(mu) {
    Entry* list = e->hot ? &shielded : &probation;
    e->prev = list->prev;
    e->next = list;
    list->prev->next = e;
    list->prev = e;
    if (e->hot) {
      shielded_usage += e->charge;
      while (shielded_usage > shielded_cap && shielded.next != &shielded) {
        Entry* demoted = shielded.next;  // coldest of the protected set
        ListRemove(demoted);
        demoted->hot = false;
        AppendHot(demoted);  // probation hot end
      }
    }
  }

  /// The next eviction victim: probation coldest first, the protected
  /// segment only once probation is empty. Null when both lists are.
  Entry* EvictionVictim() REQUIRES(mu) {
    if (probation.next != &probation) return probation.next;
    if (shielded.next != &shielded) return shielded.next;
    return nullptr;
  }

  /// Removes `e` from the table, its LRU list, and accounting; frees it
  /// unless handles still pin it.
  void FinishErase(Entry* e) REQUIRES(mu) {
    table.erase(e->key);
    if (e->prev != nullptr) ListRemove(e);
    usage -= e->charge;
    BytesGauge(e->key.space)->Add(-static_cast<int64_t>(e->charge));
    e->in_cache = false;
    --e->refs;  // drop the table's reference
    if (e->refs == 0) delete e;
    // else: outstanding handles keep the (now uncharged) bytes alive
    // until the last Release.
  }
};

BufferCache::BufferCache(size_t budget_bytes, size_t shards)
    : budget_(budget_bytes) {
  size_t n = RoundUpPow2(shards == 0 ? kDefaultShards : shards);
  if (n > kMaxShards) n = kMaxShards;
  // Never hand a shard a zero budget while the cache as a whole has one:
  // with fewer shards than budget bytes, collapse the shard count instead.
  while (n > 1 && budget_bytes / n == 0) n >>= 1;
  shard_mask_ = n - 1;
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(new Shard(budget_bytes / n));
  }
}

BufferCache::~BufferCache() {
  // All handles must have been released by now (they pin entries whose
  // shard pointers die with us). Locking each shard is moot at this point
  // but keeps the guarded-field accesses honest.
  for (Shard* sh : shards_) {
    {
      util::MutexLock lock(&sh->mu);
      for (auto& [key, entry] : sh->table) {
        // Deleted without FinishErase, so the global byte gauges must be
        // unwound here or a destroyed cache leaks phantom resident bytes.
        BytesGauge(key.space)->Add(-static_cast<int64_t>(entry->charge));
        delete entry;
      }
      sh->table.clear();
    }
    delete sh;
  }
}

BufferCache::Shard& BufferCache::ShardFor(const CacheKey& key) {
  return *shards_[CacheKeyHash{}(key) & shard_mask_];
}

const std::string& BufferCache::Handle::value() const { return entry_->value; }

void BufferCache::Release(Entry* e) {
  Shard* sh = e->shard;
  if (sh == nullptr) {  // detached: the handle was the sole owner
    delete e;
    return;
  }
  util::MutexLock lock(&sh->mu);
  --e->refs;
  if (e->refs == 0) {
    delete e;  // was erased/evicted while pinned
  } else if (e->refs == 1 && e->in_cache) {
    // Last external pin gone: the entry becomes evictable again, at the
    // hot end (it was just in use).
    sh->AppendHot(e);
  }
}

BufferCache::Handle BufferCache::Lookup(const CacheKey& key) {
  Shard& sh = ShardFor(key);
  util::MutexLock lock(&sh.mu);
  auto it = sh.table.find(key);
  if (it == sh.table.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    Metrics().misses->Increment();
    return Handle();
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  Metrics().hits->Increment();
  Entry* e = it->second;
  ++e->refs;
  if (e->prev != nullptr) sh.ListRemove(e);  // pinned: off the LRU list
  // A hit is a re-reference: the entry has earned the protected segment.
  // Flipped while off-list (Release appends to the list the flag names).
  e->hot = true;
  return Handle(e);
}

BufferCache::Handle BufferCache::Insert(const CacheKey& key,
                                        std::string value) {
  Shard& sh = ShardFor(key);
  auto* e = new Entry();
  e->key = key;
  e->value = std::move(value);
  e->charge = e->value.size() + kEntryOverhead;
  util::MutexLock lock(&sh.mu);
  // Replace-any-existing-entry holds on every path, including the reject
  // below — a refused insert must not leave a superseded value readable.
  auto it = sh.table.find(key);
  if (it != sh.table.end()) sh.FinishErase(it->second);
  if (e->charge > sh.capacity) {
    // The value alone can never fit: refuse before flushing every
    // resident entry of the shard for nothing.
    ++sh.rejected;
    Metrics().rejected->Increment();
    e->refs = 1;
    return Handle(e);  // shard stays null: detached
  }
  while (sh.usage + e->charge > sh.capacity) {
    Entry* victim = sh.EvictionVictim();  // probation coldest first
    if (victim == nullptr) break;
    sh.FinishErase(victim);
    ++sh.evictions;
    Metrics().evictions->Increment();
  }
  if (sh.usage + e->charge > sh.capacity) {
    // Strict budget: every resident entry is pinned (or the value alone
    // exceeds the shard slice). Hand the bytes back uncached.
    ++sh.rejected;
    Metrics().rejected->Increment();
    e->refs = 1;
    return Handle(e);  // shard stays null: detached
  }
  e->shard = &sh;
  e->in_cache = true;
  e->refs = 2;  // the table + the returned handle
  sh.table.emplace(e->key, e);
  sh.usage += e->charge;
  ++sh.inserts;
  Metrics().inserts->Increment();
  BytesGauge(e->key.space)->Add(static_cast<int64_t>(e->charge));
  return Handle(e);
}

void BufferCache::EraseSpace(uint64_t space) {
  for (Shard* sh : shards_) {
    util::MutexLock lock(&sh->mu);
    std::vector<Entry*> doomed;
    for (auto& [key, entry] : sh->table) {
      if (key.space == space) doomed.push_back(entry);
    }
    for (Entry* e : doomed) sh->FinishErase(e);
  }
}

void BufferCache::Clear() {
  for (Shard* sh : shards_) {
    util::MutexLock lock(&sh->mu);
    std::vector<Entry*> doomed;
    doomed.reserve(sh->table.size());
    for (auto& [key, entry] : sh->table) doomed.push_back(entry);
    for (Entry* e : doomed) sh->FinishErase(e);
  }
}

CacheStats BufferCache::stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  for (Shard* sh : shards_) {
    util::MutexLock lock(&sh->mu);
    s.inserts += sh->inserts;
    s.evictions += sh->evictions;
    s.rejected += sh->rejected;
    s.bytes_in_use += sh->usage;
    s.entries += sh->table.size();
    for (const auto& [key, entry] : sh->table) {
      if (entry->refs > 1) ++s.pinned_entries;
    }
  }
  return s;
}

uint64_t BufferCache::bytes_in_use() const {
  uint64_t total = 0;
  for (Shard* sh : shards_) {
    util::MutexLock lock(&sh->mu);
    total += sh->usage;
  }
  return total;
}

BufferCache::Handle BufferCache::Detached(std::string value) {
  auto* e = new Entry();
  e->value = std::move(value);
  e->refs = 1;
  return Handle(e);
}

}  // namespace staccato::cache
