// Tests for the sharded memory-budgeted buffer cache (src/cache): LRU
// eviction order under budget pressure, pin-blocks-evict with strict
// budget accounting, key/namespace invalidation, and concurrent mixed
// traffic (raced under the TSan CI job).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "cache/buffer_cache.h"
#include "util/parallel.h"
#include "util/random.h"

namespace staccato::cache {
namespace {

using Handle = BufferCache::Handle;

CacheKey Key(uint64_t id, uint64_t space = 1, uint64_t version = 0) {
  return CacheKey{space, id, version};
}

/// Budget that fits exactly `n` entries of `value_bytes` each in a
/// single-shard cache.
size_t BudgetFor(size_t n, size_t value_bytes) {
  return n * (value_bytes + BufferCache::kEntryOverhead);
}

TEST(BufferCacheTest, LookupMissThenInsertThenHit) {
  BufferCache cache(1 << 20, /*shards=*/1);
  EXPECT_FALSE(cache.Lookup(Key(1)));
  {
    Handle h = cache.Insert(Key(1), "payload");
    ASSERT_TRUE(h);
    EXPECT_EQ(h.value(), "payload");
  }
  Handle h = cache.Lookup(Key(1));
  ASSERT_TRUE(h);
  EXPECT_EQ(h.value(), "payload");
  CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes_in_use, 7u + BufferCache::kEntryOverhead);
}

TEST(BufferCacheTest, EvictsLeastRecentlyUsedUnderBudgetPressure) {
  const std::string v(100, 'x');
  BufferCache cache(BudgetFor(2, v.size()), /*shards=*/1);
  cache.Insert(Key(1), v);
  cache.Insert(Key(2), v);
  // Touch 1 so 2 becomes the coldest.
  ASSERT_TRUE(cache.Lookup(Key(1)));
  cache.Insert(Key(3), v);  // budget fits two: evicts 2, not 1
  EXPECT_TRUE(cache.Lookup(Key(1)));
  EXPECT_FALSE(cache.Lookup(Key(2)));
  EXPECT_TRUE(cache.Lookup(Key(3)));
  CacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_LE(s.bytes_in_use, cache.budget_bytes());
}

TEST(BufferCacheTest, PinnedEntriesBlockEvictionAndBudgetHolds) {
  const std::string v(100, 'p');
  BufferCache cache(BudgetFor(1, v.size()), /*shards=*/1);
  Handle pin = cache.Insert(Key(1), v);  // pinned: budget now full
  ASSERT_TRUE(pin);

  // A second insert cannot evict the pinned entry; it must be refused
  // (detached handle) rather than blow the budget.
  Handle overflow = cache.Insert(Key(2), v);
  ASSERT_TRUE(overflow);  // the caller still gets its bytes...
  EXPECT_EQ(overflow.value(), v);
  EXPECT_FALSE(cache.Lookup(Key(2)));  // ...but they were not cached
  CacheStats s = cache.stats();
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.pinned_entries, 1u);
  EXPECT_LE(s.bytes_in_use, cache.budget_bytes());
  EXPECT_EQ(pin.value(), v);  // the pinned bytes never moved

  // Releasing the pin makes the entry evictable: the next insert evicts
  // it and is cached.
  pin.Reset();
  Handle h3 = cache.Insert(Key(3), v);
  ASSERT_TRUE(h3);
  EXPECT_FALSE(cache.Lookup(Key(1)));
  h3.Reset();
  EXPECT_TRUE(cache.Lookup(Key(3)));
  EXPECT_LE(cache.stats().bytes_in_use, cache.budget_bytes());
}

TEST(BufferCacheTest, ValueLargerThanShardBudgetIsServedDetached) {
  BufferCache cache(BudgetFor(2, 100), /*shards=*/1);
  cache.Insert(Key(7), std::string(100, 'k'));  // resident bystander
  std::string big(64 * 1024, 'b');
  Handle h = cache.Insert(Key(1), big);
  ASSERT_TRUE(h);
  EXPECT_EQ(h.value(), big);
  EXPECT_FALSE(cache.Lookup(Key(1)));
  // The hopeless insert is refused up front — it must not have flushed
  // the shard's resident entries on the way to failing.
  EXPECT_TRUE(cache.Lookup(Key(7)));
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().rejected, 1u);
}

TEST(BufferCacheTest, InsertReplacesExistingKey) {
  BufferCache cache(1 << 20, /*shards=*/1);
  cache.Insert(Key(1), "old");
  cache.Insert(Key(1), "new");
  Handle h = cache.Lookup(Key(1));
  ASSERT_TRUE(h);
  EXPECT_EQ(h.value(), "new");
  CacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes_in_use, 3u + BufferCache::kEntryOverhead);
}

TEST(BufferCacheTest, ReplacedEntryStaysValidWhilePinned) {
  BufferCache cache(1 << 20, /*shards=*/1);
  Handle old = cache.Insert(Key(1), "old");
  cache.Insert(Key(1), "new");
  // The old pin still reads its own bytes; new lookups see the new value.
  EXPECT_EQ(old.value(), "old");
  EXPECT_EQ(cache.Lookup(Key(1)).value(), "new");
}

TEST(BufferCacheTest, EraseSpaceAndClear) {
  BufferCache cache(1 << 20, /*shards=*/4);
  cache.Insert(Key(1, /*space=*/7), "a");
  cache.Insert(Key(2, /*space=*/7), "b");
  cache.Insert(Key(1, /*space=*/9), "c");
  cache.EraseSpace(7);
  EXPECT_FALSE(cache.Lookup(Key(1, 7)));
  EXPECT_FALSE(cache.Lookup(Key(2, 7)));
  EXPECT_TRUE(cache.Lookup(Key(1, 9)));
  cache.Clear();
  EXPECT_FALSE(cache.Lookup(Key(1, 9)));
  EXPECT_EQ(cache.stats().bytes_in_use, 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(BufferCacheTest, VersionedKeysNeverMatchOtherVersions) {
  // The invalidation contract: a key carries its data version (load
  // generation), so bumping the version makes every old entry unreachable
  // without any explicit flush.
  BufferCache cache(1 << 20);
  cache.Insert(Key(5, 1, /*version=*/1), "gen1");
  EXPECT_FALSE(cache.Lookup(Key(5, 1, /*version=*/2)));
  cache.Insert(Key(5, 1, /*version=*/2), "gen2");
  EXPECT_EQ(cache.Lookup(Key(5, 1, 1)).value(), "gen1");
  EXPECT_EQ(cache.Lookup(Key(5, 1, 2)).value(), "gen2");
}

TEST(BufferCacheTest, BudgetNeverExceededUnderRandomTraffic) {
  const size_t kBudget = 64 * 1024;
  BufferCache cache(kBudget, /*shards=*/4);
  Rng rng(7);
  for (int i = 0; i < 4000; ++i) {
    uint64_t id = static_cast<uint64_t>(rng.UniformInt(0, 200));
    size_t len = static_cast<size_t>(rng.UniformInt(1, 4096));
    if (rng.UniformInt(0, 3) == 0) {
      cache.Lookup(Key(id));
    } else {
      Handle h = cache.Insert(Key(id), std::string(len, 'r'));
      ASSERT_TRUE(h);
      ASSERT_EQ(h.value().size(), len);
    }
    ASSERT_LE(cache.stats().bytes_in_use, kBudget) << "after op " << i;
  }
  CacheStats s = cache.stats();
  EXPECT_GT(s.evictions, 0u) << "budget pressure never evicted anything";
  EXPECT_GT(s.hits, 0u);
}

TEST(BufferCacheTest, DetachedHandleOwnsItsBytes) {
  Handle h = BufferCache::Detached("standalone");
  ASSERT_TRUE(h);
  EXPECT_EQ(h.value(), "standalone");
  Handle moved = std::move(h);
  EXPECT_FALSE(h);
  EXPECT_EQ(moved.value(), "standalone");
}

TEST(BufferCacheTest, ConcurrentMixedGetInsertEvictIsSafe) {
  // Hammered under ThreadSanitizer in CI: a small budget forces constant
  // eviction while readers pin, verify, and release entries, and writers
  // insert over a shared key range and erase whole key spaces of it.
  const size_t kBudget = 32 * 1024;
  BufferCache cache(kBudget, /*shards=*/4);
  const size_t kOps = 2000;
  std::atomic<uint64_t> verified{0};
  Status st = ParallelFor(
      kOps, /*grain=*/1,
      [&](size_t i) -> Status {
        Rng rng(static_cast<uint64_t>(i) * 2654435761u + 17);
        uint64_t id = static_cast<uint64_t>(rng.UniformInt(0, 40));
        const uint64_t space = 1 + id % 4;
        switch (rng.UniformInt(0, 4)) {
          case 0:
          case 1: {
            Handle h = cache.Lookup(Key(id, space));
            if (h) {
              // Pinned bytes must be stable: every entry for `id` holds
              // id+1 bytes of the same letter.
              if (h.value().size() != id + 1) {
                return Status::Internal("pinned value changed size");
              }
              verified.fetch_add(1, std::memory_order_relaxed);
            }
            return Status::OK();
          }
          case 2:
          case 3: {
            Handle h = cache.Insert(
                Key(id, space),
                std::string(id + 1, static_cast<char>('a' + id % 26)));
            if (!h || h.value().size() != id + 1) {
              return Status::Internal("insert lost its bytes");
            }
            return Status::OK();
          }
          default:
            cache.EraseSpace(space);
            return Status::OK();
        }
      },
      ParallelOptions{4});
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_LE(cache.stats().bytes_in_use, kBudget);
  EXPECT_GT(verified.load(), 0u);
}

TEST(CacheConfigTest, DefaultHonorsEnvOverride) {
  // No env manipulation here (tests run in parallel); just the parsing
  // invariants of the default path.
  CacheConfig cfg = CacheConfig::Default();
  // Either untouched default or whatever the environment pinned — both
  // are legal; the knob itself is exercised end-to-end by the bench.
  (void)cfg;
  CacheConfig fixed;
  EXPECT_EQ(fixed.budget_bytes, CacheConfig::kDefaultBudgetBytes);
  EXPECT_EQ(fixed.shards, 0u);
}

TEST(BufferCacheTest, ShardCountRoundsUpToPowerOfTwo) {
  BufferCache cache(1 << 20, /*shards=*/5);
  EXPECT_EQ(cache.num_shards(), 8u);
  BufferCache one(1 << 20, /*shards=*/1);
  EXPECT_EQ(one.num_shards(), 1u);
}

TEST(BufferCacheTest, SequentialScanDoesNotFlushReReferencedWorkingSet) {
  // Scan resistance (segmented LRU): a working set that has been
  // re-referenced — each entry hit at least once after insertion — must
  // survive a sequential flood of single-touch entries many times the
  // budget, because never-re-referenced entries churn the probation
  // segment only. Under the old single-list LRU this flood evicted the
  // hot set every time (0% hit rate on the next pass).
  const std::string v(1000, 'b');
  const size_t kBudgetEntries = 16;
  BufferCache cache(BudgetFor(kBudgetEntries, v.size()), /*shards=*/1);
  const size_t kHot = 4;  // well under the protected segment's half-budget
  for (uint64_t i = 0; i < kHot; ++i) cache.Insert(Key(i), v);
  for (uint64_t i = 0; i < kHot; ++i) {
    ASSERT_TRUE(cache.Lookup(Key(i)));  // re-reference: promote
  }
  // Flood: 10x the budget in distinct keys, each inserted once and never
  // touched again (the access pattern of a cold sequential shard scan).
  for (uint64_t i = 0; i < 10 * kBudgetEntries; ++i) {
    cache.Insert(Key(1000 + i), v);
  }
  for (uint64_t i = 0; i < kHot; ++i) {
    EXPECT_TRUE(cache.Lookup(Key(i))) << "hot entry " << i << " was flushed";
  }
  // The budget still holds throughout.
  EXPECT_LE(cache.stats().bytes_in_use,
            BudgetFor(kBudgetEntries, v.size()));
}

TEST(BufferCacheTest, ProtectedSegmentOverflowDemotesNotEvicts) {
  // Promoting more than the protected segment can hold (half the shard
  // budget) must demote its coldest entries back to probation rather
  // than evict them: they are still resident until budget pressure from
  // new inserts ages them out.
  const std::string v(1000, 'd');
  const size_t kEntries = 8;
  BufferCache cache(BudgetFor(kEntries, v.size()), /*shards=*/1);
  for (uint64_t i = 0; i < kEntries; ++i) cache.Insert(Key(i), v);
  // Promote everything: the protected segment (4 entries' worth) cannot
  // hold all 8, so the coldest promotions cascade back to probation.
  for (uint64_t i = 0; i < kEntries; ++i) {
    ASSERT_TRUE(cache.Lookup(Key(i)));
  }
  CacheStats s = cache.stats();
  EXPECT_EQ(s.entries, kEntries);  // demotion never drops an entry
  // One new insert evicts exactly one resident entry (a demoted one),
  // and the most recently promoted entries survive in the protected set.
  cache.Insert(Key(100), v);
  EXPECT_TRUE(cache.Lookup(Key(kEntries - 1)));
  EXPECT_TRUE(cache.Lookup(Key(kEntries - 2)));
}

}  // namespace
}  // namespace staccato::cache
