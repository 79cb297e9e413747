#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <filesystem>
#include <set>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "rdbms/blob_store.h"
#include "rdbms/btree.h"
#include "rdbms/heap_table.h"
#include "rdbms/page.h"
#include "rdbms/value.h"
#include "util/random.h"
#include "util/strings.h"

namespace staccato::rdbms {
namespace {

std::string TempPath(const std::string& name) {
  auto dir = std::filesystem::temp_directory_path() / "staccato_rdbms_test";
  std::filesystem::create_directories(dir);
  return (dir / name).string();
}

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value::Int(-5).AsInt(), -5);
  EXPECT_EQ(Value::Double(0.5).AsDouble(), 0.5);
  EXPECT_EQ(Value::String("x").AsString(), "x");
  EXPECT_EQ(Value::Blob(9).AsBlobId(), 9u);
  EXPECT_EQ(Value::Int(1).type(), ValueType::kInt);
  EXPECT_EQ(Value::Blob(1).type(), ValueType::kBlobId);
  EXPECT_NE(Value::Int(1), Value::Double(1.0));
}

TEST(SchemaTest, CheckTuple) {
  Schema s({{"a", ValueType::kInt}, {"b", ValueType::kString}});
  EXPECT_TRUE(s.CheckTuple({Value::Int(1), Value::String("x")}).ok());
  EXPECT_FALSE(s.CheckTuple({Value::Int(1)}).ok());
  EXPECT_FALSE(s.CheckTuple({Value::String("x"), Value::Int(1)}).ok());
  EXPECT_EQ(s.FindColumn("b"), 1);
  EXPECT_EQ(s.FindColumn("zz"), -1);
}

TEST(SchemaTest, TupleRoundTrip) {
  Schema s({{"i", ValueType::kInt},
            {"d", ValueType::kDouble},
            {"t", ValueType::kString},
            {"o", ValueType::kBlobId}});
  Tuple in = {Value::Int(-42), Value::Double(2.5), Value::String("hello world"),
              Value::Blob(777)};
  BinaryWriter w;
  s.EncodeTuple(in, &w);
  BinaryReader r(w.buffer());
  auto out = s.DecodeTuple(&r);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, in);
}

TEST(SlottedPageTest, InsertAndGet) {
  SlottedPage page;
  auto s1 = page.Insert("hello");
  auto s2 = page.Insert("world!");
  ASSERT_TRUE(s1.ok() && s2.ok());
  EXPECT_EQ(*page.Get(*s1), "hello");
  EXPECT_EQ(*page.Get(*s2), "world!");
  EXPECT_EQ(page.NumSlots(), 2u);
}

TEST(SlottedPageTest, FillsUntilFull) {
  SlottedPage page;
  std::string rec(100, 'x');
  size_t count = 0;
  while (page.Fits(rec.size())) {
    ASSERT_TRUE(page.Insert(rec).ok());
    ++count;
  }
  EXPECT_GT(count, 70u);
  EXPECT_TRUE(page.Insert(rec).status().IsOutOfRange());
  // Everything still readable.
  for (uint16_t i = 0; i < page.NumSlots(); ++i) {
    EXPECT_EQ(page.Get(i)->size(), rec.size());
  }
}

TEST(SlottedPageTest, RejectsOversized) {
  SlottedPage page;
  std::string rec(kPageSize, 'x');
  EXPECT_TRUE(page.Insert(rec).status().IsInvalidArgument());
}

TEST(SlottedPageTest, GetBadSlotFails) {
  SlottedPage page;
  EXPECT_TRUE(page.Get(0).status().IsNotFound());
}

TEST(HeapTableTest, InsertScanGet) {
  Schema schema({{"k", ValueType::kInt}, {"v", ValueType::kString}});
  auto table = HeapTable::Create(TempPath("t1.tbl"), schema);
  ASSERT_TRUE(table.ok());
  std::vector<RecordId> rids;
  for (int i = 0; i < 1000; ++i) {
    auto rid = (*table)->Insert(
        {Value::Int(i), Value::String(StringPrintf("row-%d", i))});
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  EXPECT_EQ((*table)->NumTuples(), 1000u);
  EXPECT_GT((*table)->NumPages(), 1u);
  // Point lookups.
  auto t500 = (*table)->Get(rids[500]);
  ASSERT_TRUE(t500.ok());
  EXPECT_EQ((*t500)[1].AsString(), "row-500");
  // Full scan sees every row in order.
  int expect = 0;
  ASSERT_TRUE((*table)
                  ->Scan([&](RecordId, const Tuple& t) {
                    EXPECT_EQ(t[0].AsInt(), expect++);
                    return true;
                  })
                  .ok());
  EXPECT_EQ(expect, 1000);
}

TEST(HeapTableTest, ScanEarlyStop) {
  Schema schema({{"k", ValueType::kInt}});
  auto table = HeapTable::Create(TempPath("t2.tbl"), schema);
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*table)->Insert({Value::Int(i)}).ok());
  }
  int seen = 0;
  ASSERT_TRUE(
      (*table)->Scan([&](RecordId, const Tuple&) { return ++seen < 10; }).ok());
  EXPECT_EQ(seen, 10);
}

TEST(HeapTableTest, PersistsAcrossReopen) {
  Schema schema({{"k", ValueType::kInt}, {"v", ValueType::kString}});
  std::string path = TempPath("t3.tbl");
  {
    auto table = HeapTable::Create(path, schema);
    ASSERT_TRUE(table.ok());
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE((*table)->Insert({Value::Int(i), Value::String("abc")}).ok());
    }
    ASSERT_TRUE((*table)->Flush().ok());
  }
  auto reopened = HeapTable::Open(path, schema);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->NumTuples(), 500u);
  int count = 0;
  ASSERT_TRUE((*reopened)
                  ->Scan([&](RecordId, const Tuple& t) {
                    EXPECT_EQ(t[1].AsString(), "abc");
                    ++count;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(count, 500);
}

TEST(HeapTableTest, UncachedScanReadsSealedPagesFromTheFile) {
  Schema schema({{"k", ValueType::kInt}, {"v", ValueType::kString}});
  // No cache: every sealed page is read from the file, the tail from
  // memory.
  auto table = HeapTable::Create(TempPath("t4.tbl"), schema);
  ASSERT_TRUE(table.ok());
  std::string payload(500, 'p');
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE((*table)->Insert({Value::Int(i), Value::String(payload)}).ok());
  }
  EXPECT_GT((*table)->NumPages(), 10u);
  int count = 0;
  ASSERT_TRUE((*table)
                  ->Scan([&](RecordId, const Tuple& t) {
                    EXPECT_EQ(t[0].AsInt(), count);
                    EXPECT_EQ(t[1].AsString(), payload);
                    ++count;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(count, 200);
}

TEST(BlobStoreTest, PutGetRoundTrip) {
  auto store = BlobStore::Create(TempPath("b1.dat"));
  ASSERT_TRUE(store.ok());
  auto id1 = (*store)->Put("first blob");
  auto id2 = (*store)->Put(std::string(100000, 'z'));
  auto id3 = (*store)->Put("");
  ASSERT_TRUE(id1.ok() && id2.ok() && id3.ok());
  EXPECT_EQ(*(*store)->Get(*id1), "first blob");
  EXPECT_EQ((*store)->Get(*id2)->size(), 100000u);
  EXPECT_EQ(*(*store)->Get(*id3), "");
  EXPECT_TRUE((*store)->Get(999999999).status().IsNotFound());
}

TEST(BlobStoreTest, TracksBytesRead) {
  auto store = BlobStore::Create(TempPath("b2.dat"));
  ASSERT_TRUE(store.ok());
  auto id = (*store)->Put(std::string(1000, 'a'));
  ASSERT_TRUE(id.ok());
  BlobIoStats tally;
  ASSERT_TRUE((*store)->Get(*id, &tally).ok());
  EXPECT_EQ(tally.bytes_read, 1000u + sizeof(uint64_t));
  // The store's lifetime total is the sum of its calls' tallies.
  EXPECT_EQ((*store)->io_stats().bytes_read, tally.bytes_read);
}

TEST(BlobStoreTest, GetAndGetCachedReportIdenticalIoStats) {
  // Regression: every read path must count the same way — one `reads`
  // and header+payload `bytes_read` per blob served, whether the caller
  // used Get or a cacheless GetCached.
  auto store = BlobStore::Create(TempPath("b3.dat"));
  ASSERT_TRUE(store.ok());
  auto id = (*store)->Put(std::string(500, 'q'));
  ASSERT_TRUE(id.ok());
  const uint64_t expect_bytes = 500u + sizeof(uint64_t);

  BlobIoStats via_get;
  auto got = (*store)->Get(*id, &via_get);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(via_get.reads, 1u);
  EXPECT_EQ(via_get.bytes_read, expect_bytes);

  BlobIoStats via_cached;
  auto handle = (*store)->GetCached(cache::CacheKey{1, 2, 3}, *id,
                                    &via_cached);
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(handle->value(), *got);
  EXPECT_EQ(via_cached.reads, via_get.reads);
  EXPECT_EQ(via_cached.bytes_read, via_get.bytes_read);
  // No cache attached: nothing to hit or miss.
  EXPECT_EQ(via_cached.cache_hits, 0u);
  EXPECT_EQ(via_cached.cache_misses, 0u);

  // The store's lifetime totals are the sum of the two calls.
  const BlobIoStats total = (*store)->io_stats();
  EXPECT_EQ(total.reads, 2u);
  EXPECT_EQ(total.bytes_read, 2 * expect_bytes);
  EXPECT_EQ(total.cache_hits, 0u);
  EXPECT_EQ(total.cache_misses, 0u);
}

TEST(BlobStoreTest, GetCachedServesFromBufferCache) {
  cache::BufferCache cache(1 << 20);
  auto store = BlobStore::Create(TempPath("b4.dat"), &cache);
  ASSERT_TRUE(store.ok());
  auto id = (*store)->Put(std::string(300, 'c'));
  ASSERT_TRUE(id.ok());
  const cache::CacheKey key{9, 1, 1};

  BlobIoStats after_miss;
  auto miss = (*store)->GetCached(key, *id, &after_miss);
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss->value().size(), 300u);
  EXPECT_EQ(after_miss.reads, 1u);
  EXPECT_EQ(after_miss.cache_misses, 1u);
  EXPECT_EQ(after_miss.bytes_read, 300u + sizeof(uint64_t));

  BlobIoStats hit_io;
  auto hit = (*store)->GetCached(key, *id, &hit_io);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->value(), miss->value());
  EXPECT_EQ(hit_io.reads, 1u);
  EXPECT_EQ(hit_io.cache_hits, 1u);
  EXPECT_EQ(hit_io.cache_misses, 0u);
  // The hit served no physical bytes.
  EXPECT_EQ(hit_io.bytes_read, 0u);
  // The store's lifetime totals are the sum of both calls.
  BlobIoStats after_hit = (*store)->io_stats();
  EXPECT_EQ(after_hit.reads, 2u);
  EXPECT_EQ(after_hit.cache_hits, 1u);
  EXPECT_EQ(after_hit.cache_misses, 1u);
  EXPECT_EQ(after_hit.bytes_read, after_miss.bytes_read);

  // A different version word misses: generation-bump invalidation.
  BlobIoStats bumped_io;
  auto bumped = (*store)->GetCached(cache::CacheKey{9, 1, 2}, *id,
                                    &bumped_io);
  ASSERT_TRUE(bumped.ok());
  EXPECT_EQ(bumped_io.cache_misses, 1u);
  EXPECT_EQ((*store)->io_stats().cache_misses, 2u);
}

TEST(HeapTableTest, SharedCacheServesSealedPages) {
  Schema schema({{"k", ValueType::kInt}, {"v", ValueType::kString}});
  cache::BufferCache cache(4 << 20);
  auto table = HeapTable::Create(TempPath("t5.tbl"), schema, &cache);
  ASSERT_TRUE(table.ok());
  std::string payload(500, 's');
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE((*table)->Insert({Value::Int(i), Value::String(payload)}).ok());
  }
  ASSERT_TRUE((*table)->Flush().ok());
  ASSERT_GT((*table)->NumPages(), 10u);
  // Writing puts no page in the cache: a page enters it when it is read.
  EXPECT_EQ(cache.stats().entries, 0u);
  // The tail is read from memory; every other page is sealed.
  const uint64_t sealed = (*table)->NumPages() - 1;
  auto scan_all = [&] {
    int count = 0;
    ASSERT_TRUE((*table)
                    ->Scan([&](RecordId, const Tuple& t) {
                      EXPECT_EQ(t[1].AsString(), payload);
                      ++count;
                      return true;
                    })
                    .ok());
    EXPECT_EQ(count, 200);
  };

  scan_all();
  const cache::CacheStats first = cache.stats();
  EXPECT_EQ(first.misses, sealed);
  EXPECT_EQ(first.entries, sealed);

  // A second scan is served from the cache: no new misses.
  scan_all();
  const cache::CacheStats second = cache.stats();
  EXPECT_EQ(second.misses - first.misses, 0u);
  EXPECT_EQ(second.hits - first.hits, sealed);

  // After a cold start (StaccatoDb::DropCaches clears the cache), the next
  // scan reads every sealed page from the file again.
  cache.Clear();
  scan_all();
  EXPECT_EQ(cache.stats().misses - second.misses, sealed);
}

// Regression for a swallowed write-back error: a failed write of the dirty
// tail page must be returned, and the tail must stay in memory — dropping
// it would lose the only good copy of its rows. The failure is forced with
// RLIMIT_FSIZE: the heap file cannot grow past one page, so writing back
// the tail (page 2) fails deterministically.
TEST(HeapTableTest, FlushSurfacesWriteBackFailure) {
  Schema schema({{"k", ValueType::kInt}, {"v", ValueType::kString}});
  auto table = HeapTable::Create(TempPath("t6.tbl"), schema);
  ASSERT_TRUE(table.ok());
  std::string payload(500, 'e');
  // Three pages: the inserts sealed pages 0 and 1 (wrote them to the
  // file); page 2 is the dirty tail.
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE((*table)->Insert({Value::Int(i), Value::String(payload)}).ok());
  }
  ASSERT_GT((*table)->NumPages(), 2u);

  // Cap the file at one page. Writes past the cap raise SIGXFSZ (fatal by
  // default) and then fail with EFBIG once ignored.
  auto* old_handler = std::signal(SIGXFSZ, SIG_IGN);
  struct rlimit old_limit;
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &old_limit), 0);
  struct rlimit capped = old_limit;
  capped.rlim_cur = kPageSize;
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &capped), 0);

  Status st = (*table)->Flush();

  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &old_limit), 0);
  std::signal(SIGXFSZ, old_handler);

  EXPECT_FALSE(st.ok()) << "a failed write-back must not be swallowed";
  EXPECT_TRUE(st.IsIOError()) << st.ToString();

  // And with the limit restored the data is still recoverable: the dirty
  // tail was not dropped on the failure path.
  ASSERT_TRUE((*table)->Flush().ok());
  auto tuple = (*table)->Get(RecordId{2, 0});
  ASSERT_TRUE(tuple.ok());
  EXPECT_EQ((*tuple)[1].AsString(), payload);

  // The Get above reads the in-memory tail, so check the file itself: the
  // retried write-back reached it, and a fresh handle reads the row there.
  EXPECT_EQ(std::filesystem::file_size(TempPath("t6.tbl")), 3 * kPageSize);
  auto reopened = HeapTable::Open(TempPath("t6.tbl"), schema);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->NumPages(), 3u);
  auto from_file = (*reopened)->Get(RecordId{2, 0});
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
  EXPECT_EQ((*from_file)[1].AsString(), payload);
}

// Latch-free reads race one writer: while rows are inserted into a table
// read through a small cache (pages are evicted and re-read), readers scan
// it, get rows by the ids the writer already returned, and read its
// counts. Each reader sees every row inserted before it started, intact,
// and the counts never go down. The CI TSan job runs this test.
TEST(HeapTableTest, LatchFreeReadersRaceOneWriter) {
  Schema schema({{"k", ValueType::kInt}, {"v", ValueType::kString}});
  cache::BufferCache cache(/*budget_bytes=*/128 << 10, /*shards=*/2);
  auto table_or = HeapTable::Create(TempPath("t7.tbl"), schema, &cache);
  ASSERT_TRUE(table_or.ok());
  HeapTable& table = **table_or;
  constexpr int kRows = 3000;
  auto payload = [](int i) {
    return std::string(20 + i % 90, static_cast<char>('a' + i % 26));
  };
  constexpr int kReaders = 3;
  std::vector<RecordId> rids(kRows);
  std::atomic<int> published{0};  // rids[0, published) are set
  std::atomic<int> readers_running{0};

  std::thread writer([&] {
    // Start writing once every reader runs, so reads overlap the inserts.
    while (readers_running.load() < kReaders) std::this_thread::yield();
    for (int i = 0; i < kRows; ++i) {
      auto rid = table.Insert({Value::Int(i), Value::String(payload(i))});
      ASSERT_TRUE(rid.ok()) << rid.status().ToString();
      rids[i] = *rid;
      published.store(i + 1, std::memory_order_release);
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      readers_running.fetch_add(1);
      size_t last_pages = 0;
      uint64_t last_tuples = 0;
      for (bool done = false; !done;) {
        const int before = published.load(std::memory_order_acquire);
        done = before == kRows;
        const size_t pages = table.NumPages();
        const uint64_t tuples = table.NumTuples();
        EXPECT_GE(pages, last_pages);
        EXPECT_GE(tuples, last_tuples);
        EXPECT_GE(tuples, static_cast<uint64_t>(before));
        last_pages = pages;
        last_tuples = tuples;

        int seen = 0;
        Status st = table.Scan([&](RecordId, const Tuple& t) {
          EXPECT_EQ(t[0].AsInt(), seen);
          EXPECT_EQ(t[1].AsString(), payload(seen));
          ++seen;
          return true;
        });
        EXPECT_TRUE(st.ok()) << st.ToString();
        EXPECT_GE(seen, before);

        for (int i = r; i < before; i += 37) {
          auto t = table.Get(rids[i]);
          ASSERT_TRUE(t.ok()) << t.status().ToString();
          EXPECT_EQ((*t)[0].AsInt(), i);
          EXPECT_EQ((*t)[1].AsString(), payload(i));
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(table.NumTuples(), static_cast<uint64_t>(kRows));
}

TEST(BPlusTreeTest, InsertLookup) {
  BPlusTree tree;
  tree.Insert("beta", 2);
  tree.Insert("alpha", 1);
  tree.Insert("gamma", 3);
  EXPECT_EQ(tree.Lookup("alpha"), std::vector<uint64_t>{1});
  EXPECT_EQ(tree.Lookup("beta"), std::vector<uint64_t>{2});
  EXPECT_TRUE(tree.Lookup("zeta").empty());
  EXPECT_EQ(tree.size(), 3u);
}

TEST(BPlusTreeTest, Duplicates) {
  BPlusTree tree;
  for (uint64_t i = 0; i < 50; ++i) tree.Insert("dup", i);
  tree.Insert("other", 99);
  auto vals = tree.Lookup("dup");
  EXPECT_EQ(vals.size(), 50u);
}

TEST(BPlusTreeTest, ManyKeysSplitCorrectly) {
  BPlusTree tree;
  Rng rng(4);
  std::vector<std::string> keys;
  for (int i = 0; i < 5000; ++i) {
    keys.push_back(StringPrintf("key-%05d", static_cast<int>(rng.UniformInt(0, 99999))));
    tree.Insert(keys.back(), static_cast<uint64_t>(i));
  }
  EXPECT_GT(tree.height(), 1);
  // Every inserted key must be findable.
  for (const std::string& k : keys) {
    EXPECT_FALSE(tree.Lookup(k).empty()) << k;
  }
  // Every inserted value comes back exactly once, under its own key.
  std::vector<int> seen(keys.size(), 0);
  for (const std::string& k : std::set<std::string>(keys.begin(), keys.end())) {
    for (uint64_t v : tree.Lookup(k)) {
      ASSERT_LT(v, keys.size());
      EXPECT_EQ(keys[v], k);
      ++seen[v];
    }
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 1), 5000);
}

TEST(BPlusTreeTest, DuplicateRunStraddlingLeaves) {
  BPlusTree tree;
  // Surround a large duplicate run with other keys so the run splits
  // across leaves.
  for (int i = 0; i < 200; ++i) tree.Insert(StringPrintf("a%03d", i), 0);
  for (uint64_t i = 0; i < 300; ++i) tree.Insert("mmm", i);
  for (int i = 0; i < 200; ++i) tree.Insert(StringPrintf("z%03d", i), 0);
  // The whole run comes back across leaf boundaries, and the run's
  // neighbours keep their own single values.
  EXPECT_EQ(tree.Lookup("mmm").size(), 300u);
  EXPECT_EQ(tree.Lookup("a000").size(), 1u);
  EXPECT_EQ(tree.Lookup("absent").size(), 0u);
}

}  // namespace
}  // namespace staccato::rdbms
