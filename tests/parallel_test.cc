// Tests for the unified parallel execution layer: the ThreadPool /
// ParallelFor substrate (util/parallel.h) and concurrent PreparedQuery
// execution against one StaccatoDb (the storage layer's concurrent-read
// contract).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "eval/workbench.h"
#include "rdbms/session.h"
#include "rdbms/staccato_db.h"
#include "util/parallel.h"

namespace staccato {
namespace {

using eval::Workbench;
using eval::WorkbenchSpec;
using rdbms::Approach;
using rdbms::IndexMode;
using rdbms::PreparedQuery;
using rdbms::QueryOptions;
using rdbms::QueryStats;
using rdbms::Session;
using rdbms::SessionOptions;

// ---- ParallelFor / ParallelMap / ThreadPool -------------------------------

TEST(ParallelForTest, EmptyRangeNeverCallsTheBody) {
  std::atomic<size_t> calls{0};
  Status st = ParallelFor(0, 1, [&](size_t) -> Status {
    ++calls;
    return Status::OK();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls.load(), 0u);
}

TEST(ParallelForWorkerTest, WorkerIdsAreStableSlotsWithinBounds) {
  constexpr size_t kN = 500;
  constexpr size_t kThreads = 4;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  // Record which worker slot visited each index; ids must stay < kThreads
  // and distinct concurrent calls must never share a slot — that is what
  // lets callers index per-worker scratch without locking.
  std::vector<std::atomic<int>> owner(kN);
  for (auto& o : owner) o.store(-1);
  std::vector<std::atomic<int>> in_flight(kThreads);
  for (auto& f : in_flight) f.store(0);
  std::atomic<bool> overlap{false};
  Status st = ParallelForWorker(
      kN, /*grain=*/1,
      [&](size_t worker, size_t i) -> Status {
        if (worker >= kThreads) overlap.store(true);
        if (in_flight[worker].fetch_add(1) != 0) overlap.store(true);
        hits[i].fetch_add(1);
        owner[i].store(static_cast<int>(worker));
        in_flight[worker].fetch_sub(1);
        return Status::OK();
      },
      {kThreads});
  ASSERT_TRUE(st.ok());
  EXPECT_FALSE(overlap.load()) << "two concurrent calls shared a worker slot";
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
    EXPECT_GE(owner[i].load(), 0) << i;
  }
}

TEST(ParallelForWorkerTest, SerialRegionRunsAsWorkerZeroInOrder) {
  std::vector<size_t> seen;
  Status st = ParallelForWorker(
      8, /*grain=*/1,
      [&](size_t worker, size_t i) -> Status {
        EXPECT_EQ(worker, 0u);
        seen.push_back(i);
        return Status::OK();
      },
      {/*threads=*/1});
  ASSERT_TRUE(st.ok());
  ASSERT_EQ(seen.size(), 8u);
  for (size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

TEST(ParallelForWorkerTest, ErrorStopsTheRegion) {
  std::atomic<size_t> calls{0};
  Status st = ParallelForWorker(
      1000, /*grain=*/1,
      [&](size_t, size_t i) -> Status {
        calls.fetch_add(1);
        if (i == 17) return Status::InvalidArgument("boom");
        return Status::OK();
      },
      {/*threads=*/4});
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_LT(calls.load(), 1000u) << "failure did not stop the region";
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  constexpr size_t kN = 1000;
  for (size_t grain : {size_t{1}, size_t{3}, size_t{64}}) {
    std::vector<std::atomic<int>> hits(kN);
    for (auto& h : hits) h.store(0);
    Status st = ParallelFor(
        kN, grain,
        [&](size_t i) -> Status {
          hits[i].fetch_add(1);
          return Status::OK();
        },
        {/*threads=*/8});
    ASSERT_TRUE(st.ok());
    for (size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " grain " << grain;
    }
  }
}

TEST(ParallelForTest, GrainLargerThanRangeRunsInlineInOrder) {
  std::vector<size_t> order;
  Status st = ParallelFor(
      5, /*grain=*/100,
      [&](size_t i) -> Status {
        order.push_back(i);  // safe: single chunk == single worker
        return Status::OK();
      },
      {/*threads=*/8});
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, OneThreadRunsInlineInOrder) {
  std::vector<size_t> order;
  Status st = ParallelFor(
      6, 1,
      [&](size_t i) -> Status {
        order.push_back(i);
        return Status::OK();
      },
      {/*threads=*/1});
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4, 5}));
}

TEST(ParallelForTest, FirstErrorStopsTheRegionAndIsReturned) {
  // Serial: exact first-failure semantics.
  std::atomic<size_t> calls{0};
  Status st = ParallelFor(
      100, 1,
      [&](size_t i) -> Status {
        ++calls;
        if (i == 3) return Status::InvalidArgument("boom");
        return Status::OK();
      },
      {/*threads=*/1});
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(calls.load(), 4u);

  // Parallel: some failure is reported; the region does not run to
  // completion once a worker fails.
  Status par = ParallelFor(
      10000, 1,
      [&](size_t i) -> Status {
        if (i % 7 == 0) return Status::Internal("worker failure");
        return Status::OK();
      },
      {/*threads=*/8});
  EXPECT_FALSE(par.ok());
  EXPECT_TRUE(par.IsInternal());
}

TEST(ParallelForTest, PoolIsReusedAcrossRegions) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.capacity(), 4u);
  for (int round = 0; round < 20; ++round) {
    std::atomic<size_t> sum{0};
    Status st = ParallelFor(
        257, 8,
        [&](size_t i) -> Status {
          sum.fetch_add(i);
          return Status::OK();
        },
        {/*threads=*/0, &pool});
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(sum.load(), 257u * 256u / 2u) << "round " << round;
  }
}

TEST(ParallelForTest, NestedRegionsOnPoolWorkersRunInline) {
  // A ParallelFor issued from inside a pool task must not deadlock waiting
  // on helpers queued behind the task itself.
  ThreadPool pool(2);
  std::atomic<size_t> total{0};
  Status st = ParallelFor(
      8, 1,
      [&](size_t) -> Status {
        return ParallelFor(
            16, 1,
            [&](size_t) -> Status {
              total.fetch_add(1);
              return Status::OK();
            },
            {/*threads=*/4, &pool});
      },
      {/*threads=*/4, &pool});
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(total.load(), 8u * 16u);
}

TEST(ParallelMapTest, GathersResultsPositionally) {
  auto r = ParallelMap<size_t>(
      100, 3, [](size_t i) -> Result<size_t> { return i * i; },
      {/*threads=*/8});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 100u);
  for (size_t i = 0; i < r->size(); ++i) EXPECT_EQ((*r)[i], i * i);
}

TEST(ThreadPoolTest, DefaultThreadsIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreads(), 1u);
  EXPECT_GE(ThreadPool::Shared().capacity(), 1u);
}

// ---- Concurrent query execution over one database -------------------------

WorkbenchSpec StressSpec() {
  WorkbenchSpec spec;
  spec.corpus.kind = DatasetKind::kCongressActs;
  spec.corpus.num_pages = 2;
  spec.corpus.lines_per_page = 25;
  spec.corpus.seed = 77;
  spec.noise.alternatives = 6;
  spec.load.kmap_k = 8;
  spec.load.staccato = {20, 8, true};
  spec.build_index = true;
  return spec;
}

void ExpectSameAnswers(const std::vector<Answer>& a,
                       const std::vector<Answer>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].doc, b[i].doc) << "rank " << i;
    EXPECT_EQ(a[i].prob, b[i].prob) << "rank " << i;  // bit-identical
  }
}

TEST(ParallelQueryStressTest, ConcurrentExecutesMatchSerialBaseline) {
  auto wb = Workbench::Create(StressSpec());
  ASSERT_TRUE(wb.ok()) << wb.status().ToString();
  Session session(&(*wb)->db());

  const std::vector<std::string> patterns = {"President", "Congress", "act",
                                             "United States", "law", "section"};
  struct Shape {
    Approach approach;
    IndexMode mode;
  };
  const std::vector<Shape> shapes = {
      {Approach::kMap, IndexMode::kNever},
      {Approach::kKMap, IndexMode::kNever},
      {Approach::kFullSfa, IndexMode::kNever},
      {Approach::kStaccato, IndexMode::kNever},
      {Approach::kStaccato, IndexMode::kAuto},
  };

  // Serial baseline: every (pattern, shape) with one thread.
  std::vector<std::vector<Answer>> baseline;
  for (const std::string& pat : patterns) {
    for (const Shape& sh : shapes) {
      QueryOptions q;
      q.pattern = pat;
      q.index_mode = sh.mode;
      q.eval_threads = 1;
      auto pq = session.Prepare(sh.approach, q);
      ASSERT_TRUE(pq.ok()) << pq.status().ToString();
      auto ans = pq->Execute();
      ASSERT_TRUE(ans.ok()) << ans.status().ToString();
      baseline.push_back(std::move(*ans));
    }
  }

  // Many threads, each owning its own PreparedQuery for one (pattern,
  // shape), all executing repeatedly against the one database — parallel
  // Eval enabled so pool-backed regions from several callers interleave.
  constexpr int kRepeats = 3;
  std::vector<PreparedQuery> queries;
  for (const std::string& pat : patterns) {
    for (const Shape& sh : shapes) {
      QueryOptions q;
      q.pattern = pat;
      q.index_mode = sh.mode;
      q.eval_threads = 4;
      auto pq = session.Prepare(sh.approach, q);
      ASSERT_TRUE(pq.ok()) << pq.status().ToString();
      queries.push_back(std::move(*pq));
    }
  }
  std::vector<std::vector<std::vector<Answer>>> got(
      queries.size(), std::vector<std::vector<Answer>>(kRepeats));
  std::vector<Status> errors(queries.size(), Status::OK());
  {
    std::vector<std::thread> runners;
    runners.reserve(queries.size());
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      runners.emplace_back([&, qi] {
        for (int r = 0; r < kRepeats; ++r) {
          auto ans = queries[qi].Execute();
          if (!ans.ok()) {
            errors[qi] = ans.status();
            return;
          }
          got[qi][r] = std::move(*ans);
        }
      });
    }
    for (auto& t : runners) t.join();
  }
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    ASSERT_TRUE(errors[qi].ok()) << errors[qi].ToString();
    for (int r = 0; r < kRepeats; ++r) {
      ExpectSameAnswers(got[qi][r], baseline[qi]);
    }
  }
}

// Per-query I/O figures are counted by the query itself, so a query's
// blob bytes and heap pages are exactly its serial run's while other
// queries run against the same tables and blob store. Caching is off, so
// every candidate blob really comes from disk.
TEST(ParallelQueryStressTest, ConcurrentExecutesReportTheirOwnIo) {
  WorkbenchSpec spec = StressSpec();
  spec.cache = cache::CacheConfig{0, 0};
  spec.build_index = false;  // the Staccato shape stays a full scan
  auto wb = Workbench::Create(spec);
  ASSERT_TRUE(wb.ok()) << wb.status().ToString();
  Session session(&(*wb)->db(), SessionOptions{/*eval_threads=*/1});

  struct Shape {
    Approach approach;
    std::string sql;
  };
  const std::vector<Shape> shapes = {
      {Approach::kStaccato,
       "SELECT DataKey FROM Docs WHERE DocData LIKE '%President%';"},
      {Approach::kFullSfa,
       "SELECT DataKey FROM Docs WHERE Year = 2011 AND "
       "DocData LIKE '%Congress%';"},
      {Approach::kKMap,
       "SELECT DataKey FROM Docs WHERE Year = 2010 AND "
       "DocData LIKE '%act%';"},
  };
  struct Io {
    uint64_t blob_bytes = 0;
    uint64_t heap_pages = 0;
  };
  // The serial reference: a warmed PreparedQuery's next Execute.
  std::vector<Io> want;
  for (const Shape& sh : shapes) {
    auto pq = session.PrepareSql(sh.approach, sh.sql);
    ASSERT_TRUE(pq.ok()) << pq.status().ToString();
    ASSERT_TRUE(pq->Execute().ok());
    QueryStats stats;
    ASSERT_TRUE(pq->Execute(&stats).ok());
    want.push_back({stats.blob_bytes_read, stats.heap_pages_read});
  }
  EXPECT_GT(want[0].blob_bytes, 0u);
  EXPECT_GT(want[1].blob_bytes, 0u);
  EXPECT_GT(want[2].heap_pages, 0u);

  constexpr size_t kThreads = 8;
  constexpr int kRepeats = 10;
  std::vector<PreparedQuery> queries;
  for (size_t t = 0; t < kThreads; ++t) {
    const Shape& sh = shapes[t % shapes.size()];
    auto pq = session.PrepareSql(sh.approach, sh.sql);
    ASSERT_TRUE(pq.ok()) << pq.status().ToString();
    queries.push_back(std::move(*pq));
  }
  std::vector<std::vector<Io>> got(kThreads);
  std::vector<Status> errors(kThreads, Status::OK());
  {
    std::vector<std::thread> runners;
    for (size_t t = 0; t < kThreads; ++t) {
      runners.emplace_back([&, t] {
        for (int r = 0; r < kRepeats; ++r) {
          QueryStats stats;
          auto ans = queries[t].Execute(&stats);
          if (!ans.ok()) {
            errors[t] = ans.status();
            return;
          }
          got[t].push_back({stats.blob_bytes_read, stats.heap_pages_read});
        }
      });
    }
    for (auto& th : runners) th.join();
  }
  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(errors[t].ok()) << errors[t].ToString();
    const Io& w = want[t % shapes.size()];
    ASSERT_EQ(got[t].size(), static_cast<size_t>(kRepeats));
    for (int r = 0; r < kRepeats; ++r) {
      EXPECT_EQ(got[t][r].blob_bytes, w.blob_bytes)
          << "thread " << t << " run " << r;
      EXPECT_EQ(got[t][r].heap_pages, w.heap_pages)
          << "thread " << t << " run " << r;
    }
  }
}

}  // namespace
}  // namespace staccato
