// Tests for the deadline-aware query service (rdbms/service.h): per-query
// budgets and cooperative cancellation at every executor cancellation
// point, the partial-results (graceful degradation) property, transient-
// I/O retry with backoff, admission control with retry-after hints, the
// bounded ThreadPool queue, and deterministic first-failing-shard
// surfacing in the scatter-gather path. An STACCATO_FAULT_SOAK=1 section
// hammers the whole stack with probabilistic read faults.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "eval/workbench.h"
#include "ocr/corpus.h"
#include "ocr/generator.h"
#include "rdbms/service.h"
#include "rdbms/session.h"
#include "rdbms/shard.h"
#include "rdbms/staccato_db.h"
#include "util/fault_fs.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace staccato {
namespace rdbms {
namespace {

CorpusSpec SmallSpec() {
  CorpusSpec spec;
  spec.kind = DatasetKind::kCongressActs;
  spec.num_pages = 2;
  spec.lines_per_page = 12;
  spec.max_line_chars = 40;
  spec.seed = 777;
  return spec;
}

OcrNoiseModel Noise() {
  OcrNoiseModel noise;
  noise.alternatives = 6;
  return noise;
}

LoadOptions SmallLoad() {
  LoadOptions opts;
  opts.kmap_k = 8;
  opts.staccato.m = 16;
  opts.staccato.k = 8;
  return opts;
}

void ExpectSameAnswers(const std::vector<Answer>& want,
                       const std::vector<Answer>& got,
                       const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].doc, got[i].doc) << what << " rank " << i;
    EXPECT_EQ(want[i].prob, got[i].prob)
        << what << " rank " << i << " (must be bit-identical)";
  }
}

/// Shared corpus + single-partition oracle, built once for the suite.
/// The oracle runs with the cache disabled so every Fetch really reads
/// the blob file — the fault-injection tests depend on that.
class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto data = GenerateOcrDataset(SmallSpec(), Noise());
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    dataset_ = new OcrDataset(std::move(*data));
    cache::CacheConfig no_cache;
    no_cache.budget_bytes = 0;
    auto db = StaccatoDb::Open(eval::MakeScratchDir("service_oracle"),
                               no_cache);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = db->release();
    ASSERT_TRUE(db_->Load(*dataset_, SmallLoad()).ok());
    ASSERT_TRUE(
        db_->BuildInvertedIndex(DatasetQueries(DatasetKind::kCongressActs))
            .ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }

  void SetUp() override { util::FaultInjector::Global()->Clear(); }
  void TearDown() override { util::FaultInjector::Global()->Clear(); }

  static std::string Pattern() {
    return DatasetQueries(DatasetKind::kCongressActs)[0];
  }

  /// A scan-planned serial query: candidate visit order is doc order, so
  /// degraded answers have a predictable visited prefix.
  static QueryOptions SerialScanQuery() {
    QueryOptions q;
    q.pattern = Pattern();
    q.num_ans = 50;
    q.eval_threads = 1;
    q.early_stop = false;
    q.index_mode = IndexMode::kNever;
    return q;
  }

  static OcrDataset* dataset_;
  static StaccatoDb* db_;
};

OcrDataset* ServiceTest::dataset_ = nullptr;
StaccatoDb* ServiceTest::db_ = nullptr;

// ---- Budget / deadline semantics ------------------------------------------

TEST_F(ServiceTest, PreExpiredDeadlineFailsBeforeAnyWork) {
  Session session(db_, SessionOptions{1, 50});
  auto pq = session.Prepare(Approach::kStaccato, SerialScanQuery());
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  ExecBudget budget;
  budget.deadline_ms = -1.0;  // born expired
  QueryControl control(budget);
  QueryStats stats;
  auto got = pq->Execute(&control, &stats);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsDeadlineExceeded()) << got.status().ToString();
  // Not a single candidate was generated, fetched, or evaluated.
  EXPECT_EQ(stats.candidates, 0u);
  EXPECT_EQ(stats.visited_candidates, 0u);
  EXPECT_EQ(stats.blob_bytes_read, 0u);
}

TEST_F(ServiceTest, PreExpiredDeadlineWithAllowPartialDegradesToEmpty) {
  Session session(db_, SessionOptions{1, 50});
  for (Approach approach : {Approach::kStaccato, Approach::kKMap}) {
    auto pq = session.Prepare(approach, SerialScanQuery());
    ASSERT_TRUE(pq.ok()) << pq.status().ToString();
    ExecBudget budget;
    budget.deadline_ms = -1.0;
    budget.allow_partial = true;
    QueryControl control(budget);
    QueryStats stats;
    auto got = pq->Execute(&control, &stats);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(got->empty());
    EXPECT_TRUE(stats.degraded);
    EXPECT_EQ(stats.visited_candidates, 0u);
  }
}

TEST_F(ServiceTest, FetchByteBudgetFailsMidFetchWithoutAllowPartial) {
  Session session(db_, SessionOptions{1, 50});
  auto pq = session.Prepare(Approach::kStaccato, SerialScanQuery());
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  ExecBudget budget;
  budget.max_fetch_bytes = 1;  // blown by the very first blob
  QueryControl control(budget);
  QueryStats stats;
  auto got = pq->Execute(&control, &stats);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsDeadlineExceeded()) << got.status().ToString();
  EXPECT_NE(got.status().ToString().find("fetch byte"), std::string::npos)
      << got.status().ToString();
}

TEST_F(ServiceTest, DpStepBudgetFailsMidEvalWithoutAllowPartial) {
  Session session(db_, SessionOptions{1, 50});
  auto pq = session.Prepare(Approach::kStaccato, SerialScanQuery());
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  ExecBudget budget;
  budget.max_dp_steps = 1;  // blown by the very first candidate's DP
  QueryControl control(budget);
  QueryStats stats;
  auto got = pq->Execute(&control, &stats);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsDeadlineExceeded()) << got.status().ToString();
  EXPECT_NE(got.status().ToString().find("DP step"), std::string::npos)
      << got.status().ToString();
}

// The graceful-degradation property: under allow_partial, the degraded
// answers are exactly the well-formed top-k of the candidates visited
// before the cut. With a serial scan plan the visited set is the doc-id
// prefix [0, visited_candidates), so the expected answer is the full
// run's ranking restricted to that prefix.
TEST_F(ServiceTest, PartialAnswersAreExactTopKOfVisitedPrefix) {
  Session session(db_, SessionOptions{1, 50});
  auto pq = session.Prepare(Approach::kStaccato, SerialScanQuery());
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  auto full = pq->Execute(nullptr);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_FALSE(full->empty());

  for (uint64_t steps : {1ull, 50ull, 500ull, 5000ull}) {
    ExecBudget budget;
    budget.max_dp_steps = steps;
    budget.allow_partial = true;
    QueryControl control(budget);
    QueryStats stats;
    auto got = pq->Execute(&control, &stats);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    if (!stats.degraded) {
      // Budget big enough for the whole query: answers must be the full
      // ranking, bit-identical.
      ExpectSameAnswers(*full, *got, "undegraded budget run");
      continue;
    }
    ASSERT_LE(stats.visited_candidates, stats.candidates);
    std::vector<Answer> expected;
    for (const Answer& a : *full) {
      if (a.doc < stats.visited_candidates) expected.push_back(a);
    }
    ExpectSameAnswers(expected, *got,
                      StringPrintf("steps=%llu visited=%zu",
                                   (unsigned long long)steps,
                                   stats.visited_candidates));
  }
}

TEST_F(ServiceTest, CancelBeforeExecuteIsDeterministic) {
  Session session(db_, SessionOptions{1, 50});
  auto pq = session.Prepare(Approach::kStaccato, SerialScanQuery());
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  QueryControl control(ExecBudget{});
  control.Cancel();
  QueryStats stats;
  auto got = pq->Execute(&control, &stats);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsDeadlineExceeded()) << got.status().ToString();
  EXPECT_NE(got.status().ToString().find("cancelled"), std::string::npos);
  EXPECT_EQ(stats.visited_candidates, 0u);
}

// Raced under the TSan CI job: Cancel from another thread while the
// executor polls. Either outcome (completed or cancelled) is legal; the
// point is that the race is clean.
TEST_F(ServiceTest, ConcurrentCancelRacesCleanly) {
  Session session(db_, SessionOptions{4, 50});
  QueryOptions q = SerialScanQuery();
  q.eval_threads = 4;
  auto pq = session.Prepare(Approach::kStaccato, q);
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  for (int round = 0; round < 4; ++round) {
    QueryControl control(ExecBudget{});
    std::thread canceller([&control] { control.Cancel(); });
    auto got = pq->Execute(&control, nullptr);
    canceller.join();
    if (!got.ok()) {
      EXPECT_TRUE(got.status().IsDeadlineExceeded()) << got.status().ToString();
    }
  }
}

// A generous budget must never change answers: 1/4/8 eval threads,
// sharded and unsharded, bit-identical to the no-control run.
TEST_F(ServiceTest, GenerousBudgetIsAnswerNeutralAcrossThreadsAndShards) {
  ExecBudget budget;
  budget.deadline_ms = 60000.0;
  budget.max_dp_steps = 1ull << 40;
  budget.max_fetch_bytes = 1ull << 40;
  budget.allow_partial = true;

  auto sdb = ShardedDb::Open(eval::MakeScratchDir("service_matrix"),
                             ShardConfig{3, cache::CacheConfig()});
  ASSERT_TRUE(sdb.ok()) << sdb.status().ToString();
  ASSERT_TRUE((*sdb)->Load(*dataset_, SmallLoad()).ok());

  for (size_t threads : {1u, 4u, 8u}) {
    QueryOptions q;
    q.pattern = Pattern();
    q.num_ans = 50;
    q.eval_threads = threads;

    Session solo(db_, SessionOptions{threads, 50});
    auto solo_pq = solo.Prepare(Approach::kStaccato, q);
    ASSERT_TRUE(solo_pq.ok()) << solo_pq.status().ToString();
    auto want = solo_pq->Execute(nullptr);
    ASSERT_TRUE(want.ok()) << want.status().ToString();

    QueryControl c1(budget);
    QueryStats s1;
    auto got = solo_pq->Execute(&c1, &s1);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameAnswers(*want, *got,
                      StringPrintf("solo threads=%zu", threads));
    EXPECT_FALSE(s1.degraded);

    Session sharded(sdb->get(), SessionOptions{threads, 50});
    auto shard_pq = sharded.Prepare(Approach::kStaccato, q);
    ASSERT_TRUE(shard_pq.ok()) << shard_pq.status().ToString();
    QueryControl c2(budget);
    QueryStats s2;
    auto sharded_got = shard_pq->Execute(&c2, &s2);
    ASSERT_TRUE(sharded_got.ok()) << sharded_got.status().ToString();
    ExpectSameAnswers(*want, *sharded_got,
                      StringPrintf("sharded threads=%zu", threads));
    EXPECT_FALSE(s2.degraded);
    EXPECT_EQ(s2.shards.size(), 3u);
  }
}

// ---- Transient-I/O retry --------------------------------------------------

TEST_F(ServiceTest, RetryAbsorbsTransientBlobReadFailures) {
  Session session(db_, SessionOptions{1, 50});
  auto pq = session.Prepare(Approach::kStaccato, SerialScanQuery());
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  // Two one-shot read glitches on the blob file; the retry budget (3)
  // covers both and the query completes with correct answers.
  util::FaultInjector::Global()->Install(
      {util::FaultOp::kRead, "blobs.", 0, 0, false});
  util::FaultInjector::Global()->Install(
      {util::FaultOp::kRead, "blobs.", 0, 0, false});
  QueryControl control(ExecBudget{});
  QueryStats stats;
  auto got = pq->Execute(&control, &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(stats.io_retries, 2u);
  EXPECT_FALSE(stats.degraded);

  util::FaultInjector::Global()->Clear();
  auto clean = pq->Execute(nullptr);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ExpectSameAnswers(*clean, *got, "answers after absorbed retries");
}

TEST_F(ServiceTest, RetryExhaustionSurfacesUnderlyingError) {
  Session session(db_, SessionOptions{1, 50});
  auto pq = session.Prepare(Approach::kStaccato, SerialScanQuery());
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  // A dead disk: every blob read fails. The retry budget runs dry and
  // the *underlying* I/O error comes back, not DeadlineExceeded.
  util::FaultInjector::Global()->Install(
      {util::FaultOp::kRead, "blobs.", 0, 0, true});
  ExecBudget budget;
  budget.max_io_retries = 2;
  QueryControl control(budget);
  QueryStats stats;
  auto got = pq->Execute(&control, &stats);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsIOError()) << got.status().ToString();
  EXPECT_EQ(stats.io_retries, 2u);
}

TEST_F(ServiceTest, NoControlMeansNoRetries) {
  Session session(db_, SessionOptions{1, 50});
  auto pq = session.Prepare(Approach::kStaccato, SerialScanQuery());
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  util::FaultInjector::Global()->Install(
      {util::FaultOp::kRead, "blobs.", 0, 0, false});
  auto got = pq->Execute(nullptr);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsIOError()) << got.status().ToString();
}

// ---- Sharded gather surfaces the first failing shard (satellite) ----------

TEST_F(ServiceTest, ShardedExecuteSurfacesFirstFailingShardStatus) {
  const std::string dir = eval::MakeScratchDir("service_shard_fault");
  cache::CacheConfig no_cache;
  no_cache.budget_bytes = 0;
  auto sdb = ShardedDb::Open(dir, ShardConfig{3, no_cache});
  ASSERT_TRUE(sdb.ok()) << sdb.status().ToString();
  ASSERT_TRUE((*sdb)->Load(*dataset_, SmallLoad()).ok());
  Session session(sdb->get(), SessionOptions{2, 50});
  auto pq = session.Prepare(Approach::kStaccato, SerialScanQuery());
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();

  // Kill reads in shards 2 and 1 (sticky). The gather must surface the
  // *first* failing shard in shard order — shard 1 — deterministically,
  // run after run, even though both fail and shard 2's eval may finish
  // first.
  const std::string shard1 = ShardDirName(dir, 1);
  const std::string shard2 = ShardDirName(dir, 2);
  util::FaultInjector::Global()->Install(
      {util::FaultOp::kRead, shard2, 0, 0, true});
  util::FaultInjector::Global()->Install(
      {util::FaultOp::kRead, shard1, 0, 0, true});
  for (int round = 0; round < 3; ++round) {
    auto got = pq->Execute(nullptr);
    ASSERT_FALSE(got.ok());
    EXPECT_TRUE(got.status().IsIOError()) << got.status().ToString();
    EXPECT_NE(got.status().ToString().find(shard1), std::string::npos)
        << "round " << round << ": " << got.status().ToString();
    EXPECT_EQ(got.status().ToString().find(shard2), std::string::npos)
        << "round " << round << ": " << got.status().ToString();
  }
}

// ---- Admission control ----------------------------------------------------

TEST_F(ServiceTest, RetryAfterHintParses) {
  EXPECT_EQ(RetryAfterHintMs(
                Status::Unavailable("queue full; retry-after-ms=42")),
            42u);
  EXPECT_EQ(RetryAfterHintMs(Status::Unavailable("no hint here")), 0u);
  EXPECT_EQ(RetryAfterHintMs(Status::OK()), 0u);
}

TEST_F(ServiceTest, AdmissionQueueTimesOutAndSheds) {
  Session session(db_, SessionOptions{1, 50});
  ServiceConfig config;
  config.max_concurrent = 1;
  config.max_queued = 1;
  config.queue_timeout_ms = 40.0;
  QueryService svc(&session, config);

  // Occupy the only slot.
  ASSERT_TRUE(svc.Admit().ok());
  EXPECT_EQ(svc.active(), 1u);

  // Second admit queues, waits out the 40ms budget, and times out with a
  // retry-after hint.
  Status timed_out = svc.Admit();
  ASSERT_FALSE(timed_out.ok());
  EXPECT_TRUE(timed_out.IsUnavailable()) << timed_out.ToString();
  EXPECT_GE(RetryAfterHintMs(timed_out), 1u);
  EXPECT_EQ(svc.stats().timed_out.load(), 1u);

  // A waiter holds the single queue slot; the next arrival sheds
  // immediately (no 40ms wait) because the queue is full.
  std::atomic<bool> waiter_started{false};
  std::thread waiter([&] {
    waiter_started.store(true);
    Status st = svc.Admit();  // queues behind the active slot
    if (st.ok()) svc.Release();
  });
  while (!waiter_started.load()) std::this_thread::yield();
  // Give the waiter time to reach the wait loop, then overflow the queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  Status shed = svc.Admit();
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.IsUnavailable()) << shed.ToString();
  EXPECT_GE(RetryAfterHintMs(shed), 1u);

  svc.Release();  // frees the slot; the waiter admits or times out
  waiter.join();
  EXPECT_EQ(svc.active(), 0u);
  EXPECT_GE(svc.stats().shed.load() + svc.stats().timed_out.load(), 2u);
}

TEST_F(ServiceTest, ServiceExecutesAndCountsOutcomes) {
  Session session(db_, SessionOptions{2, 50});
  auto pq = session.Prepare(Approach::kStaccato, SerialScanQuery());
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  auto want = pq->Execute(nullptr);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  QueryService svc(&session);
  QueryStats stats;
  auto got = svc.Execute(&*pq, &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSameAnswers(*want, *got, "service execute");
  EXPECT_EQ(svc.stats().admitted.load(), 1u);
  EXPECT_EQ(svc.stats().completed.load(), 1u);

  // A born-expired budget through the service: DeadlineExceeded, counted.
  ExecBudget expired;
  expired.deadline_ms = -1.0;
  auto dead = svc.Execute(&*pq, expired, nullptr);
  ASSERT_FALSE(dead.ok());
  EXPECT_TRUE(dead.status().IsDeadlineExceeded());
  EXPECT_EQ(svc.stats().deadline_exceeded.load(), 1u);

  // Same budget with allow_partial: OK, degraded, counted.
  expired.allow_partial = true;
  QueryStats dstats;
  auto degraded = svc.Execute(&*pq, expired, &dstats);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(dstats.degraded);
  EXPECT_EQ(svc.stats().degraded.load(), 1u);
}

// ---- Bounded ThreadPool queue (satellite) ---------------------------------

TEST(ThreadPoolQueueTest, TryEnqueueRejectsWhenFull) {
  ThreadPool pool(1, 2);
  EXPECT_EQ(pool.max_queued(), 2u);

  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  // Park the single worker so queued tasks pile up behind it.
  ASSERT_TRUE(pool.TryEnqueue([&] {
    while (!release.load()) std::this_thread::yield();
    ++ran;
  }));
  // Wait until the worker has claimed the blocker off the queue.
  while (pool.queue_depth() != 0) std::this_thread::yield();

  EXPECT_TRUE(pool.TryEnqueue([&] { ++ran; }));
  EXPECT_TRUE(pool.TryEnqueue([&] { ++ran; }));
  EXPECT_EQ(pool.queue_depth(), 2u);
  // Queue full: rejected without running anything.
  EXPECT_FALSE(pool.TryEnqueue([&] { ++ran; }));
  EXPECT_EQ(pool.saturation_rejects(), 1u);
  EXPECT_EQ(ran.load(), 0);

  release.store(true);
  // The worker finishes the blocker and drains the two queued tasks:
  // every accepted task runs exactly once, nothing is dropped.
  while (ran.load() < 3) std::this_thread::yield();
  EXPECT_EQ(ran.load(), 3);
}

// ---- Probabilistic fault soak (opt-in: STACCATO_FAULT_SOAK=1) -------------

TEST_F(ServiceTest, FaultSoakKeepsInvariantsUnderFlakyReads) {
  const char* soak = std::getenv("STACCATO_FAULT_SOAK");
  if (soak == nullptr || std::string(soak) != "1") {
    GTEST_SKIP() << "set STACCATO_FAULT_SOAK=1 to run the fault soak";
  }
  Session session(db_, SessionOptions{4, 50});
  QueryOptions q = SerialScanQuery();
  q.eval_threads = 4;
  auto pq = session.Prepare(Approach::kStaccato, q);
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  auto want = pq->Execute(nullptr);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  util::FaultInjector::Global()->Seed(20260808);
  util::FaultRule flaky;
  flaky.op = util::FaultOp::kRead;
  flaky.path_substr = "blobs.";
  flaky.probability = 0.05;
  util::FaultInjector::Global()->Install(flaky);

  int completed = 0, failed = 0;
  for (int i = 0; i < 50; ++i) {
    ExecBudget budget;
    budget.max_io_retries = 3;
    QueryControl control(budget);
    QueryStats stats;
    auto got = pq->Execute(&control, &stats);
    if (got.ok()) {
      // Whatever retries it took, a completed query is bit-identical.
      ExpectSameAnswers(*want, *got, StringPrintf("soak round %d", i));
      ++completed;
    } else {
      // Retry budget exhausted: the underlying error, never a hang or a
      // torn answer.
      EXPECT_TRUE(got.status().IsIOError()) << got.status().ToString();
      ++failed;
    }
  }
  // With p=0.05 and 3 retries most queries complete; all 50 failing
  // would mean retries are not working at all.
  EXPECT_GT(completed, 0) << "completed=" << completed
                          << " failed=" << failed;
}

}  // namespace
}  // namespace rdbms
}  // namespace staccato
