// Differential property tests for corpus sharding (rdbms/shard.h).
//
// The invariant under test: a ShardedDb answers every query bit-identically
// to the single-partition StaccatoDb holding the same dataset — the same
// ranked documents with exactly equal probabilities — for every shard
// count (1/2/4/7), eval thread count (1/4/8), and early-stop setting, with
// the global top-k threshold forwarded across shards, including
// Append/Checkpoint interleavings and reopen with per-shard WAL replay.
// A plain StaccatoDb session runs the same scatter-gather as a 1-shard
// ShardedDb, and sharded sessions share the session-wide plan cache.
// Concurrent Executes race against Append under the TSan CI job.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "eval/workbench.h"
#include "ocr/corpus.h"
#include "telemetry/trace.h"
#include "ocr/generator.h"
#include "rdbms/session.h"
#include "rdbms/shard.h"
#include "rdbms/staccato_db.h"
#include "rdbms/wal.h"
#include "util/fault_fs.h"
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

/// Mirrors what Load() derives for document i (see ingest_test.cc).
DocumentInput InputFor(const OcrDataset& d, size_t i) {
  DocumentInput in;
  const uint32_t page = d.corpus.page_of_line[i];
  in.doc_name = StringPrintf("%s-page-%u", d.corpus.name.c_str(), page);
  in.year = 2010 + page;
  in.truth = d.corpus.lines[i];
  in.sfa = d.sfas[i];
  return in;
}

OcrDataset Prefix(const OcrDataset& d, size_t n) {
  OcrDataset p;
  p.corpus.name = d.corpus.name;
  p.corpus.num_pages = d.corpus.num_pages;
  p.corpus.lines.assign(d.corpus.lines.begin(), d.corpus.lines.begin() + n);
  p.corpus.page_of_line.assign(d.corpus.page_of_line.begin(),
                               d.corpus.page_of_line.begin() + n);
  p.sfas.assign(d.sfas.begin(), d.sfas.begin() + n);
  return p;
}

template <typename Db>
std::vector<Answer> RunQuery(Db* db, Approach approach,
                             const std::string& pattern, size_t threads,
                             bool early_stop, QueryStats* stats = nullptr) {
  Session session(db, SessionOptions{threads, 50});
  QueryOptions q;
  q.pattern = pattern;
  q.num_ans = 50;
  q.eval_threads = threads;
  q.early_stop = early_stop;
  auto pq = session.Prepare(approach, q);
  EXPECT_TRUE(pq.ok()) << pq.status().ToString();
  if (!pq.ok()) return {};
  auto ans = pq->Execute(stats);
  EXPECT_TRUE(ans.ok()) << ans.status().ToString();
  return ans.ok() ? *ans : std::vector<Answer>{};
}

void ExpectSameAnswers(const std::vector<Answer>& want,
                       const std::vector<Answer>& got, const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].doc, got[i].doc) << what << " rank " << i;
    EXPECT_EQ(want[i].prob, got[i].prob)
        << what << " rank " << i << " (must be bit-identical)";
  }
}

/// A cold run: `sql` prepared in a fresh Session after the data it runs
/// over is final.
std::vector<Answer> ColdSqlAnswers(ShardedDb* db, const std::string& sql,
                                   QueryStats* stats) {
  Session fresh(db, SessionOptions{2, 50});
  auto pq = fresh.PrepareSql(Approach::kStaccato, sql);
  EXPECT_TRUE(pq.ok()) << pq.status().ToString();
  if (!pq.ok()) return {};
  auto ans = pq->Execute(stats);
  EXPECT_TRUE(ans.ok()) << ans.status().ToString();
  return ans.ok() ? *ans : std::vector<Answer>{};
}

/// A Year-filtered LIKE whose plan probes the index on some shard and that
/// has answers, so both memoized artifacts exist; empty when none does.
std::string IndexedYearFilteredSql(ShardedDb* db) {
  for (const std::string& pat : DatasetQueries(DatasetKind::kCongressActs)) {
    for (int year : {2010, 2011}) {
      const std::string candidate = StringPrintf(
          "SELECT DocID FROM Acts WHERE Year = %d AND DocData LIKE '%%%s%%' "
          "LIMIT 10;",
          year, pat.c_str());
      QueryStats probe;
      if (!ColdSqlAnswers(db, candidate, &probe).empty() && probe.used_index) {
        return candidate;
      }
    }
  }
  return "";
}

/// Shared corpus + single-partition oracle, built once for the suite.
class ShardTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto data = GenerateOcrDataset(SmallSpec(), Noise());
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    dataset_ = new OcrDataset(std::move(*data));
    auto oracle = StaccatoDb::Open(eval::MakeScratchDir("shard_oracle"));
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    oracle_ = oracle->release();
    ASSERT_TRUE(oracle_->Load(*dataset_, SmallLoad()).ok());
    ASSERT_TRUE(
        oracle_->BuildInvertedIndex(DatasetQueries(DatasetKind::kCongressActs))
            .ok());
  }
  static void TearDownTestSuite() {
    delete oracle_;
    oracle_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }

  static std::vector<std::string> Patterns() {
    std::vector<std::string> qs = DatasetQueries(DatasetKind::kCongressActs);
    return {qs[0], qs[1]};
  }

  static OcrDataset* dataset_;
  static StaccatoDb* oracle_;
};

OcrDataset* ShardTest::dataset_ = nullptr;
StaccatoDb* ShardTest::oracle_ = nullptr;

TEST_F(ShardTest, ShardDirAndPartitionAreStable) {
  EXPECT_EQ(ShardDirName("/tmp/db", 3), "/tmp/db/shard.3");
  // Round-robin: global g is shard g % n's local document g / n, and
  // GlobalDocId is its inverse.
  for (size_t n : {1u, 2u, 4u, 7u}) {
    for (DocId g = 0; g < 100; ++g) {
      const size_t s = ShardOfDoc(g, n);
      EXPECT_EQ(s, g % n);
      EXPECT_EQ(GlobalDocId(s, g / n, n), g) << "n=" << n;
    }
  }
  // A 2-shard Load splits every page's documents (one Year each) between
  // the shards to within one document.
  auto db = ShardedDb::Open(eval::MakeScratchDir("shard_split"),
                            ShardConfig{2, cache::CacheConfig()});
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Load(*dataset_, SmallLoad()).ok());
  Session session(db->get(), SessionOptions{1, 50});
  for (uint32_t page = 0; page < dataset_->corpus.num_pages; ++page) {
    QueryOptions q;
    q.pattern = Patterns()[0];
    q.equalities = {{"Year", std::to_string(2010 + page)}};
    auto pq = session.Prepare(Approach::kKMap, q);
    ASSERT_TRUE(pq.ok()) << pq.status().ToString();
    QueryStats stats;
    ASSERT_TRUE(pq->Execute(&stats).ok());
    ASSERT_EQ(stats.shards.size(), 2u);
    const size_t a = stats.shards[0].candidates;
    const size_t b = stats.shards[1].candidates;
    EXPECT_GT(a + b, 0u) << "page " << page;
    EXPECT_LE(a > b ? a - b : b - a, 1u) << "page " << page;
  }
}

TEST_F(ShardTest, ZeroShardsOpensOne) {
  auto db = ShardedDb::Open(eval::MakeScratchDir("shard_zero"),
                            ShardConfig{0, cache::CacheConfig()});
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->num_shards(), 1u);
}

TEST_F(ShardTest, AnswersBitIdenticalAcrossShardThreadEarlyStopMatrix) {
  const auto patterns = Patterns();
  for (size_t shards : {1u, 2u, 4u, 7u}) {
    auto db = ShardedDb::Open(
        eval::MakeScratchDir(StringPrintf("shard_inv_%zu", shards)),
        ShardConfig{shards, cache::CacheConfig()});
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_EQ((*db)->num_shards(), shards);
    ASSERT_TRUE((*db)->Load(*dataset_, SmallLoad()).ok());
    ASSERT_TRUE((*db)
                    ->BuildInvertedIndex(
                        DatasetQueries(DatasetKind::kCongressActs))
                    .ok());
    ASSERT_EQ((*db)->NumSfas(), oracle_->NumSfas());
    for (Approach approach :
         {Approach::kMap, Approach::kKMap, Approach::kStaccato}) {
      for (size_t threads : {1u, 4u, 8u}) {
        for (bool early_stop : {true, false}) {
          for (const std::string& pat : patterns) {
            auto want = RunQuery(oracle_, approach, pat, threads, early_stop);
            auto got = RunQuery(db->get(), approach, pat, threads, early_stop);
            ExpectSameAnswers(
                want, got,
                StringPrintf("%s shards=%zu threads=%zu early=%d",
                             pat.c_str(), shards, threads, early_stop ? 1 : 0));
          }
        }
      }
    }
    // Ground truth remaps to the same global ids.
    auto truth_want = oracle_->GroundTruthFor(patterns[0]);
    auto truth_got = (*db)->GroundTruthFor(patterns[0]);
    ASSERT_TRUE(truth_want.ok());
    ASSERT_TRUE(truth_got.ok()) << truth_got.status().ToString();
    EXPECT_EQ(*truth_want, *truth_got);
  }
}

// Every shard's Eval prunes against the one forwarded global threshold;
// the answers still equal the 1-shard oracle's, whose single shard
// prunes against its own.
TEST_F(ShardTest, ThresholdForwardingIsAnswerNeutral) {
  auto db = ShardedDb::Open(eval::MakeScratchDir("shard_fwd"),
                            ShardConfig{4, cache::CacheConfig()});
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Load(*dataset_, SmallLoad()).ok());
  ASSERT_TRUE((*db)
                  ->BuildInvertedIndex(
                      DatasetQueries(DatasetKind::kCongressActs))
                  .ok());
  for (const std::string& pat : Patterns()) {
    QueryStats fwd_stats;
    auto fwd = RunQuery(db->get(), Approach::kStaccato, pat, 4, true,
                        &fwd_stats);
    auto solo = RunQuery(oracle_, Approach::kStaccato, pat, 4, true);
    ExpectSameAnswers(solo, fwd, "4 forwarded shards vs 1 shard: " + pat);
    // Per-shard breakdown reaches the stats and the Explain rendering.
    ASSERT_EQ(fwd_stats.shards.size(), 4u);
    Session session(db->get(), SessionOptions{1, 50});
    QueryOptions q;
    q.pattern = pat;
    auto pq = session.Prepare(Approach::kStaccato, q);
    ASSERT_TRUE(pq.ok());
    std::string rendered = ExplainPlan(pq->plan(), fwd_stats);
    EXPECT_NE(rendered.find("Shards: 4"), std::string::npos) << rendered;
    EXPECT_NE(rendered.find("shard 3:"), std::string::npos) << rendered;
  }
}

TEST_F(ShardTest, AppendCheckpointInterleavingsMatchBulkLoad) {
  const size_t total = dataset_->sfas.size();
  const size_t base = total / 2;
  auto db = ShardedDb::Open(eval::MakeScratchDir("shard_ingest"),
                            ShardConfig{4, cache::CacheConfig()});
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Load(Prefix(*dataset_, base), SmallLoad()).ok());
  for (size_t i = base; i < total; ++i) {
    ASSERT_TRUE((*db)->Append(InputFor(*dataset_, i)).ok()) << i;
    if (i == base + (total - base) / 2) {
      ASSERT_TRUE((*db)->Checkpoint().ok());
    }
  }
  ASSERT_EQ((*db)->NumSfas(), oracle_->NumSfas());
  for (const std::string& pat : Patterns()) {
    auto want = RunQuery(oracle_, Approach::kStaccato, pat, 4, true);
    auto got = RunQuery(db->get(), Approach::kStaccato, pat, 4, true);
    ExpectSameAnswers(want, got, "append+checkpoint: " + pat);
  }
  auto truth_want = oracle_->GroundTruthFor(Patterns()[0]);
  auto truth_got = (*db)->GroundTruthFor(Patterns()[0]);
  ASSERT_TRUE(truth_want.ok());
  ASSERT_TRUE(truth_got.ok());
  EXPECT_EQ(*truth_want, *truth_got);
}

// One shard written in the retired SFA1 blob format fails the whole
// reopen with that shard's Corruption.
TEST_F(ShardTest, ReopenRejectsRetiredSfaFormatShard) {
  const std::string dir = eval::MakeScratchDir("shard_meta_format");
  {
    auto db = ShardedDb::Open(dir, ShardConfig{2, cache::CacheConfig()});
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->Load(*dataset_, SmallLoad()).ok());
  }
  FILE* f = fopen((ShardDirName(dir, 1) + "/staccato.meta").c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(fwrite("STACMET1", 1, 8, f), 8u);  // the retired meta magic
  ASSERT_EQ(fclose(f), 0);
  auto db = ShardedDb::OpenExisting(dir);
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsCorruption()) << db.status().ToString();
  EXPECT_NE(db.status().message().find("SFA1"), std::string::npos)
      << db.status().ToString();
}

// A directory whose shard-count file carries the retired hash-placement
// magic holds other documents on each shard than round-robin names: the
// reopen refuses it and says to reload.
TEST_F(ShardTest, ReopenRefusesHashPlacedDirectory) {
  const std::string dir = eval::MakeScratchDir("shard_hash_placed");
  {
    auto db = ShardedDb::Open(dir, ShardConfig{2, cache::CacheConfig()});
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->Load(*dataset_, SmallLoad()).ok());
  }
  FILE* f = fopen((dir + "/shards.meta").c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const std::string retired = "STACSHRD 2\n";
  ASSERT_EQ(fwrite(retired.data(), 1, retired.size(), f), retired.size());
  ASSERT_EQ(fclose(f), 0);
  auto db = ShardedDb::OpenExisting(dir);
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsCorruption()) << db.status().ToString();
  EXPECT_NE(db.status().message().find("reload"), std::string::npos)
      << db.status().ToString();
}

// An Append whose owning shard fails its WAL write changes nothing: the
// document count and the answers stay put, and the retried Append takes
// the same global id, so the grown database still matches the oracle.
TEST_F(ShardTest, FailedAppendLeavesIdsAndAnswersUnchanged) {
  const std::string dir = eval::MakeScratchDir("shard_failed_append");
  const size_t total = dataset_->sfas.size();
  const size_t base = total - 2;
  auto db = ShardedDb::Open(dir, ShardConfig{4, cache::CacheConfig()});
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Load(Prefix(*dataset_, base), SmallLoad()).ok());
  const std::string pat = Patterns()[0];
  const auto before = RunQuery(db->get(), Approach::kStaccato, pat, 2, true);

  const size_t owner = ShardOfDoc(base, 4);
  const size_t owner_docs = (*db)->shard(owner)->NumSfas();
  util::FaultInjector::Global()->Install(
      {util::FaultOp::kWrite, WalPath(ShardDirName(dir, owner)), 0, 0, false});
  EXPECT_FALSE((*db)->Append(InputFor(*dataset_, base)).ok());
  util::FaultInjector::Global()->Clear();
  EXPECT_EQ((*db)->NumSfas(), base);
  EXPECT_EQ((*db)->shard(owner)->NumSfas(), owner_docs);
  ExpectSameAnswers(before,
                    RunQuery(db->get(), Approach::kStaccato, pat, 2, true),
                    "after the failed append");

  ASSERT_TRUE((*db)->Append(InputFor(*dataset_, base)).ok());
  EXPECT_EQ((*db)->shard(owner)->NumSfas(), owner_docs + 1)
      << "the retry must land on the same shard";
  ASSERT_TRUE((*db)->Append(InputFor(*dataset_, base + 1)).ok());
  ASSERT_EQ((*db)->NumSfas(), oracle_->NumSfas());
  ExpectSameAnswers(RunQuery(oracle_, Approach::kStaccato, pat, 2, true),
                    RunQuery(db->get(), Approach::kStaccato, pat, 2, true),
                    "after the retried append");
  auto truth_want = oracle_->GroundTruthFor(pat);
  auto truth_got = (*db)->GroundTruthFor(pat);
  ASSERT_TRUE(truth_want.ok());
  ASSERT_TRUE(truth_got.ok()) << truth_got.status().ToString();
  EXPECT_EQ(*truth_want, *truth_got);
}

TEST_F(ShardTest, ReopenReplaysEveryShardWal) {
  const std::string dir = eval::MakeScratchDir("shard_reopen");
  const size_t total = dataset_->sfas.size();
  const size_t base = total - 5;
  {
    auto db = ShardedDb::Open(dir, ShardConfig{3, cache::CacheConfig()});
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->Load(Prefix(*dataset_, base), SmallLoad()).ok());
    // Uncheckpointed appends: recovery must come from each shard's WAL.
    for (size_t i = base; i < total; ++i) {
      ASSERT_TRUE((*db)->Append(InputFor(*dataset_, i)).ok());
    }
  }  // destructor: no checkpoint, WALs hold the tail
  // Reopening with the wrong shard count must refuse.
  auto wrong = ShardedDb::OpenExisting(dir, ShardConfig{5});
  EXPECT_FALSE(wrong.ok());
  auto db = ShardedDb::OpenExisting(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->num_shards(), 3u);
  ASSERT_EQ((*db)->NumSfas(), oracle_->NumSfas());
  for (const std::string& pat : Patterns()) {
    auto want = RunQuery(oracle_, Approach::kKMap, pat, 4, true);
    auto got = RunQuery(db->get(), Approach::kKMap, pat, 4, true);
    ExpectSameAnswers(want, got, "reopen-replay: " + pat);
  }
}

// The top-level I/O and cache counters are exactly the sums of the
// per-shard rows: FoldShardStats carries every shard's full counter set.
TEST_F(ShardTest, FoldPreservesPerShardCounters) {
  auto db = ShardedDb::Open(eval::MakeScratchDir("shard_fold"),
                            ShardConfig{4, cache::CacheConfig()});
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Load(*dataset_, SmallLoad()).ok());
  // Blob reads (Staccato) and heap page reads (the k-MAP scan), cold.
  for (Approach approach : {Approach::kStaccato, Approach::kKMap}) {
    ASSERT_TRUE((*db)->DropCaches().ok());
    QueryStats stats;
    (void)RunQuery(db->get(), approach, Patterns()[0], 2, true, &stats);
    ASSERT_EQ(stats.shards.size(), 4u);
    uint64_t blob = 0, pages = 0, hits = 0, misses = 0;
    for (size_t s = 0; s < 4; ++s) {
      const ShardStats& row = stats.shards[s];
      EXPECT_EQ(row.shard, s);
      blob += row.blob_bytes_read;
      pages += row.heap_pages_read;
      hits += row.cache_hits;
      misses += row.cache_misses;
    }
    EXPECT_GT(blob + pages, 0u) << "cold run did no physical reads";
    EXPECT_EQ(stats.blob_bytes_read, blob);
    EXPECT_EQ(stats.heap_pages_read, pages);
    EXPECT_EQ(stats.cache_hits, hits);
    EXPECT_EQ(stats.cache_misses, misses);
  }
}

/// The ids of the spans named `name`, in recording order.
std::vector<uint64_t> SpanIds(const telemetry::QueryTrace& trace,
                              const std::string& name) {
  std::vector<uint64_t> ids;
  for (const telemetry::TraceSpan& span : trace.spans()) {
    if (span.name == name) ids.push_back(span.id);
  }
  return ids;
}

// One executor: a Session over a plain StaccatoDb runs the same
// scatter-gather as one over a 1-shard ShardedDb — identical answers, one
// "Shards:" row, and the Scatter > shard-0 span nesting plus a Gather span.
TEST_F(ShardTest, PlainDatabaseRunsAsOneShardScatterGather) {
  auto db = ShardedDb::Open(eval::MakeScratchDir("shard_one"),
                            ShardConfig{1, cache::CacheConfig()});
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Load(*dataset_, SmallLoad()).ok());
  ASSERT_TRUE((*db)
                  ->BuildInvertedIndex(
                      DatasetQueries(DatasetKind::kCongressActs))
                  .ok());
  Session plain(oracle_, SessionOptions{2, 50});
  Session one(db->get(), SessionOptions{2, 50});
  plain.set_tracing(true);
  one.set_tracing(true);
  for (Approach approach : {Approach::kKMap, Approach::kStaccato}) {
    for (const std::string& pat : Patterns()) {
      const std::string what =
          StringPrintf("%s %s", ApproachName(approach), pat.c_str());
      QueryOptions q;
      q.pattern = pat;
      q.num_ans = 50;
      q.equalities = {{"Year", "2010"}};
      auto plain_pq = plain.Prepare(approach, q);
      auto one_pq = one.Prepare(approach, q);
      ASSERT_TRUE(plain_pq.ok()) << plain_pq.status().ToString();
      ASSERT_TRUE(one_pq.ok()) << one_pq.status().ToString();
      EXPECT_EQ(plain_pq->plan().source, one_pq->plan().source) << what;
      QueryStats plain_stats, one_stats;
      auto plain_ans = plain_pq->Execute(&plain_stats);
      auto one_ans = one_pq->Execute(&one_stats);
      ASSERT_TRUE(plain_ans.ok()) << plain_ans.status().ToString();
      ASSERT_TRUE(one_ans.ok()) << one_ans.status().ToString();
      ExpectSameAnswers(*plain_ans, *one_ans, what);

      for (const QueryStats* st : {&plain_stats, &one_stats}) {
        ASSERT_EQ(st->shards.size(), 1u) << what;
        EXPECT_EQ(st->shards[0].shard, 0u) << what;
        EXPECT_EQ(st->shards[0].candidates, st->candidates) << what;
        const std::string explained = ExplainPlan(plain_pq->plan(), *st);
        EXPECT_NE(explained.find("Shards: 1\n    shard 0:"),
                  std::string::npos)
            << explained;
        ASSERT_NE(st->trace, nullptr) << what;
        const telemetry::QueryTrace& trace = *st->trace;
        const std::vector<uint64_t> scatter = SpanIds(trace, "Scatter");
        const std::vector<uint64_t> shard0 = SpanIds(trace, "shard-0");
        ASSERT_EQ(scatter.size(), 1u) << what;
        ASSERT_EQ(shard0.size(), 1u) << what;
        EXPECT_EQ(SpanIds(trace, "Gather").size(), 1u) << what;
        for (const telemetry::TraceSpan& span : trace.spans()) {
          if (span.name == "shard-0") {
            EXPECT_EQ(span.parent, scatter[0]) << what;
          } else if (span.name == "TopK") {
            EXPECT_EQ(span.parent, shard0[0]) << what;
          }
        }
      }
      EXPECT_EQ(plain_stats.candidates, one_stats.candidates) << what;
      EXPECT_EQ(plain_stats.index_postings, one_stats.index_postings) << what;
      EXPECT_EQ(plain_stats.used_index, one_stats.used_index) << what;
      EXPECT_EQ(plain_stats.plan_summary, one_stats.plan_summary) << what;
      EXPECT_EQ(plain_stats.est_candidates, one_stats.est_candidates) << what;
      EXPECT_EQ(plain_stats.selectivity, one_stats.selectivity) << what;
      std::vector<std::string> plain_names, one_names;
      for (const auto& span : plain_stats.trace->spans()) {
        plain_names.push_back(span.name);
      }
      for (const auto& span : one_stats.trace->spans()) {
        one_names.push_back(span.name);
      }
      EXPECT_EQ(plain_names, one_names) << what;
    }
  }
}

// Sharded sessions reach the session-wide plan cache: a sibling
// PreparedQuery with the same SQL adopts every shard's CandidateGen and
// Filter artifacts on its first Execute, the session counts one shared hit
// per Execute (not per shard), and answers stay bit-identical to a cold
// run — also after an Append moves one shard's generation.
TEST_F(ShardTest, ShardedSiblingsAdoptTheSharedPlanCache) {
  const size_t total = dataset_->sfas.size();
  auto db = ShardedDb::Open(eval::MakeScratchDir("shard_shared_plan"),
                            ShardConfig{2, cache::CacheConfig()});
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Load(Prefix(*dataset_, total - 1), SmallLoad()).ok());
  ASSERT_TRUE((*db)
                  ->BuildInvertedIndex(
                      DatasetQueries(DatasetKind::kCongressActs))
                  .ok());
  const std::string sql = IndexedYearFilteredSql(db->get());
  ASSERT_FALSE(sql.empty()) << "no indexed Year-filtered query has answers";

  Session session(db->get(), SessionOptions{2, 50});
  auto first = session.PrepareSql(Approach::kStaccato, sql);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  QueryStats warming;
  auto warmed = first->Execute(&warming);
  ASSERT_TRUE(warmed.ok()) << warmed.status().ToString();
  ASSERT_TRUE(warming.used_index) << "no shard probes the index";
  EXPECT_FALSE(warming.shared_plan_hit);
  EXPECT_EQ(session.shared_plan_hits(), 0u);
  ExpectSameAnswers(ColdSqlAnswers(db->get(), sql, nullptr), *warmed, "first execute");

  auto sibling = session.PrepareSql(Approach::kStaccato, sql);
  ASSERT_TRUE(sibling.ok()) << sibling.status().ToString();
  QueryStats adopted;
  auto sib_ans = sibling->Execute(&adopted);
  ASSERT_TRUE(sib_ans.ok()) << sib_ans.status().ToString();
  EXPECT_TRUE(adopted.shared_plan_hit);
  EXPECT_TRUE(adopted.filter_from_cache);
  EXPECT_TRUE(adopted.candidates_from_cache);
  EXPECT_EQ(session.shared_plan_hits(), 1u) << "one hit per Execute";
  ExpectSameAnswers(*warmed, *sib_ans, "adopting sibling");

  // Append to one shard: its entries go stale, the other shard's stay
  // current. A new sibling adopts only what is still valid and answers
  // like a cold query over the grown database. The appended copy of the
  // best answer ties it and so ranks second, so stale artifacts on the
  // appended shard would show.
  ASSERT_FALSE(warmed->empty());
  ASSERT_TRUE((*db)->Append(InputFor(*dataset_, (*warmed)[0].doc)).ok());
  auto after = session.PrepareSql(Approach::kStaccato, sql);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  QueryStats post;
  auto post_ans = after->Execute(&post);
  ASSERT_TRUE(post_ans.ok()) << post_ans.status().ToString();
  EXPECT_TRUE(post.shared_plan_hit) << "the untouched shard's entry is live";
  EXPECT_EQ(session.shared_plan_hits(), 2u);
  // Only the untouched shard served its Filter from the cache; the
  // appended shard re-scanned MasterData, so the query's Filter is a miss.
  const size_t appended = ShardOfDoc(total - 1, 2);
  ASSERT_EQ(post.shards.size(), 2u);
  EXPECT_FALSE(post.filter_from_cache);
  EXPECT_FALSE(post.shards[appended].filter_from_cache);
  EXPECT_TRUE(post.shards[1 - appended].filter_from_cache);
  const std::string rendered = ExplainPlan(after->plan(), post);
  auto shard_line = [&rendered](size_t s) {
    const size_t at = rendered.find(StringPrintf("shard %zu: ", s));
    if (at == std::string::npos) return std::string();
    return rendered.substr(at, rendered.find('\n', at) - at);
  };
  EXPECT_NE(shard_line(appended).find("plan-cache: filter=miss"),
            std::string::npos)
      << rendered;
  EXPECT_NE(shard_line(1 - appended).find("plan-cache: filter=hit"),
            std::string::npos)
      << rendered;
  ExpectSameAnswers(ColdSqlAnswers(db->get(), sql, nullptr), *post_ans, "after append");
  bool has_new_doc = false;
  for (const Answer& a : *post_ans) has_new_doc |= a.doc == total - 1;
  EXPECT_TRUE(has_new_doc) << "the appended document is missing";
  // The warm siblings re-validate against the new generation too.
  auto again = sibling->Execute();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ExpectSameAnswers(*post_ans, *again, "sibling after append");
}

TEST_F(ShardTest, ConcurrentExecutesRaceAppendsSafely) {
  auto db = ShardedDb::Open(eval::MakeScratchDir("shard_race"),
                            ShardConfig{4, cache::CacheConfig()});
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const size_t base = dataset_->sfas.size() - 6;
  ASSERT_TRUE((*db)->Load(Prefix(*dataset_, base), SmallLoad()).ok());
  std::atomic<bool> failed{false};
  std::vector<std::thread> workers;
  // Query threads: separate PreparedQuery objects, concurrent Executes.
  for (size_t t = 0; t < 3; ++t) {
    workers.emplace_back([&, t] {
      Session session(db->get(), SessionOptions{2, 25});
      QueryOptions q;
      q.pattern = Patterns()[t % Patterns().size()];
      q.num_ans = 25;
      auto pq = session.Prepare(Approach::kStaccato, q);
      if (!pq.ok()) {
        failed = true;
        return;
      }
      for (int iter = 0; iter < 8; ++iter) {
        if (!pq->Execute().ok()) failed = true;
      }
    });
  }
  // Ingest thread: appends race the executes.
  workers.emplace_back([&] {
    for (size_t i = base; i < dataset_->sfas.size(); ++i) {
      if (!(*db)->Append(InputFor(*dataset_, i)).ok()) failed = true;
    }
  });
  for (std::thread& w : workers) w.join();
  EXPECT_FALSE(failed.load());
  // Quiesced: the grown database answers like the oracle.
  ASSERT_EQ((*db)->NumSfas(), oracle_->NumSfas());
  for (const std::string& pat : Patterns()) {
    auto want = RunQuery(oracle_, Approach::kStaccato, pat, 2, true);
    auto got = RunQuery(db->get(), Approach::kStaccato, pat, 2, true);
    ExpectSameAnswers(want, got, "post-race: " + pat);
  }
}

// Sibling PreparedQueries of one Session race on its plan-cache table:
// three threads each prepare the same Year-filtered, index-probing
// statement and Execute it 8 times, pinning and publishing entries while
// Appends move the shards' generations under them. The table is warm when
// the threads start and the appends wait for every thread's first
// Execute, so each first Execute pins the table's entry. Afterwards every
// query answers like a cold run over the grown database.
TEST_F(ShardTest, SiblingsRaceTheSharedPlanCacheAgainstAppends) {
  auto db = ShardedDb::Open(eval::MakeScratchDir("shard_plan_race"),
                            ShardConfig{2, cache::CacheConfig()});
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const size_t base = dataset_->sfas.size() - 6;
  ASSERT_TRUE((*db)->Load(Prefix(*dataset_, base), SmallLoad()).ok());
  ASSERT_TRUE((*db)
                  ->BuildInvertedIndex(
                      DatasetQueries(DatasetKind::kCongressActs))
                  .ok());
  const std::string sql = IndexedYearFilteredSql(db->get());
  ASSERT_FALSE(sql.empty()) << "no indexed Year-filtered query has answers";

  Session session(db->get(), SessionOptions{2, 50});
  {
    auto warm = session.PrepareSql(Approach::kStaccato, sql);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    ASSERT_TRUE(warm->Execute().ok());
  }
  constexpr size_t kThreads = 3;
  std::vector<std::optional<PreparedQuery>> queries(kThreads);
  std::atomic<size_t> first_executes{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      auto pq = session.PrepareSql(Approach::kStaccato, sql);
      if (pq.ok()) queries[t].emplace(std::move(*pq));
      for (int iter = 0; iter < 8; ++iter) {
        if (!queries[t].has_value() || !queries[t]->Execute().ok()) {
          failed = true;
        }
        if (iter == 0) first_executes.fetch_add(1);
      }
    });
  }
  workers.emplace_back([&] {
    while (first_executes.load() < kThreads) std::this_thread::yield();
    for (size_t i = base; i < dataset_->sfas.size(); ++i) {
      if (!(*db)->Append(InputFor(*dataset_, i)).ok()) failed = true;
    }
  });
  for (std::thread& w : workers) w.join();
  ASSERT_FALSE(failed.load());
  EXPECT_GT(session.shared_plan_hits(), 0u);

  const std::vector<Answer> want = ColdSqlAnswers(db->get(), sql, nullptr);
  for (size_t t = 0; t < kThreads; ++t) {
    auto got = queries[t]->Execute();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameAnswers(want, *got, StringPrintf("sibling %zu after race", t));
  }
}

}  // namespace
}  // namespace rdbms
}  // namespace staccato
