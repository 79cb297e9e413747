// Tests for the prepared-query engine: Session / PreparedQuery over the
// physical plans of rdbms/plan.h.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "eval/workbench.h"
#include "rdbms/session.h"
#include "rdbms/staccato_db.h"

namespace staccato {
namespace {

using eval::Workbench;
using eval::WorkbenchSpec;
using rdbms::Approach;
using rdbms::CandidateSource;
using rdbms::IndexMode;
using rdbms::PreparedQuery;
using rdbms::QueryOptions;
using rdbms::QueryStats;
using rdbms::Session;
using rdbms::SessionOptions;

constexpr size_t kLinesPerPage = 30;  // docs [0, 30) are page 0 / Year 2010

WorkbenchSpec SmallSpec(bool index = false) {
  WorkbenchSpec spec;
  spec.corpus.kind = DatasetKind::kCongressActs;
  spec.corpus.num_pages = 2;
  spec.corpus.lines_per_page = kLinesPerPage;
  spec.corpus.seed = 1234;
  spec.noise.alternatives = 8;
  spec.load.kmap_k = 10;
  spec.load.staccato = {20, 10, true};
  spec.build_index = index;
  return spec;
}

/// Prepares `q` on `session` and executes it once.
Result<std::vector<Answer>> RunOnce(Session& session, Approach a,
                                    const QueryOptions& q) {
  STACCATO_ASSIGN_OR_RETURN(PreparedQuery pq, session.Prepare(a, q));
  return pq.Execute();
}

void ExpectSameAnswers(const std::vector<Answer>& a,
                       const std::vector<Answer>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].doc, b[i].doc) << "rank " << i;
    EXPECT_EQ(a[i].prob, b[i].prob) << "rank " << i;  // bit-identical
  }
}

TEST(SessionTest, PrepareExecuteReuseMatchesOneShotQuery) {
  auto wb = Workbench::Create(SmallSpec());
  ASSERT_TRUE(wb.ok()) << wb.status().ToString();
  Session session(&(*wb)->db());
  // The one-shot reference: a fresh serial session, pinned to the scan.
  Session serial(&(*wb)->db(), SessionOptions{1, 100});
  QueryOptions q;
  q.pattern = "President";
  QueryOptions pinned = q;
  pinned.index_mode = IndexMode::kNever;
  for (Approach a : {Approach::kMap, Approach::kKMap, Approach::kFullSfa,
                     Approach::kStaccato}) {
    auto pq = session.Prepare(a, q);
    ASSERT_TRUE(pq.ok()) << pq.status().ToString();
    auto first = pq->Execute();
    auto second = pq->Execute();  // the same plan, re-run
    auto once = RunOnce(serial, a, pinned);
    ASSERT_TRUE(first.ok() && second.ok() && once.ok());
    ExpectSameAnswers(*first, *second);
    ExpectSameAnswers(*first, *once);
  }
}

TEST(SessionTest, ExplainIsStableAndDescribesThePlan) {
  auto wb = Workbench::Create(SmallSpec(/*index=*/true));
  ASSERT_TRUE(wb.ok()) << wb.status().ToString();
  Session session(&(*wb)->db());

  QueryOptions scan_q;
  scan_q.pattern = "President";
  scan_q.eval_threads = 1;
  auto scan_pq = session.Prepare(Approach::kFullSfa, scan_q);
  ASSERT_TRUE(scan_pq.ok());
  std::string scan_explain = scan_pq->Explain();
  EXPECT_NE(scan_explain.find("full-scan"), std::string::npos) << scan_explain;
  EXPECT_NE(scan_explain.find("Fetch method=blob"), std::string::npos);
  EXPECT_NE(scan_explain.find("sfa-dp"), std::string::npos);
  EXPECT_NE(scan_explain.find("TopK num_ans=100"), std::string::npos);

  QueryOptions idx_q;
  idx_q.pattern = "President";
  idx_q.index_mode = IndexMode::kForce;
  idx_q.use_projection = true;
  idx_q.eval_threads = 4;
  auto idx_pq = session.Prepare(Approach::kStaccato, idx_q);
  ASSERT_TRUE(idx_pq.ok());
  std::string before = idx_pq->Explain();
  EXPECT_NE(before.find("index-probe"), std::string::npos) << before;
  EXPECT_NE(before.find("anchor='president'"), std::string::npos) << before;
  EXPECT_NE(before.find("Fetch method=projection"), std::string::npos);
  EXPECT_NE(before.find("threads=4"), std::string::npos);

  // Executing must not change the rendered plan.
  ASSERT_TRUE(idx_pq->Execute().ok());
  ASSERT_TRUE(idx_pq->Execute().ok());
  EXPECT_EQ(idx_pq->Explain(), before);
}

TEST(SessionTest, EqualityPredicateFiltersCandidates) {
  auto wb = Workbench::Create(SmallSpec());
  ASSERT_TRUE(wb.ok()) << wb.status().ToString();
  Session session(&(*wb)->db());

  const std::string sql =
      "SELECT DataKey FROM Docs WHERE Year = 2010 AND "
      "DocData LIKE '%President%';";
  auto pq = session.PrepareSql(Approach::kStaccato, sql);
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  EXPECT_NE(pq->Explain().find("Filter Year = 2010"), std::string::npos)
      << pq->Explain();
  QueryStats stats;
  auto filtered = pq->Execute(&stats);
  ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
  EXPECT_EQ(stats.candidates, kLinesPerPage);  // only page 0 is dated 2010
  for (const Answer& ans : *filtered) {
    EXPECT_LT(ans.doc, kLinesPerPage) << "doc from the wrong year retrieved";
  }

  // The filtered answer set is exactly the unfiltered one restricted to
  // page 0 (per-doc probabilities are independent of the filter).
  QueryOptions q;
  q.pattern = "President";
  auto all = RunOnce(session, Approach::kStaccato, q);
  ASSERT_TRUE(all.ok());
  std::vector<Answer> expected;
  for (const Answer& ans : *all) {
    if (ans.doc < kLinesPerPage) expected.push_back(ans);
  }
  ExpectSameAnswers(*filtered, expected);

  // String-typed equality binds against DocName.
  auto by_name = session.PrepareSql(
      Approach::kMap,
      "SELECT * FROM Docs WHERE DocName = 'CA-page-1' AND "
      "DocData LIKE '%President%'");
  ASSERT_TRUE(by_name.ok()) << by_name.status().ToString();
  auto page1 = by_name->Execute();
  ASSERT_TRUE(page1.ok());
  for (const Answer& ans : *page1) EXPECT_GE(ans.doc, kLinesPerPage);

  // Prepare-time rejection: unknown column, type-mismatched literal.
  EXPECT_TRUE(session
                  .PrepareSql(Approach::kMap,
                              "SELECT * FROM t WHERE Nope = 1 AND "
                              "D LIKE '%x%'")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(session
                  .PrepareSql(Approach::kMap,
                              "SELECT * FROM t WHERE Year = 'abc' AND "
                              "D LIKE '%x%'")
                  .status()
                  .IsInvalidArgument());
}

// PrepareSql runs before admission control, so one LIKE pattern must not
// be able to crash the process or compile for seconds: deep group nesting
// and exponential DFAs fail fast with InvalidArgument (dfa_oracle_test
// pins each limit exactly).
TEST(SessionTest, PrepareSqlRejectsPatternsPastTheLimits) {
  auto wb = Workbench::Create(SmallSpec());
  ASSERT_TRUE(wb.ok()) << wb.status().ToString();
  Session session(&(*wb)->db());
  auto nested = [](size_t depth) {
    return std::string(depth, '(') + "a" + std::string(depth, ')');
  };
  auto a_then_any = [](size_t n) {
    std::string p = "a";
    for (size_t i = 0; i < n; ++i) p += "\\x";
    return p;
  };
  struct Case {
    std::string name;
    std::string pattern;
    bool ok;
  };
  const std::vector<Case> cases = {
      {"64 nested groups", nested(64), true},
      {"65 nested groups", nested(65), false},
      {"100,000 nested groups", nested(100000), false},
      {"1,000,000 nested groups", nested(1000000), false},
      {"a\\x^12 (12,288 states)", a_then_any(12), true},
      {"a\\x^13 (24,576 states)", a_then_any(13), false},
      {"a\\x^20 (3.1 million states)", a_then_any(20), false},
  };
  for (const Case& c : cases) {
    for (Approach a : {Approach::kMap, Approach::kStaccato}) {
      const auto start = std::chrono::steady_clock::now();
      auto pq = session.PrepareSql(
          a, "SELECT * FROM Docs WHERE DocData LIKE '%" + c.pattern + "%'");
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      if (c.ok) {
        EXPECT_TRUE(pq.ok()) << c.name << ": " << pq.status().ToString();
        continue;
      }
      ASSERT_FALSE(pq.ok()) << c.name;
      EXPECT_TRUE(pq.status().IsInvalidArgument())
          << c.name << ": " << pq.status().ToString();
      EXPECT_LT(ms, 1000.0) << c.name;
    }
  }
}

TEST(SessionTest, PaperExampleSqlExecutesEndToEnd) {
  auto wb = Workbench::Create(SmallSpec());
  ASSERT_TRUE(wb.ok());
  Session session(&(*wb)->db());
  // The motivating statement of Section 2.1, verbatim. (This corpus has no
  // Fords, so the answer set is empty — but the full pipeline runs.)
  auto pq = session.PrepareSql(Approach::kStaccato,
                               "SELECT DocID, Loss FROM Claims "
                               "WHERE Year = 2010 AND DocData LIKE '%Ford%';");
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  QueryStats stats;
  auto answers = pq->Execute(&stats);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_EQ(stats.candidates, kLinesPerPage);
  EXPECT_FALSE(stats.plan_summary.empty());
}

TEST(SessionTest, ParallelEvalBitIdenticalToSerial) {
  auto wb = Workbench::Create(SmallSpec(/*index=*/true));
  ASSERT_TRUE(wb.ok());
  Session session(&(*wb)->db());
  struct Case {
    Approach approach;
    bool use_index;
    bool use_projection;
  };
  for (const Case& c : {Case{Approach::kFullSfa, false, false},
                        Case{Approach::kStaccato, false, false},
                        Case{Approach::kStaccato, true, false},
                        Case{Approach::kStaccato, true, true}}) {
    QueryOptions q;
    q.pattern = "President";
    // Pin the source so each case measures the path it names (kAuto could
    // cost-route the "scan" cases onto the index).
    q.index_mode = c.use_index ? IndexMode::kForce : IndexMode::kNever;
    q.use_projection = c.use_projection;

    q.eval_threads = 1;
    auto serial_pq = session.Prepare(c.approach, q);
    ASSERT_TRUE(serial_pq.ok());
    QueryStats serial_stats;
    auto serial = serial_pq->Execute(&serial_stats);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ(serial_stats.threads_used, 1u);

    q.eval_threads = 4;
    auto par_pq = session.Prepare(c.approach, q);
    ASSERT_TRUE(par_pq.ok());
    QueryStats par_stats;
    auto parallel = par_pq->Execute(&par_stats);
    ASSERT_TRUE(parallel.ok());
    EXPECT_GT(par_stats.threads_used, 1u);
    EXPECT_NE(par_stats.plan_summary.find("[t=4]"), std::string::npos)
        << par_stats.plan_summary;
    EXPECT_EQ(par_stats.candidates, serial_stats.candidates);

    ExpectSameAnswers(*serial, *parallel);
  }
}

TEST(SessionTest, CostBasedPlannerChoosesByEstimateAndExplainsIt) {
  auto wb = Workbench::Create(SmallSpec(/*index=*/true));
  ASSERT_TRUE(wb.ok()) << wb.status().ToString();
  Session session(&(*wb)->db());

  QueryOptions q;
  q.pattern = "President";
  // kAuto (the default): the chosen source must agree with the estimate.
  auto pq = session.Prepare(Approach::kStaccato, q);
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  const rdbms::CostEstimate& cost = pq->plan().cost;
  EXPECT_TRUE(cost.scan.feasible);
  EXPECT_GT(cost.scan.total, 0.0);
  EXPECT_EQ(cost.table_cardinality, 2 * kLinesPerPage);
  ASSERT_TRUE(cost.index.feasible);  // 'president' is a dictionary anchor
  EXPECT_GT(cost.anchor_postings, 0u);
  EXPECT_GE(cost.anchor_postings, cost.anchor_docs);
  const bool index_cheaper = cost.index.total < cost.scan.total;
  EXPECT_EQ(pq->plan().source == CandidateSource::kIndexProbe, index_cheaper);
  EXPECT_EQ(cost.chosen, pq->plan().source);

  // Pinning the mode overrides the estimate in both directions.
  q.index_mode = IndexMode::kNever;
  auto scan_pq = session.Prepare(Approach::kStaccato, q);
  ASSERT_TRUE(scan_pq.ok());
  EXPECT_EQ(scan_pq->plan().source, CandidateSource::kFullScan);
  q.index_mode = IndexMode::kForce;
  auto idx_pq = session.Prepare(Approach::kStaccato, q);
  ASSERT_TRUE(idx_pq.ok());
  EXPECT_EQ(idx_pq->plan().source, CandidateSource::kIndexProbe);

  // The estimate is rendered by Explain, deterministically: preparing the
  // same query twice yields byte-identical text.
  std::string explain = pq->Explain();
  EXPECT_NE(explain.find("Cost: est-candidates="), std::string::npos)
      << explain;
  EXPECT_NE(explain.find("sel="), std::string::npos);
  EXPECT_NE(explain.find("scan="), std::string::npos);
  auto again = session.Prepare(Approach::kStaccato, q);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->Explain(), idx_pq->Explain());

  // Without an index, kAuto silently plans a scan (no error).
  auto no_idx = Workbench::Create(SmallSpec(/*index=*/false));
  ASSERT_TRUE(no_idx.ok());
  Session bare(&(*no_idx)->db());
  QueryOptions auto_q;
  auto_q.pattern = "President";
  auto bare_pq = bare.Prepare(Approach::kStaccato, auto_q);
  ASSERT_TRUE(bare_pq.ok()) << bare_pq.status().ToString();
  EXPECT_EQ(bare_pq->plan().source, CandidateSource::kFullScan);
  EXPECT_FALSE(bare_pq->plan().cost.index.feasible);
}

TEST(SessionTest, AutoModeRoutesRareAnchorsThroughTheIndex) {
  auto wb = Workbench::Create(SmallSpec(/*index=*/true));
  ASSERT_TRUE(wb.ok());
  // Pick the rarest indexed term — fewest postings, ties broken
  // lexicographically so the choice is deterministic. Probing a handful of
  // postings is estimated (and is) far cheaper than scanning every SFA, so
  // kAuto picks the index on its own.
  const TermStatsMap& stats_map = (*wb)->db().term_stats();
  ASSERT_FALSE(stats_map.empty());
  std::string rare;
  size_t rare_postings = 0;
  for (const auto& [term, st] : stats_map) {
    if (rare.empty() || st.postings < rare_postings ||
        (st.postings == rare_postings && term < rare)) {
      rare = term;
      rare_postings = st.postings;
    }
  }

  Session session(&(*wb)->db());
  QueryOptions q;
  q.pattern = rare;
  auto pq = session.Prepare(Approach::kStaccato, q);
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  const rdbms::CostEstimate& cost = pq->plan().cost;
  ASSERT_TRUE(cost.index.feasible) << rare;
  EXPECT_EQ(cost.anchor_postings, rare_postings);
  EXPECT_LT(cost.index.total, cost.scan.total) << rare;
  EXPECT_EQ(pq->plan().source, CandidateSource::kIndexProbe) << rare;
  EXPECT_EQ(pq->plan().anchor, rare);
}

// A Year-filtered 'President' query under each index mode: the first
// Execute builds the plan-cache entry, and a warm one serves the Filter
// bitmap from it — and the CandidateSet too, exactly when the plan probes
// the index (a full scan has no CandidateSet to memoize).
class WarmExecuteTest : public ::testing::TestWithParam<IndexMode> {};

TEST_P(WarmExecuteTest, WarmExecuteServesCacheAndIsBitIdentical) {
  auto wb = Workbench::Create(SmallSpec(/*index=*/true));
  ASSERT_TRUE(wb.ok());
  Session session(&(*wb)->db());
  QueryOptions q;
  q.pattern = "President";
  q.index_mode = GetParam();
  q.equalities = {{"Year", "2010"}};
  auto pq = session.Prepare(Approach::kStaccato, q);
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  const bool probes = pq->plan().source == CandidateSource::kIndexProbe;
  if (GetParam() != IndexMode::kAuto) {
    EXPECT_EQ(probes, GetParam() == IndexMode::kForce);
  }

  QueryStats cold, warm;
  auto first = pq->Execute(&cold);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(cold.filter_from_cache);
  EXPECT_FALSE(cold.candidates_from_cache);

  auto second = pq->Execute(&warm);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(warm.filter_from_cache) << "Filter ran again on a warm plan";
  EXPECT_EQ(warm.candidates_from_cache, probes)
      << "CandidateGen ran again on a warm plan";
  EXPECT_EQ(warm.candidates, cold.candidates);
  EXPECT_EQ(warm.index_postings, cold.index_postings);
  ExpectSameAnswers(*first, *second);

  // Estimated vs. actual candidates are reported side by side.
  EXPECT_EQ(warm.est_candidates, pq->plan().cost.chosen_cost().candidates);
  std::string analyzed = rdbms::ExplainPlan(pq->plan(), warm);
  EXPECT_NE(analyzed.find("Actual: candidates="), std::string::npos)
      << analyzed;
  EXPECT_NE(analyzed.find("filter=hit"), std::string::npos) << analyzed;
  EXPECT_EQ(analyzed.find("candidates=hit") != std::string::npos, probes)
      << analyzed;
}

INSTANTIATE_TEST_SUITE_P(
    IndexModes, WarmExecuteTest,
    ::testing::Values(IndexMode::kAuto, IndexMode::kForce, IndexMode::kNever),
    [](const ::testing::TestParamInfo<IndexMode>& info) {
      return std::string(rdbms::IndexModeName(info.param));
    });

TEST(SessionTest, PlanCacheInvalidatesWhenDataReloads) {
  auto wb = Workbench::Create(SmallSpec(/*index=*/true));
  ASSERT_TRUE(wb.ok());
  rdbms::StaccatoDb& db = (*wb)->db();
  Session session(&db);

  // Scan-shaped plan: the equality bitmap must be recomputed after a
  // reload, then warm up again.
  QueryOptions scan_q;
  scan_q.pattern = "President";
  scan_q.index_mode = IndexMode::kNever;
  scan_q.equalities = {{"Year", "2010"}};
  auto scan_pq = session.Prepare(Approach::kStaccato, scan_q);
  ASSERT_TRUE(scan_pq.ok());
  QueryStats s;
  ASSERT_TRUE(scan_pq->Execute(&s).ok());
  ASSERT_TRUE(scan_pq->Execute(&s).ok());
  ASSERT_TRUE(s.filter_from_cache);

  // Index-shaped plan, warmed.
  QueryOptions idx_q = scan_q;
  idx_q.index_mode = IndexMode::kForce;
  auto idx_pq = session.Prepare(Approach::kStaccato, idx_q);
  ASSERT_TRUE(idx_pq.ok());
  QueryStats si;
  auto before_reload = idx_pq->Execute(&si);
  ASSERT_TRUE(before_reload.ok());
  ASSERT_TRUE(idx_pq->Execute(&si).ok());
  ASSERT_TRUE(si.filter_from_cache && si.candidates_from_cache);

  // A new Load bumps the load generation and drops the index (it was
  // built over the old corpus).
  const uint64_t gen = db.load_generation();
  ASSERT_TRUE(db.Load((*wb)->dataset(), SmallSpec().load).ok());
  EXPECT_GT(db.load_generation(), gen);

  QueryStats reloaded;
  ASSERT_TRUE(scan_pq->Execute(&reloaded).ok());
  EXPECT_FALSE(reloaded.filter_from_cache) << "stale bitmap served";
  QueryStats rewarmed;
  ASSERT_TRUE(scan_pq->Execute(&rewarmed).ok());
  EXPECT_TRUE(rewarmed.filter_from_cache);

  // The frozen index-probe plan must fail cleanly (not probe stale
  // postings) until the index is rebuilt...
  QueryStats stale;
  EXPECT_TRUE(idx_pq->Execute(&stale).status().IsInvalidArgument());

  // ...after which it recomputes everything, then warms up again.
  std::vector<std::string> dict =
      BuildDictionaryFromCorpus((*wb)->dataset().corpus.lines);
  ASSERT_TRUE(db.BuildInvertedIndex(dict).ok());
  QueryStats rebuilt;
  auto after_rebuild = idx_pq->Execute(&rebuilt);
  ASSERT_TRUE(after_rebuild.ok());
  EXPECT_FALSE(rebuilt.filter_from_cache);
  EXPECT_FALSE(rebuilt.candidates_from_cache);
  // Reload is a full replacement: the same dataset reloaded + reindexed
  // yields bit-identical answers, not doubled probabilities.
  ExpectSameAnswers(*after_rebuild, *before_reload);
  QueryStats warm_again;
  ASSERT_TRUE(idx_pq->Execute(&warm_again).ok());
  EXPECT_TRUE(warm_again.filter_from_cache);
  EXPECT_TRUE(warm_again.candidates_from_cache);

  // Rebuilding with a dictionary that no longer contains the anchor also
  // invalidates the frozen probe plan — never a silent empty probe.
  ASSERT_TRUE(db.BuildInvertedIndex({"zebra"}).ok());
  EXPECT_TRUE(idx_pq->Execute(&stale).status().IsInvalidArgument());
}

TEST(SessionTest, IndexRebuildReplacesPersistedPostings) {
  auto wb = Workbench::Create(SmallSpec(/*index=*/true));
  ASSERT_TRUE(wb.ok());
  rdbms::StaccatoDb& db = (*wb)->db();
  // Rebuild the index over the same dictionary: the persisted postings
  // relation must be replaced, not appended to.
  std::vector<std::string> dict =
      BuildDictionaryFromCorpus((*wb)->dataset().corpus.lines);
  ASSERT_TRUE(db.BuildInvertedIndex(dict).ok());
  const TermStatsMap live = db.term_stats();

  // Reopening the directory recovers the statistics from disk; they must
  // match the live ones exactly (a stale append would double them).
  auto reopened = rdbms::StaccatoDb::OpenExisting((*wb)->spec().work_dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const TermStatsMap& recovered = (*reopened)->term_stats();
  ASSERT_EQ(recovered.size(), live.size());
  for (const auto& [term, st] : live) {
    auto it = recovered.find(term);
    ASSERT_NE(it, recovered.end()) << term;
    EXPECT_EQ(it->second.postings, st.postings) << term;
    EXPECT_EQ(it->second.docs, st.docs) << term;
  }
}

TEST(SessionTest, SqlLimitMapsToNumAns) {
  auto wb = Workbench::Create(SmallSpec());
  ASSERT_TRUE(wb.ok());
  Session session(&(*wb)->db());
  auto pq = session.PrepareSql(
      Approach::kKMap,
      "SELECT DataKey FROM Docs WHERE DocData LIKE '%President%' LIMIT 3;");
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  EXPECT_EQ(pq->plan().num_ans, 3u);
  EXPECT_NE(pq->Explain().find("TopK num_ans=3"), std::string::npos);
  auto answers = pq->Execute();
  ASSERT_TRUE(answers.ok());
  EXPECT_LE(answers->size(), 3u);

  // Without LIMIT the session default applies.
  auto unlimited = session.PrepareSql(
      Approach::kKMap, "SELECT DataKey FROM Docs WHERE DocData LIKE '%President%'");
  ASSERT_TRUE(unlimited.ok());
  EXPECT_EQ(unlimited->plan().num_ans, session.options().num_ans);

  // Quoted literals never coerce to numeric columns.
  EXPECT_TRUE(session
                  .PrepareSql(Approach::kMap,
                              "SELECT * FROM t WHERE Year = '2010' AND "
                              "D LIKE '%x%'")
                  .status()
                  .IsInvalidArgument());
}

TEST(SessionTest, EarlyStopPruningIsAnswerNeutralAcrossThreads) {
  auto wb = Workbench::Create(SmallSpec(/*index=*/true));
  ASSERT_TRUE(wb.ok()) << wb.status().ToString();
  Session session(&(*wb)->db());

  // Selective top-k over the lossy Staccato representation: NumAns is far
  // below the candidate count, and approximation leak makes many
  // candidates' mass bound sink below the k-th best answer mid-DP. A
  // short, common pattern keeps the k-th best probability high, which is
  // what lets the threshold bite early (rare patterns have tiny top
  // probabilities, so their bound only collapses at the end of the DP).
  for (Approach approach : {Approach::kStaccato, Approach::kFullSfa}) {
    QueryOptions q;
    q.pattern = "an";
    q.num_ans = 3;
    q.index_mode = IndexMode::kNever;  // scan: every doc is a candidate

    std::vector<Answer> reference;
    bool have_reference = false;
    for (bool early_stop : {false, true}) {
      for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
        q.early_stop = early_stop;
        q.eval_threads = threads;
        auto pq = session.Prepare(approach, q);
        ASSERT_TRUE(pq.ok()) << pq.status().ToString();
        QueryStats stats;
        auto ans = pq->Execute(&stats);
        ASSERT_TRUE(ans.ok()) << ans.status().ToString();
        if (!have_reference) {
          reference = *ans;
          have_reference = true;
          ASSERT_FALSE(reference.empty());
        } else {
          ExpectSameAnswers(*ans, reference);
        }
        if (!early_stop) {
          EXPECT_EQ(stats.eval_pruned, 0u);
          EXPECT_EQ(stats.eval_steps_saved, 0u);
        }
      }
    }

    // With early-stop on and one thread the pruning outcome is
    // deterministic; on the lossy representation it must actually bite.
    q.early_stop = true;
    q.eval_threads = 1;
    auto pq = session.Prepare(approach, q);
    ASSERT_TRUE(pq.ok());
    QueryStats stats;
    auto ans = pq->Execute(&stats);
    ASSERT_TRUE(ans.ok());
    ExpectSameAnswers(*ans, reference);
    if (approach == Approach::kStaccato) {
      EXPECT_GT(stats.eval_pruned, 0u) << "early-stop never fired";
      EXPECT_GT(stats.eval_steps_saved, 0u);
      EXPECT_LT(stats.eval_pruned, stats.candidates);
    }

    // The pruning outcome is rendered by the post-execution Explain.
    std::string explained = rdbms::ExplainPlan(pq->plan(), stats);
    EXPECT_NE(explained.find("Pruned: "), std::string::npos) << explained;
    EXPECT_NE(explained.find("early-stop=on"), std::string::npos) << explained;
    EXPECT_NE(explained.find("steps-saved="), std::string::npos) << explained;
  }

  // Toggling early-stop off on a prepared query reports it in Explain.
  QueryOptions q;
  q.pattern = "President";
  auto off = session.Prepare(Approach::kStaccato, q);
  ASSERT_TRUE(off.ok());
  off->set_early_stop(false);
  EXPECT_NE(off->Explain().find("early-stop=off"), std::string::npos)
      << off->Explain();
}

TEST(SessionTest, BufferCacheWarmExecuteBitIdenticalToColdAndToCacheOff) {
  // The acceptance invariant of the buffer cache: answers are
  // bit-identical cache-on vs cache-off, and warm (cache-served) vs cold.
  WorkbenchSpec on_spec = SmallSpec();
  on_spec.cache = cache::CacheConfig{/*budget_bytes=*/32 << 20, /*shards=*/4};
  WorkbenchSpec off_spec = SmallSpec();
  off_spec.cache = cache::CacheConfig{/*budget_bytes=*/0, /*shards=*/0};
  auto on = Workbench::Create(on_spec);
  auto off = Workbench::Create(off_spec);
  ASSERT_TRUE(on.ok() && off.ok());
  ASSERT_NE((*on)->db().buffer_cache(), nullptr);
  ASSERT_EQ((*off)->db().buffer_cache(), nullptr);

  for (Approach approach : {Approach::kFullSfa, Approach::kStaccato}) {
    QueryOptions q;
    q.pattern = "President";
    q.index_mode = IndexMode::kNever;  // scan: the plan cache memoizes
    q.eval_threads = 2;                // nothing, isolating the buffer cache

    auto on_pq = Session(&(*on)->db()).Prepare(approach, q);
    auto off_pq = Session(&(*off)->db()).Prepare(approach, q);
    ASSERT_TRUE(on_pq.ok() && off_pq.ok());

    ASSERT_TRUE((*on)->db().DropCaches().ok());
    QueryStats cold;
    auto cold_ans = on_pq->Execute(&cold);
    ASSERT_TRUE(cold_ans.ok());
    EXPECT_EQ(cold.cache_hits, 0u) << "cold run served from a dropped cache";
    EXPECT_GT(cold.cache_misses, 0u);
    EXPECT_GT(cold.cache_bytes, 0u);
    EXPECT_LE(cold.cache_bytes, on_spec.cache.budget_bytes);

    QueryStats warm;
    auto warm_ans = on_pq->Execute(&warm);
    ASSERT_TRUE(warm_ans.ok());
    EXPECT_GT(warm.cache_hits, 0u) << "warm run missed the buffer cache";
    EXPECT_EQ(warm.cache_misses, 0u);
    EXPECT_EQ(warm.blob_bytes_read, 0u) << "warm run still hit disk";

    QueryStats uncached;
    auto off_ans = off_pq->Execute(&uncached);
    ASSERT_TRUE(off_ans.ok());
    EXPECT_EQ(uncached.cache_hits, 0u);
    EXPECT_EQ(uncached.cache_misses, 0u);
    EXPECT_EQ(uncached.cache_bytes, 0u);

    ExpectSameAnswers(*cold_ans, *warm_ans);
    ExpectSameAnswers(*cold_ans, *off_ans);

    // The post-execution Explain renders the cache outcome.
    std::string explained = rdbms::ExplainPlan(on_pq->plan(), warm);
    EXPECT_NE(explained.find("Cache: hits="), std::string::npos) << explained;
  }
}

// The buffer cache is the one cache of table pages, and a page enters it
// only when a reader reads it: a Load leaves it empty, and DropCaches
// empties it again after queries filled it.
TEST(SessionTest, LoadLeavesTheBufferCacheEmpty) {
  WorkbenchSpec spec = SmallSpec();
  spec.cache = cache::CacheConfig{/*budget_bytes=*/32 << 20, /*shards=*/4};
  auto wb = Workbench::Create(spec);
  ASSERT_TRUE(wb.ok()) << wb.status().ToString();
  rdbms::StaccatoDb& db = (*wb)->db();
  ASSERT_NE(db.buffer_cache(), nullptr);
  EXPECT_EQ(db.buffer_cache()->stats().bytes_in_use, 0u);
  EXPECT_EQ(db.buffer_cache()->stats().entries, 0u);

  Session session(&db);
  auto pq = session.PrepareSql(Approach::kKMap,
                               "SELECT * FROM Docs WHERE Year = 2010 AND "
                               "DocData LIKE '%President%'");
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  auto ans = pq->Execute();
  ASSERT_TRUE(ans.ok()) << ans.status().ToString();
  EXPECT_GT(db.buffer_cache()->stats().bytes_in_use, 0u);
  ASSERT_TRUE(db.DropCaches().ok());
  EXPECT_EQ(db.buffer_cache()->stats().bytes_in_use, 0u);
}

TEST(SessionTest, BufferCacheInvalidatesOnLoadGenerationBump) {
  WorkbenchSpec spec = SmallSpec();
  spec.cache = cache::CacheConfig{/*budget_bytes=*/32 << 20, /*shards=*/4};
  auto wb = Workbench::Create(spec);
  ASSERT_TRUE(wb.ok());
  rdbms::StaccatoDb& db = (*wb)->db();
  Session session(&db);
  QueryOptions q;
  q.pattern = "President";
  q.index_mode = IndexMode::kNever;

  auto pq = session.Prepare(Approach::kStaccato, q);
  ASSERT_TRUE(pq.ok());
  QueryStats first;
  auto before = pq->Execute(&first);
  ASSERT_TRUE(before.ok());
  QueryStats warmed;
  ASSERT_TRUE(pq->Execute(&warmed).ok());
  ASSERT_GT(warmed.cache_hits, 0u);

  // Reloading the same dataset bumps the load generation: the cached
  // blobs are keyed by the old generation and must never be served again,
  // with answers identical to the pre-reload run (same data).
  ASSERT_TRUE(db.Load((*wb)->dataset(), SmallSpec().load).ok());
  QueryStats reloaded;
  auto after = pq->Execute(&reloaded);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(reloaded.cache_hits, 0u) << "stale generation served from cache";
  EXPECT_GT(reloaded.cache_misses, 0u);
  ExpectSameAnswers(*after, *before);

  // And the cache re-warms under the new generation.
  QueryStats rewarmed;
  auto again = pq->Execute(&rewarmed);
  ASSERT_TRUE(again.ok());
  EXPECT_GT(rewarmed.cache_hits, 0u);
  ExpectSameAnswers(*again, *before);
}

TEST(SessionTest, SharedPlanCacheWarmsSiblingPreparedQueries) {
  auto wb = Workbench::Create(SmallSpec(/*index=*/true));
  ASSERT_TRUE(wb.ok());
  Session session(&(*wb)->db());
  QueryOptions q;
  q.pattern = "President";
  q.index_mode = IndexMode::kForce;
  q.equalities = {{"Year", "2010"}};

  // First query computes and publishes its artifacts.
  auto first = session.Prepare(Approach::kStaccato, q);
  ASSERT_TRUE(first.ok());
  QueryStats cold;
  auto ref = first->Execute(&cold);
  ASSERT_TRUE(ref.ok());
  EXPECT_FALSE(cold.shared_plan_hit);
  EXPECT_FALSE(cold.filter_from_cache);
  EXPECT_EQ(session.shared_plan_hits(), 0u);

  // A sibling with the same fingerprint adopts them on its FIRST Execute:
  // both operators come from cache, answers bit-identical.
  auto sibling = session.Prepare(Approach::kStaccato, q);
  ASSERT_TRUE(sibling.ok());
  QueryStats adopted;
  auto sib_ans = sibling->Execute(&adopted);
  ASSERT_TRUE(sib_ans.ok());
  EXPECT_TRUE(adopted.shared_plan_hit);
  EXPECT_TRUE(adopted.filter_from_cache);
  EXPECT_TRUE(adopted.candidates_from_cache);
  EXPECT_EQ(session.shared_plan_hits(), 1u);
  ExpectSameAnswers(*sib_ans, *ref);

  // A different fingerprint (different predicate) shares nothing.
  QueryOptions other = q;
  other.equalities = {{"Year", "2011"}};
  auto stranger = session.Prepare(Approach::kStaccato, other);
  ASSERT_TRUE(stranger.ok());
  QueryStats fresh;
  ASSERT_TRUE(stranger->Execute(&fresh).ok());
  EXPECT_FALSE(fresh.shared_plan_hit);
  EXPECT_FALSE(fresh.filter_from_cache);

  // Nor does a different Session: its table is its own.
  Session other_session(&(*wb)->db());
  auto foreign = other_session.Prepare(Approach::kStaccato, q);
  ASSERT_TRUE(foreign.ok());
  QueryStats isolated;
  ASSERT_TRUE(foreign->Execute(&isolated).ok());
  EXPECT_FALSE(isolated.shared_plan_hit);
  EXPECT_EQ(other_session.shared_plan_hits(), 0u);

  // A reload invalidates the shared entries like any plan cache: the
  // frozen index-probe plan fails cleanly, and after a rebuild a new
  // sibling recomputes rather than adopting stale artifacts.
  rdbms::StaccatoDb& db = (*wb)->db();
  ASSERT_TRUE(db.Load((*wb)->dataset(), SmallSpec().load).ok());
  std::vector<std::string> dict =
      BuildDictionaryFromCorpus((*wb)->dataset().corpus.lines);
  ASSERT_TRUE(db.BuildInvertedIndex(dict).ok());
  auto rebuilt = session.Prepare(Approach::kStaccato, q);
  ASSERT_TRUE(rebuilt.ok());
  QueryStats post;
  auto post_ans = rebuilt->Execute(&post);
  ASSERT_TRUE(post_ans.ok());
  EXPECT_FALSE(post.shared_plan_hit) << "adopted artifacts from a dead gen";
  EXPECT_FALSE(post.filter_from_cache);
  ExpectSameAnswers(*post_ans, *ref);  // full replacement, same dataset
}

TEST(SessionTest, SessionDefaultsToParallelEval) {
  auto wb = Workbench::Create(SmallSpec());
  ASSERT_TRUE(wb.ok());
  // eval_threads = 0 in both the session options and the query inherits
  // hardware concurrency at prepare time.
  Session session(&(*wb)->db(), SessionOptions{});
  QueryOptions q;
  q.pattern = "President";
  auto pq = session.Prepare(Approach::kStaccato, q);
  ASSERT_TRUE(pq.ok());
  EXPECT_GE(pq->plan().eval_threads, 1u);
  auto answers = pq->Execute();
  ASSERT_TRUE(answers.ok());
  Session serial(&(*wb)->db(), SessionOptions{1, 100});
  auto once = RunOnce(serial, Approach::kStaccato, q);
  ASSERT_TRUE(once.ok());
  ExpectSameAnswers(*answers, *once);
}

}  // namespace
}  // namespace staccato
