// End-to-end tests through the StaccatoDb: load a synthetic OCR dataset into
// the RDBMS, query it under all four approaches through a Session, and
// check the paper's qualitative claims (recall ordering, probability
// bounds, index consistency) hold on the loaded data.
#include <gtest/gtest.h>

#include "eval/workbench.h"
#include "metrics/metrics.h"
#include "ocr/corpus.h"
#include "rdbms/session.h"
#include "rdbms/staccato_db.h"

namespace staccato {
namespace {

using eval::Workbench;
using eval::WorkbenchSpec;
using rdbms::Approach;
using rdbms::Session;

/// Prepares `q` on `session` and executes it once.
Result<std::vector<Answer>> RunOnce(Session& session, Approach a,
                                    const rdbms::QueryOptions& q,
                                    rdbms::QueryStats* stats = nullptr) {
  STACCATO_ASSIGN_OR_RETURN(rdbms::PreparedQuery pq, session.Prepare(a, q));
  return pq.Execute(stats);
}

/// Prepares the SQL statement on `session` and executes it once.
Result<std::vector<Answer>> RunSqlOnce(Session& session, Approach a,
                                       const std::string& sql) {
  STACCATO_ASSIGN_OR_RETURN(rdbms::PreparedQuery pq, session.PrepareSql(a, sql));
  return pq.Execute();
}

WorkbenchSpec SmallSpec(DatasetKind kind, bool index = false) {
  WorkbenchSpec spec;
  spec.corpus.kind = kind;
  spec.corpus.num_pages = 2;
  spec.corpus.lines_per_page = 30;
  spec.corpus.seed = 1234;
  spec.noise.alternatives = 8;
  spec.load.kmap_k = 10;
  spec.load.staccato = {20, 10, true};
  spec.build_index = index;
  return spec;
}

TEST(IntegrationTest, LoadAndQueryAllApproaches) {
  auto wb = Workbench::Create(SmallSpec(DatasetKind::kCongressActs));
  ASSERT_TRUE(wb.ok()) << wb.status().ToString();
  EXPECT_EQ((*wb)->db().NumSfas(), 60u);
  for (Approach a : {Approach::kMap, Approach::kKMap, Approach::kFullSfa,
                     Approach::kStaccato}) {
    auto row = (*wb)->Run(a, "President");
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    EXPECT_GE(row->quality.recall, 0.0);
    EXPECT_LE(row->quality.recall, 1.0);
    EXPECT_GT(row->stats.seconds, 0.0);
  }
}

TEST(IntegrationTest, RecallOrderingHolds) {
  // The paper's central claim: recall(MAP) <= recall(k-MAP) <=
  // recall(FullSFA) = 1, with Staccato in between MAP and FullSFA.
  auto wb = Workbench::Create(SmallSpec(DatasetKind::kCongressActs));
  ASSERT_TRUE(wb.ok());
  for (const std::string& q : {std::string("President"),
                               std::string("U.S.C. 2\\d\\d\\d")}) {
    auto map = (*wb)->Run(Approach::kMap, q);
    auto kmap = (*wb)->Run(Approach::kKMap, q);
    auto full = (*wb)->Run(Approach::kFullSfa, q);
    auto stac = (*wb)->Run(Approach::kStaccato, q);
    ASSERT_TRUE(map.ok() && kmap.ok() && full.ok() && stac.ok());
    EXPECT_LE(map->quality.recall, kmap->quality.recall + 1e-9) << q;
    EXPECT_LE(kmap->quality.recall, full->quality.recall + 1e-9) << q;
    EXPECT_NEAR(full->quality.recall, 1.0, 1e-9)
        << q << ": FullSFA must achieve perfect recall (NumAns > truth)";
    EXPECT_GE(stac->quality.recall, map->quality.recall - 1e-9) << q;
    EXPECT_LE(stac->quality.recall, full->quality.recall + 1e-9) << q;
  }
}

TEST(IntegrationTest, FullSfaProbabilityUpperBoundsOthers) {
  auto wb = Workbench::Create(SmallSpec(DatasetKind::kDbPapers));
  ASSERT_TRUE(wb.ok());
  rdbms::QueryOptions q;
  q.pattern = "database";
  auto full = RunOnce((*wb)->session(), Approach::kFullSfa, q);
  auto stac = RunOnce((*wb)->session(), Approach::kStaccato, q);
  ASSERT_TRUE(full.ok() && stac.ok());
  std::map<DocId, double> full_p;
  for (const Answer& a : *full) full_p[a.doc] = a.prob;
  for (const Answer& a : *stac) {
    auto it = full_p.find(a.doc);
    ASSERT_NE(it, full_p.end())
        << "Staccato retrieved doc " << a.doc << " that FullSFA missed";
    EXPECT_LE(a.prob, it->second + 1e-9);
  }
}

TEST(IntegrationTest, GroundTruthMatchesCorpus) {
  auto spec = SmallSpec(DatasetKind::kLiterature);
  auto wb = Workbench::Create(spec);
  ASSERT_TRUE(wb.ok());
  auto truth = (*wb)->db().GroundTruthFor("Kerouac");
  ASSERT_TRUE(truth.ok());
  size_t expected = 0;
  for (const std::string& line : (*wb)->dataset().corpus.lines) {
    if (line.find("Kerouac") != std::string::npos) ++expected;
  }
  EXPECT_EQ(truth->size(), expected);
}

TEST(IntegrationTest, IndexedQueryMatchesFilescan) {
  auto wb = Workbench::Create(SmallSpec(DatasetKind::kCongressActs, true));
  ASSERT_TRUE(wb.ok()) << wb.status().ToString();
  rdbms::QueryOptions scan_q;
  scan_q.pattern = "Public Law (8|9)\\d";
  scan_q.index_mode = rdbms::IndexMode::kNever;
  rdbms::QueryStats scan_stats, idx_stats;
  auto scan =
      RunOnce((*wb)->session(), Approach::kStaccato, scan_q, &scan_stats);
  rdbms::QueryOptions idx_q = scan_q;
  idx_q.index_mode = rdbms::IndexMode::kForce;
  auto idx = RunOnce((*wb)->session(), Approach::kStaccato, idx_q, &idx_stats);
  ASSERT_TRUE(scan.ok() && idx.ok());
  EXPECT_LE(idx_stats.candidates, scan_stats.candidates);
  // Every filescan answer whose line contains the anchor term must also be
  // found by the indexed path, with the same probability.
  std::map<DocId, double> idx_p;
  for (const Answer& a : *idx) idx_p[a.doc] = a.prob;
  for (const Answer& a : *scan) {
    auto it = idx_p.find(a.doc);
    if (it != idx_p.end()) {
      EXPECT_NEAR(it->second, a.prob, 1e-9);
    }
  }
}

TEST(IntegrationTest, StorageReportConsistent) {
  auto wb = Workbench::Create(SmallSpec(DatasetKind::kCongressActs));
  ASSERT_TRUE(wb.ok());
  auto report = (*wb)->db().Storage();
  EXPECT_GT(report.kmap_table_bytes, 0u);
  EXPECT_GT(report.staccato_table_bytes, 0u);
  EXPECT_GT(report.blob_bytes, 0u);
}

TEST(IntegrationTest, BlobRoundTripPreservesSfas) {
  auto wb = Workbench::Create(SmallSpec(DatasetKind::kDbPapers));
  ASSERT_TRUE(wb.ok());
  for (DocId d : {DocId{0}, DocId{7}, DocId{59}}) {
    auto full_blob = (*wb)->db().ReadFullSfaBlob(d);
    ASSERT_TRUE(full_blob.ok());
    auto full = Sfa::Deserialize(*full_blob);
    ASSERT_TRUE(full.ok());
    EXPECT_EQ(full->NumEdges(), (*wb)->dataset().sfas[d].NumEdges());
    auto chunked_blob = (*wb)->db().ReadStaccatoBlob(d);
    ASSERT_TRUE(chunked_blob.ok());
    auto chunked = Sfa::Deserialize(*chunked_blob);
    ASSERT_TRUE(chunked.ok());
    EXPECT_LE(chunked->NumEdges(), 20u);
  }
}

TEST(IntegrationTest, NumAnsLimitsAnswers) {
  auto wb = Workbench::Create(SmallSpec(DatasetKind::kDbPapers));
  ASSERT_TRUE(wb.ok());
  auto row5 = (*wb)->Run(Approach::kFullSfa, "\\x\\x\\x\\d\\d", /*num_ans=*/5);
  ASSERT_TRUE(row5.ok());
  EXPECT_LE(row5->answers, 5u);
  auto row100 = (*wb)->Run(Approach::kFullSfa, "\\x\\x\\x\\d\\d", 100);
  ASSERT_TRUE(row100.ok());
  EXPECT_GE(row100->answers, row5->answers);
  EXPECT_GE(row100->quality.recall, row5->quality.recall - 1e-9);
}

TEST(IntegrationTest, SqlMatchesPatternQuery) {
  // No index on this workbench: the SQL statement plans cost-based
  // (kAuto) while the pattern query pins a full scan, so equality of the
  // two answer sets holds only when both resolve to the scan. With an
  // index built, the SQL plan may legitimately probe it and prune
  // candidates.
  auto wb = Workbench::Create(SmallSpec(DatasetKind::kCongressActs));
  ASSERT_TRUE(wb.ok());
  Session& session = (*wb)->session();
  auto via_sql = RunSqlOnce(
      session, Approach::kStaccato,
      "SELECT DataKey FROM Docs WHERE DocData LIKE '%President%';");
  ASSERT_TRUE(via_sql.ok()) << via_sql.status().ToString();
  rdbms::QueryOptions q;
  q.pattern = "President";
  q.index_mode = rdbms::IndexMode::kNever;
  auto direct = RunOnce(session, Approach::kStaccato, q);
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(via_sql->size(), direct->size());
  for (size_t i = 0; i < direct->size(); ++i) {
    EXPECT_EQ((*via_sql)[i].doc, (*direct)[i].doc);
    EXPECT_EQ((*via_sql)[i].prob, (*direct)[i].prob);
  }
  // The paper's query shape with an equality predicate now executes
  // end-to-end (Year is a MasterData column; page 0 is dated 2010).
  auto filtered = RunSqlOnce(session, Approach::kStaccato,
                             "SELECT DataKey FROM Docs WHERE Year = 2010 AND "
                             "DocData LIKE '%President%';");
  ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
  EXPECT_LE(filtered->size(), direct->size());
  // Unsupported shapes are rejected cleanly.
  EXPECT_TRUE(RunSqlOnce(session, Approach::kMap, "SELECT a FROM t")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(RunSqlOnce(session, Approach::kMap,
                         "SELECT a FROM t WHERE NoSuchColumn = 1 AND "
                         "DocData LIKE '%x%'")
                  .status()
                  .IsInvalidArgument());
}

TEST(IntegrationTest, ReopenedDatabaseAnswersIdentically) {
  auto spec = SmallSpec(DatasetKind::kCongressActs, /*index=*/true);
  auto wb = Workbench::Create(spec);
  ASSERT_TRUE(wb.ok()) << wb.status().ToString();
  rdbms::QueryOptions q;
  q.pattern = "Public Law (8|9)\\d";
  q.index_mode = rdbms::IndexMode::kNever;
  auto before = RunOnce((*wb)->session(), Approach::kStaccato, q);
  auto before_full = RunOnce((*wb)->session(), Approach::kFullSfa, q);
  ASSERT_TRUE(before.ok() && before_full.ok());
  std::string dir = (*wb)->spec().work_dir;
  wb->reset();  // close the database, flushing everything

  auto reopened = rdbms::StaccatoDb::OpenExisting(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->NumSfas(), 60u);
  Session session(reopened->get());
  auto after = RunOnce(session, Approach::kStaccato, q);
  auto after_full = RunOnce(session, Approach::kFullSfa, q);
  ASSERT_TRUE(after.ok() && after_full.ok());
  ASSERT_EQ(after->size(), before->size());
  for (size_t i = 0; i < after->size(); ++i) {
    EXPECT_EQ((*after)[i].doc, (*before)[i].doc);
    EXPECT_NEAR((*after)[i].prob, (*before)[i].prob, 1e-12);
  }
  ASSERT_EQ(after_full->size(), before_full->size());
  // The rebuilt inverted index must serve anchored queries identically.
  rdbms::QueryOptions iq = q;
  iq.index_mode = rdbms::IndexMode::kForce;
  rdbms::QueryStats stats;
  auto indexed = RunOnce(session, Approach::kStaccato, iq, &stats);
  ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
  EXPECT_LT(stats.selectivity, 1.0);
}

TEST(IntegrationTest, MapFasterThanFullSfa) {
  auto wb = Workbench::Create(SmallSpec(DatasetKind::kCongressActs));
  ASSERT_TRUE(wb.ok());
  auto map = (*wb)->Run(Approach::kMap, "Commission");
  auto full = (*wb)->Run(Approach::kFullSfa, "Commission");
  ASSERT_TRUE(map.ok() && full.ok());
  EXPECT_LT(map->stats.seconds, full->stats.seconds)
      << "filescan over text must beat blob deserialization + DP";
}

}  // namespace
}  // namespace staccato
