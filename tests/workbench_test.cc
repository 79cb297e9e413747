#include <gtest/gtest.h>

#include "eval/workbench.h"
#include "metrics/metrics.h"
#include "ocr/corpus.h"

namespace staccato {
namespace {

using eval::Workbench;
using eval::WorkbenchSpec;
using rdbms::Approach;

TEST(MetricsTest, RankAnswersOrdersAndTruncates) {
  std::vector<Answer> answers = {{1, 0.2}, {2, 0.9}, {3, 0.0}, {4, 0.5}, {5, 0.5}};
  auto ranked = RankAnswers(answers, 3);
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].doc, 2u);
  EXPECT_EQ(ranked[1].doc, 4u);  // tie with 5 broken by doc id
  EXPECT_EQ(ranked[2].doc, 5u);
}

TEST(MetricsTest, ZeroProbDropped) {
  auto ranked = RankAnswers({{1, 0.0}, {2, 0.0}}, 10);
  EXPECT_TRUE(ranked.empty());
}

TEST(MetricsTest, ScoreEdgeCases) {
  QualityScores empty_both = ScoreAnswers({}, {});
  EXPECT_EQ(empty_both.precision, 1.0);
  EXPECT_EQ(empty_both.recall, 1.0);
  QualityScores nothing_found = ScoreAnswers({}, {1, 2});
  EXPECT_EQ(nothing_found.precision, 0.0);
  EXPECT_EQ(nothing_found.recall, 0.0);
  EXPECT_EQ(nothing_found.f1, 0.0);
  QualityScores half = ScoreAnswers({{1, 0.5}, {9, 0.4}}, {1, 2});
  EXPECT_EQ(half.precision, 0.5);
  EXPECT_EQ(half.recall, 0.5);
  EXPECT_NEAR(half.f1, 0.5, 1e-12);
}

TEST(WorkbenchTest, CreatesAndRuns) {
  WorkbenchSpec spec;
  spec.corpus.kind = DatasetKind::kDbPapers;
  spec.corpus.num_pages = 1;
  spec.corpus.lines_per_page = 15;
  spec.noise.alternatives = 6;
  spec.load.kmap_k = 5;
  spec.load.staccato = {10, 5, true};
  auto wb = Workbench::Create(spec);
  ASSERT_TRUE(wb.ok()) << wb.status().ToString();
  EXPECT_EQ((*wb)->db().NumSfas(), 15u);
  auto row = (*wb)->Run(Approach::kStaccato, "database");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->pattern, "database");
  EXPECT_EQ(row->approach, Approach::kStaccato);
  EXPECT_GT(row->stats.seconds, 0.0);
  EXPECT_LE(row->answers, 100u);
}

TEST(WorkbenchTest, InvalidPatternPropagates) {
  WorkbenchSpec spec;
  spec.corpus.num_pages = 1;
  spec.corpus.lines_per_page = 5;
  spec.noise.alternatives = 4;
  spec.load.kmap_k = 2;
  spec.load.staccato = {5, 2, true};
  auto wb = Workbench::Create(spec);
  ASSERT_TRUE(wb.ok());
  EXPECT_FALSE((*wb)->Run(Approach::kMap, "(unclosed").ok());
}

TEST(WorkbenchTest, ScratchDirsAreUnique) {
  std::string a = eval::MakeScratchDir("x");
  std::string b = eval::MakeScratchDir("x");
  EXPECT_NE(a, b);
}

TEST(WorkbenchTest, IndexedRunWithoutIndexFallsBackToScan) {
  WorkbenchSpec spec;
  spec.corpus.num_pages = 1;
  spec.corpus.lines_per_page = 8;
  spec.noise.alternatives = 4;
  spec.load.kmap_k = 2;
  spec.load.staccato = {5, 2, true};
  spec.build_index = false;
  auto wb = Workbench::Create(spec);
  ASSERT_TRUE(wb.ok());
  // use_index without a built index: the Staccato path returns
  // InvalidArgument from the candidates lookup... it must NOT crash, and a
  // plain run must succeed.
  auto plain = (*wb)->Run(Approach::kStaccato, "act");
  EXPECT_TRUE(plain.ok());
  auto indexed = (*wb)->Run(Approach::kStaccato, "act", 100, true);
  EXPECT_FALSE(indexed.ok());
}

}  // namespace
}  // namespace staccato
