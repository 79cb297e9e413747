// Work-counter gate: the executor's deterministic work figures, pinned.
//
// A seeded 2-page CA corpus is loaded into a StaccatoDb with caching off,
// and every Table 6 CA pattern runs with and without `Year = 2011` under
// each approach as a full-scan top-10 on one Eval thread, through
// Execute(&control, &stats) with an unlimited budget. One thread visits
// the candidates in a fixed order, so pruning, and with it every counter
// summed below, is the same on every run. The sums per approach are
// compared with kExpected; a change that moves them on purpose (a tighter
// prune bound, a filtered scan that skips pages) updates the table in the
// same change. On a mismatch the test prints the table the code now
// produces.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "eval/workbench.h"
#include "ocr/corpus.h"
#include "ocr/generator.h"
#include "rdbms/service.h"
#include "rdbms/session.h"
#include "rdbms/staccato_db.h"
#include "util/strings.h"

namespace staccato::rdbms {
namespace {

struct WorkCounters {
  uint64_t candidates = 0;
  uint64_t eval_pruned = 0;
  uint64_t eval_steps_saved = 0;
  uint64_t dp_steps = 0;
  uint64_t blob_bytes_read = 0;
  uint64_t heap_pages_read = 0;

  bool operator==(const WorkCounters& o) const {
    return candidates == o.candidates && eval_pruned == o.eval_pruned &&
           eval_steps_saved == o.eval_steps_saved && dp_steps == o.dp_steps &&
           blob_bytes_read == o.blob_bytes_read &&
           heap_pages_read == o.heap_pages_read;
  }
};

constexpr Approach kApproaches[] = {Approach::kMap, Approach::kKMap,
                                    Approach::kFullSfa, Approach::kStaccato};

// {candidates, eval_pruned, eval_steps_saved, dp_steps, blob_bytes_read,
//  heap_pages_read}, summed over the 14 queries of each approach.
constexpr WorkCounters kExpected[] = {
    /* MAP      */ {882, 0, 0, 0, 0, 119},
    /* k-MAP    */ {882, 0, 0, 0, 0, 119},
    /* FullSFA  */ {882, 85, 0, 7578390, 3602151, 7},
    /* STACCATO */ {882, 69, 0, 9844214, 1511174, 7},
};

std::string RenderTable(const std::vector<WorkCounters>& rows) {
  std::string out;
  for (size_t a = 0; a < rows.size(); ++a) {
    const WorkCounters& c = rows[a];
    out += StringPrintf(
        "    /* %-8s */ {%llu, %llu, %llu, %llu, %llu, %llu},\n",
        ApproachName(kApproaches[a]),
        static_cast<unsigned long long>(c.candidates),
        static_cast<unsigned long long>(c.eval_pruned),
        static_cast<unsigned long long>(c.eval_steps_saved),
        static_cast<unsigned long long>(c.dp_steps),
        static_cast<unsigned long long>(c.blob_bytes_read),
        static_cast<unsigned long long>(c.heap_pages_read));
  }
  return out;
}

TEST(WorkCountersTest, TableSixWorkMatchesPinnedTable) {
  CorpusSpec spec;
  spec.kind = DatasetKind::kCongressActs;
  spec.num_pages = 2;
  spec.seed = 20110;
  OcrNoiseModel noise;
  noise.alternatives = 6;
  auto dataset = GenerateOcrDataset(spec, noise);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  auto db = StaccatoDb::Open(eval::MakeScratchDir("work_counters"),
                             cache::CacheConfig{0, 0});
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  LoadOptions load;
  load.kmap_k = 8;
  load.staccato = {16, 8, true};
  ASSERT_TRUE((*db)->Load(*dataset, load).ok());

  std::vector<WorkCounters> got;
  for (Approach approach : kApproaches) {
    WorkCounters sum;
    for (const std::string& pattern :
         DatasetQueries(DatasetKind::kCongressActs)) {
      for (bool filtered : {false, true}) {
        QueryOptions q;
        q.pattern = pattern;
        q.num_ans = 10;
        q.index_mode = IndexMode::kNever;
        q.eval_threads = 1;
        if (filtered) q.equalities.push_back({"Year", "2011", false});
        // A fresh Session per query: no plan-cache entry serves a stage.
        Session session(db->get(), SessionOptions{1, 10});
        auto pq = session.Prepare(approach, q);
        ASSERT_TRUE(pq.ok()) << pq.status().ToString();
        QueryControl control{ExecBudget{}};
        QueryStats stats;
        auto answers = pq->Execute(&control, &stats);
        ASSERT_TRUE(answers.ok()) << answers.status().ToString();
        sum.candidates += stats.candidates;
        sum.eval_pruned += stats.eval_pruned;
        sum.eval_steps_saved += stats.eval_steps_saved;
        sum.dp_steps += control.dp_steps();
        sum.blob_bytes_read += stats.blob_bytes_read;
        sum.heap_pages_read += stats.heap_pages_read;
      }
    }
    got.push_back(sum);
  }
  const std::vector<WorkCounters> want(std::begin(kExpected),
                                       std::end(kExpected));
  EXPECT_TRUE(got == want)
      << "work counters moved; if the change means to move them, replace "
         "kExpected with:\n"
      << RenderTable(got);
}

}  // namespace
}  // namespace staccato::rdbms
