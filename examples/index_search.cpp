// Dictionary-based inverted indexing over OCR transducers (Section 4).
//
// Directly indexing an SFA is hopeless (the number of represented terms is
// exponential); Staccato instead indexes only dictionary terms and uses the
// left anchor of a regex to prune the filescan. This example builds the
// index over a Congress-Acts dataset and contrasts an anchored regex query
// run as a filescan vs. through the index.
#include <cstdio>

#include "automata/pattern.h"
#include "eval/workbench.h"
#include "indexing/index_builder.h"
#include "ocr/corpus.h"
#include "rdbms/staccato_db.h"

using namespace staccato;
using eval::Workbench;
using eval::WorkbenchSpec;
using rdbms::Approach;

int main() {
  WorkbenchSpec spec;
  spec.corpus.kind = DatasetKind::kCongressActs;
  spec.corpus.num_pages = 6;
  spec.corpus.lines_per_page = 40;
  spec.noise.alternatives = 8;
  spec.load.kmap_k = 10;
  spec.load.staccato = {25, 10, true};
  spec.build_index = true;

  printf("Loading CA dataset and building the dictionary index...\n");
  auto wb = Workbench::Create(spec);
  if (!wb.ok()) {
    fprintf(stderr, "%s\n", wb.status().ToString().c_str());
    return 1;
  }

  // Why a dictionary? Show the direct-indexing blowup on one SFA.
  auto blob = (*wb)->db().ReadStaccatoBlob(0);
  if (blob.ok()) {
    if (auto sfa = Sfa::Deserialize(*blob); sfa.ok()) {
      printf("\nDirect index of SFA #0 alone would hold ~%.2e postings;\n"
             "the dictionary index stores only real terms.\n",
             EstimateDirectIndexPostings(*sfa));
    }
  }

  const std::string query = "Public Law (8|9)\\d";
  auto pattern = Pattern::Parse(query);
  printf("\nQuery: '%s'  (left anchor term: '%s')\n", query.c_str(),
         pattern->AnchorTerm().c_str());

  // The planner's view of the two physical alternatives (pinned), then
  // what the cost model picks on its own.
  for (rdbms::IndexMode mode :
       {rdbms::IndexMode::kNever, rdbms::IndexMode::kForce,
        rdbms::IndexMode::kAuto}) {
    rdbms::QueryOptions q;
    q.pattern = query;
    q.index_mode = mode;
    auto pq = (*wb)->Prepare(Approach::kStaccato, q);
    if (pq.ok()) {
      printf("\nindex_mode=%s:\n%s", rdbms::IndexModeName(mode),
             pq->Explain().c_str());
    }
  }

  auto scan = (*wb)->Run(Approach::kStaccato, query, 100, /*use_index=*/false);
  auto indexed = (*wb)->Run(Approach::kStaccato, query, 100, /*use_index=*/true);
  if (!scan.ok() || !indexed.ok()) {
    fprintf(stderr, "query failed\n");
    return 1;
  }
  printf("\n%-12s %10s %12s %10s %10s %12s\n", "mode", "time(ms)", "candidates",
         "recall", "precision", "selectivity");
  printf("%-12s %10.2f %12zu %10.2f %10.2f %11.1f%%\n", "filescan",
         scan->stats.seconds * 1e3, scan->stats.candidates, scan->quality.recall,
         scan->quality.precision, scan->stats.selectivity * 100);
  printf("%-12s %10.2f %12zu %10.2f %10.2f %11.1f%%\n", "indexed",
         indexed->stats.seconds * 1e3, indexed->stats.candidates,
         indexed->quality.recall, indexed->quality.precision,
         indexed->stats.selectivity * 100);

  printf("\nWith projection (fetch only the SFA region around each posting):\n");
  auto projected = (*wb)->Run(Approach::kStaccato, query, 100,
                              /*use_index=*/true, /*use_projection=*/true);
  if (projected.ok()) {
    printf("%-12s %10.2f %12zu %10.2f %10.2f\n", "projected",
           projected->stats.seconds * 1e3, projected->stats.candidates,
           projected->quality.recall, projected->quality.precision);
  }
  printf("\nThe index prunes the scan to the SFAs whose representation can\n"
         "actually contain the anchor term, at identical answer quality for\n"
         "anchored patterns.\n");
  return 0;
}
