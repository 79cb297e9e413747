// The recall-sensitive scholar scenario (Section 1): an English professor
// searching a digitized literature archive wants *every* occurrence of a
// term, not just the ones OCR transcribed correctly. This example loads the
// LT (English Literature) dataset and compares what each representation
// retrieves for the Table-6 literature queries, including the earliest page
// on which each term occurs — the kind of question where a recall miss
// silently corrupts scholarship.
#include <cstdio>

#include <algorithm>

#include "eval/workbench.h"
#include "ocr/corpus.h"
#include "rdbms/staccato_db.h"

using namespace staccato;
using eval::Workbench;
using eval::WorkbenchSpec;
using rdbms::Approach;

int main() {
  WorkbenchSpec spec;
  spec.corpus.kind = DatasetKind::kLiterature;
  spec.corpus.num_pages = 6;
  spec.corpus.lines_per_page = 40;
  spec.noise.alternatives = 8;
  spec.noise.p_error = 0.18;
  spec.load.kmap_k = 25;
  spec.load.staccato = {30, 15, true};

  printf("Digitizing a %zu-page literature archive (%zu lines)...\n",
         spec.corpus.num_pages, spec.corpus.num_pages * spec.corpus.lines_per_page);
  auto wb = Workbench::Create(spec);
  if (!wb.ok()) {
    fprintf(stderr, "%s\n", wb.status().ToString().c_str());
    return 1;
  }

  const auto& corpus = (*wb)->dataset().corpus;
  printf("\n%-14s %6s | %-18s | %-18s | %s\n", "query", "truth", "MAP recall",
         "STACCATO recall", "earliest page (MAP vs STACCATO vs truth)");
  for (const std::string& query :
       {std::string("Kerouac"), std::string("Brinkmann"),
        std::string("Third Reich"), std::string("19\\d\\d, \\d\\d")}) {
    auto map = (*wb)->Run(Approach::kMap, query);
    auto stac = (*wb)->Run(Approach::kStaccato, query);
    if (!map.ok() || !stac.ok()) continue;

    auto truth = (*wb)->db().GroundTruthFor(query);
    auto earliest_page = [&](const std::vector<Answer>& answers) -> int {
      int best = -1;
      for (const Answer& a : answers) {
        int page = static_cast<int>(corpus.page_of_line[a.doc]);
        if (best < 0 || page < best) best = page;
      }
      return best;
    };
    rdbms::QueryOptions q;
    q.pattern = query;
    auto answers_of = [&](Approach a) -> Result<std::vector<Answer>> {
      STACCATO_ASSIGN_OR_RETURN(rdbms::PreparedQuery pq, (*wb)->Prepare(a, q));
      return pq.Execute();
    };
    auto map_ans = answers_of(Approach::kMap);
    auto stac_ans = answers_of(Approach::kStaccato);
    if (!map_ans.ok() || !stac_ans.ok()) continue;
    int truth_page = -1;
    for (DocId d : *truth) {
      int page = static_cast<int>(corpus.page_of_line[d]);
      if (truth_page < 0 || page < truth_page) truth_page = page;
    }
    printf("%-14s %6zu | recall %.2f        | recall %.2f        | %d vs %d vs %d\n",
           query.c_str(), map->truth_size, map->quality.recall,
           stac->quality.recall, earliest_page(*map_ans),
           earliest_page(*stac_ans), truth_page);
  }

  printf("\nWhen the MAP transcription garbles the earliest occurrence, the\n"
         "scholar dates the term too late; the probabilistic representation\n"
         "recovers it (at a tunable query-time cost).\n");
  return 0;
}
