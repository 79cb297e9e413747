// The paper's motivating scenario (Section 2.1): an insurance company
// stores scanned claim forms and asks
//
//   SELECT DocID, Loss FROM Claims
//   WHERE Year = 2010 AND DocData LIKE '%Ford%';
//
// We simulate the scanned forms through the OCR channel, load all four
// representations into the mini-RDBMS, and compare what each approach
// retrieves against ground truth.
#include <cstdio>

#include "eval/workbench.h"
#include "ocr/generator.h"
#include "rdbms/session.h"
#include "rdbms/staccato_db.h"
#include "util/random.h"
#include "util/strings.h"

using namespace staccato;
using rdbms::Approach;
using rdbms::LoadOptions;
using rdbms::QueryOptions;
using rdbms::QueryStats;
using rdbms::StaccatoDb;

namespace {

// Hand-rolled claim-form corpus: some claims mention Ford, some don't.
OcrDataset MakeClaimsDataset() {
  std::vector<std::string> vehicles = {"Ford",  "Honda", "Toyota",
                                       "Dodge", "Chevy", "Buick"};
  std::vector<std::string> incidents = {"rear end collision", "hail damage",
                                        "parking lot scrape", "theft of parts",
                                        "flood damage",       "fire loss"};
  Rng rng(2010);
  OcrDataset ds;
  ds.corpus.name = "Claims";
  OcrNoiseModel noise;
  noise.p_error = 0.22;  // scanned forms are messy
  noise.alternatives = 8;
  for (int i = 0; i < 80; ++i) {
    std::string line = StringPrintf(
        "Claim %04d %s involving a %s vehicle loss %d00 dollars", 1000 + i,
        rng.Choice(incidents).c_str(), rng.Choice(vehicles).c_str(),
        static_cast<int>(rng.UniformInt(3, 99)));
    ds.corpus.lines.push_back(line);
    ds.corpus.page_of_line.push_back(static_cast<uint32_t>(i / 10));
    auto sfa = OcrLineToSfa(line, noise, &rng);
    if (sfa.ok()) ds.sfas.push_back(std::move(*sfa));
  }
  ds.corpus.num_pages = 8;
  return ds;
}

}  // namespace

int main() {
  printf("Scanning 80 claim forms through the OCR channel...\n");
  OcrDataset ds = MakeClaimsDataset();

  std::string dir = eval::MakeScratchDir("claims");
  auto db = StaccatoDb::Open(dir);
  if (!db.ok()) {
    fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  LoadOptions load;
  load.kmap_k = 10;
  load.staccato = {15, 10, true};
  if (Status st = (*db)->Load(ds, load); !st.ok()) {
    fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  // The paper's statement runs verbatim through the prepared-query engine:
  // the Year equality filters candidates on MasterData (claims are dated
  // 2010 + page, so Year = 2010 keeps the first page of forms) before any
  // SFA is fetched or evaluated.
  const std::string sql =
      "SELECT DocID, Loss FROM Claims "
      "WHERE Year = 2010 AND DocData LIKE '%Ford%';";
  printf("\nSQL: %s\n", sql.c_str());
  rdbms::Session session(db->get());
  auto prepared = session.PrepareSql(rdbms::Approach::kStaccato, sql);
  if (!prepared.ok()) {
    fprintf(stderr, "%s\n", prepared.status().ToString().c_str());
    return 1;
  }
  printf("\n%s\n", prepared->Explain().c_str());
  QueryStats sql_stats;
  auto year_2010 = prepared->Execute(&sql_stats);
  if (!year_2010.ok()) {
    fprintf(stderr, "%s\n", year_2010.status().ToString().c_str());
    return 1;
  }
  printf("Year = 2010 claims matching 'Ford' (of %zu candidate forms):\n",
         sql_stats.candidates);
  for (const Answer& ans : *year_2010) {
    printf("  DocID %3llu  Pr = %.3g  %s\n",
           static_cast<unsigned long long>(ans.doc), ans.prob,
           ds.corpus.lines[ans.doc].substr(0, 44).c_str());
  }
  printf("  (plan: %s)\n", sql_stats.plan_summary.c_str());

  const std::string& pattern = prepared->plan().pattern;
  auto truth = (*db)->GroundTruthFor(pattern);
  printf("Ground truth: %zu claims actually mention 'Ford'\n\n", truth->size());

  printf("%-10s %8s %8s %8s %10s\n", "approach", "found", "recall", "prec",
         "time(ms)");
  // Serial Eval, so the timings compare the approaches' work.
  QueryOptions q;
  q.pattern = pattern;
  q.eval_threads = 1;
  for (Approach a : {Approach::kMap, Approach::kKMap, Approach::kFullSfa,
                     Approach::kStaccato}) {
    auto pq = session.Prepare(a, q);
    if (!pq.ok()) continue;
    QueryStats stats;
    auto answers = pq->Execute(&stats);
    if (!answers.ok()) continue;
    size_t hits = 0;
    for (const Answer& ans : *answers) hits += truth->count(ans.doc);
    double recall = truth->empty() ? 1.0 : double(hits) / double(truth->size());
    double prec = answers->empty() ? 0.0 : double(hits) / double(answers->size());
    printf("%-10s %8zu %8.2f %8.2f %10.2f\n", rdbms::ApproachName(a),
           answers->size(), recall, prec, stats.seconds * 1e3);
  }

  printf("\nTop Staccato answers (probabilistic relation):\n");
  auto staccato = session.Prepare(Approach::kStaccato, q);
  if (!staccato.ok()) {
    fprintf(stderr, "%s\n", staccato.status().ToString().c_str());
    return 1;
  }
  auto answers = staccato->Execute();
  if (!answers.ok()) {
    fprintf(stderr, "%s\n", answers.status().ToString().c_str());
    return 1;
  }
  int shown = 0;
  for (const Answer& ans : *answers) {
    printf("  DocID %3llu  Pr = %.3g  %s  truth: %s\n",
           static_cast<unsigned long long>(ans.doc), ans.prob,
           ds.corpus.lines[ans.doc].substr(0, 44).c_str(),
           truth->count(ans.doc) ? "yes" : "NO");
    if (++shown >= 8) break;
  }
  printf("\nThe MAP approach silently drops claims whose OCR misread 'Ford'\n"
         "(e.g. as 'F0rd'); the probabilistic representations recover them.\n");
  return 0;
}
