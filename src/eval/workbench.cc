#include "eval/workbench.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>

#include "automata/trie.h"
#include "util/strings.h"

namespace staccato::eval {

std::string MakeScratchDir(const std::string& hint) {
  static std::atomic<uint64_t> counter{0};
  std::string dir = StringPrintf("/tmp/staccato_work/%s-%d-%llu", hint.c_str(),
                                 static_cast<int>(getpid()),
                                 static_cast<unsigned long long>(counter++));
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir;
}

Result<std::unique_ptr<Workbench>> Workbench::Create(const WorkbenchSpec& spec) {
  auto wb = std::make_unique<Workbench>();
  wb->spec_ = spec;
  if (wb->spec_.work_dir.empty()) {
    wb->spec_.work_dir = MakeScratchDir(DatasetName(spec.corpus.kind));
  }
  STACCATO_ASSIGN_OR_RETURN(wb->dataset_,
                            GenerateOcrDataset(spec.corpus, spec.noise));
  // Experiments default to serial evaluation so the paper's timing
  // comparisons are undisturbed; Run's eval_threads opts into parallelism.
  const rdbms::SessionOptions session_opts{/*eval_threads=*/1,
                                           /*num_ans=*/100};
  STACCATO_ASSIGN_OR_RETURN(wb->db_,
                            StaccatoDb::Open(wb->spec_.work_dir, spec.cache));
  STACCATO_RETURN_NOT_OK(wb->db_->Load(wb->dataset_, spec.load));
  if (spec.build_index) {
    std::vector<std::string> dict =
        BuildDictionaryFromCorpus(wb->dataset_.corpus.lines);
    STACCATO_RETURN_NOT_OK(wb->db_->BuildInvertedIndex(dict));
  }
  wb->session_ = std::make_unique<Session>(wb->db_.get(), session_opts);
  return wb;
}

Result<ExperimentRow> Workbench::Run(Approach approach,
                                     const std::string& pattern,
                                     size_t num_ans, bool use_index,
                                     bool use_projection,
                                     size_t eval_threads) {
  ExperimentRow row;
  row.pattern = pattern;
  row.approach = approach;
  QueryOptions q;
  q.pattern = pattern;
  q.num_ans = num_ans;
  // Benches measure the path they name, so the boolean pins the candidate
  // source; cost-based choice (kAuto) is exercised via session()/Prepare.
  q.index_mode =
      use_index ? rdbms::IndexMode::kForce : rdbms::IndexMode::kNever;
  q.use_projection = use_projection;
  q.eval_threads = eval_threads;
  STACCATO_ASSIGN_OR_RETURN(PreparedQuery pq, session_->Prepare(approach, q));
  STACCATO_RETURN_NOT_OK(db_->DropCaches());
  STACCATO_ASSIGN_OR_RETURN(std::vector<Answer> answers,
                            pq.Execute(&row.stats));
  STACCATO_ASSIGN_OR_RETURN(std::set<DocId> truth,
                            db_->GroundTruthFor(pattern));
  row.quality = ScoreAnswers(answers, truth);
  row.truth_size = truth.size();
  row.answers = answers.size();
  return row;
}

void PrintHeader(const std::string& title) {
  printf("\n==== %s ====\n", title.c_str());
}

void PrintRow(const std::vector<std::string>& cells,
              const std::vector<int>& widths) {
  for (size_t i = 0; i < cells.size(); ++i) {
    int w = i < widths.size() ? widths[i] : 12;
    printf("%-*s", w, cells[i].c_str());
  }
  printf("\n");
}

}  // namespace staccato::eval
