// Shared experiment driver: generates a synthetic OCR dataset, loads it
// into a StaccatoDb, and runs quality/performance measurements. Every bench
// binary builds on this so the tables and figures are produced uniformly.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "metrics/metrics.h"
#include "ocr/corpus.h"
#include "rdbms/session.h"
#include "rdbms/staccato_db.h"
#include "util/result.h"

namespace staccato::eval {

using rdbms::Approach;
using rdbms::LoadOptions;
using rdbms::PreparedQuery;
using rdbms::QueryOptions;
using rdbms::QueryStats;
using rdbms::Session;
using rdbms::StaccatoDb;

/// \brief Everything a bench needs to describe a dataset + representation.
struct WorkbenchSpec {
  CorpusSpec corpus;
  OcrNoiseModel noise;
  LoadOptions load;
  std::string work_dir;  ///< empty = unique directory under /tmp
  bool build_index = false;
  /// Shared buffer-cache sizing passed to StaccatoDb::Open; the default
  /// honors STACCATO_CACHE_MB, and budget_bytes = 0 disables caching.
  cache::CacheConfig cache = cache::CacheConfig::Default();
};

/// \brief One measured query execution.
struct ExperimentRow {
  std::string pattern;
  Approach approach = Approach::kMap;
  QualityScores quality;
  QueryStats stats;
  size_t truth_size = 0;
  size_t answers = 0;
};

/// \brief A generated dataset loaded into a database.
class Workbench {
 public:
  static Result<std::unique_ptr<Workbench>> Create(const WorkbenchSpec& spec);

  /// Runs one query through the session layer (Prepare + Execute) and
  /// scores it against ground truth. `eval_threads` feeds the parallel
  /// Eval stage (1 = serial, which is also the session default for 0).
  /// `use_index` pins the candidate source (IndexMode::kForce / kNever) so
  /// a bench row measures the path it names; use session().Prepare with
  /// the default IndexMode::kAuto to exercise the cost-based choice.
  Result<ExperimentRow> Run(Approach approach, const std::string& pattern,
                            size_t num_ans = 100, bool use_index = false,
                            bool use_projection = false,
                            size_t eval_threads = 1);

  /// Prepares a query for repeated execution against this dataset.
  Result<PreparedQuery> Prepare(Approach approach, const QueryOptions& q) {
    return session_->Prepare(approach, q);
  }

  const OcrDataset& dataset() const { return dataset_; }
  StaccatoDb& db() { return *db_; }
  Session& session() { return *session_; }
  const WorkbenchSpec& spec() const { return spec_; }

 private:
  WorkbenchSpec spec_;
  OcrDataset dataset_;
  std::unique_ptr<StaccatoDb> db_;
  std::unique_ptr<Session> session_;
};

/// Makes a fresh scratch directory under the system temp dir.
std::string MakeScratchDir(const std::string& hint);

/// Paper-style fixed-width table printing helpers for the bench binaries.
void PrintHeader(const std::string& title);
void PrintRow(const std::vector<std::string>& cells,
              const std::vector<int>& widths);

}  // namespace staccato::eval
