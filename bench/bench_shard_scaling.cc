// Shard-scaling bench: scatter-gather query latency and ingest
// throughput at each shard count.
//
// Two sections:
//
//  1. Cold / warm selective top-5 latency at 1/2/4/8 shards. Each query
//     runs with eval_threads=1 per shard so the measured parallelism is
//     the scatter over shards, not the intra-shard Eval fan-out. Cold
//     drops every shard's buffer cache first; warm reuses it. The same
//     ShardedDb facade serves every shard count, so the 1-shard row IS
//     the baseline (bit-identical answers at every count).
//
//  2. Ingest throughput at each shard count: Append routes each document
//     to its owning shard's WAL + delta, so this prices the per-shard
//     WAL bookkeeping against the single-WAL baseline.
//
// The scatter speedup needs real cores: ParallelFor schedules one task
// per shard on the shared pool, so wall clock improves only up to
// min(shards, pool size). The pool is sized from STACCATO_THREADS (set
// to 8 below if unset) but cannot beat the machine; hardware_threads in
// the JSON records what this run had to work with.
//
// Writes BENCH_shard.json with the headline numbers for CI artifacts.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "eval/workbench.h"
#include "ocr/corpus.h"
#include "ocr/generator.h"
#include "rdbms/session.h"
#include "rdbms/shard.h"
#include "util/strings.h"
#include "util/timer.h"

using namespace staccato;
using rdbms::Approach;
using rdbms::DocumentInput;
using rdbms::IndexMode;
using rdbms::LoadOptions;
using rdbms::QueryOptions;
using rdbms::ShardConfig;
using rdbms::ShardedDb;

namespace {

OcrDataset MakeDataset() {
  CorpusSpec spec;
  spec.kind = DatasetKind::kCongressActs;
  spec.num_pages = 8;
  spec.lines_per_page = 64;
  spec.seed = 9090;
  OcrNoiseModel noise;
  noise.alternatives = 10;
  auto data = GenerateOcrDataset(spec, noise);
  if (!data.ok()) {
    fprintf(stderr, "dataset: %s\n", data.status().ToString().c_str());
    exit(1);
  }
  return std::move(*data);
}

LoadOptions BenchLoad() {
  LoadOptions opts;
  opts.kmap_k = 8;
  opts.staccato = {25, 10, true};
  return opts;
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

DocumentInput InputFor(const OcrDataset& d, size_t i) {
  DocumentInput in;
  const uint32_t page = d.corpus.page_of_line[i];
  in.doc_name = StringPrintf("%s-page-%u", d.corpus.name.c_str(), page);
  in.year = 2010 + page;
  in.truth = d.corpus.lines[i];
  in.sfa = d.sfas[i];
  return in;
}

QueryOptions SelectiveTop5(const std::string& pattern) {
  QueryOptions q;
  q.pattern = pattern;
  q.num_ans = 5;
  q.index_mode = IndexMode::kNever;  // full scatter scan on every shard
  q.eval_threads = 1;                // parallelism = shards, nothing else
  q.early_stop = true;
  return q;
}

// One timed prepare + execute in a fresh Session; exits on failure so
// every row is a real number.
double QueryMs(ShardedDb* db, const QueryOptions& q) {
  Timer t;
  rdbms::Session session(db);
  auto pq = session.Prepare(Approach::kStaccato, q);
  if (!pq.ok()) {
    fprintf(stderr, "prepare: %s\n", pq.status().ToString().c_str());
    exit(1);
  }
  auto answers = pq->Execute();
  if (!answers.ok()) {
    fprintf(stderr, "query: %s\n", answers.status().ToString().c_str());
    exit(1);
  }
  return t.ElapsedMillis();
}

double ColdBestOf(ShardedDb* db, const QueryOptions& q, int reps) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    if (!db->DropCaches().ok()) exit(1);
    const double ms = QueryMs(db, q);
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

double WarmBestOf(ShardedDb* db, const QueryOptions& q, int reps) {
  QueryMs(db, q);  // populate the caches
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    const double ms = QueryMs(db, q);
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

}  // namespace

int main() {
  // Size the shared pool for the widest scatter regardless of what
  // hardware_concurrency reports (cgroup-limited CI runners lie); the
  // pool is created lazily on first use, so this must happen first.
  setenv("STACCATO_THREADS", "8", /*overwrite=*/0);

  const OcrDataset data = MakeDataset();
  const size_t total = data.sfas.size();
  const size_t base = total / 2;
  const std::string pattern = DatasetQueries(DatasetKind::kCongressActs)[0];
  const size_t hw = std::thread::hardware_concurrency();

  const std::vector<size_t> kShards = {1, 2, 4, 8};
  constexpr int kReps = 3;
  std::vector<double> cold_ms, warm_ms, appends_per_sec;

  eval::PrintHeader("Scatter-gather selective top-5 (eval_threads=1/shard)");
  eval::PrintRow({"shards", "cold ms", "warm ms", "appends/s"}, {8, 10, 10, 11});
  for (size_t n : kShards) {
    const std::string dir =
        eval::MakeScratchDir(StringPrintf("bench_shard%zu", n));
    auto db = ShardedDb::Open(dir, ShardConfig{n});
    if (!db.ok()) {
      fprintf(stderr, "open: %s\n", db.status().ToString().c_str());
      return 1;
    }
    if (!(*db)->Load(Prefix(data, base), BenchLoad()).ok()) return 1;

    // ---- 2. Ingest throughput: Append routes to the owning shard -------
    Timer ingest_t;
    for (size_t i = base; i < total; ++i) {
      if (!(*db)->Append(InputFor(data, i)).ok()) {
        fprintf(stderr, "append failed at doc %zu\n", i);
        return 1;
      }
    }
    appends_per_sec.push_back((total - base) / ingest_t.ElapsedSeconds());

    // ---- 1. Cold / warm latency ----------------------------------------
    const QueryOptions q = SelectiveTop5(pattern);
    cold_ms.push_back(ColdBestOf(db->get(), q, kReps));
    warm_ms.push_back(WarmBestOf(db->get(), q, kReps));
    eval::PrintRow({std::to_string(n), StringPrintf("%.2f", cold_ms.back()),
                    StringPrintf("%.2f", warm_ms.back()),
                    StringPrintf("%.0f", appends_per_sec.back())},
                   {8, 10, 10, 11});
  }

  const double speedup4 = cold_ms[0] / cold_ms[2];
  printf("\ncold top-5 speedup at 4 shards: %.2fx (hardware threads: %zu)\n",
         speedup4, hw);

  FILE* json = fopen("BENCH_shard.json", "w");
  if (json != nullptr) {
    fprintf(json,
            "{\n"
            "  \"bench\": \"shard_scaling\",\n"
            "  \"docs\": %zu,\n"
            "  \"hardware_threads\": %zu,\n"
            "  \"shards\": [1, 2, 4, 8],\n"
            "  \"cold_top5_ms\": [%.3f, %.3f, %.3f, %.3f],\n"
            "  \"warm_top5_ms\": [%.3f, %.3f, %.3f, %.3f],\n"
            "  \"ingest_appends_per_sec\": [%.1f, %.1f, %.1f, %.1f],\n"
            "  \"cold_speedup_4_shards\": %.3f\n"
            "}\n",
            total, hw, cold_ms[0], cold_ms[1], cold_ms[2], cold_ms[3],
            warm_ms[0], warm_ms[1], warm_ms[2], warm_ms[3],
            appends_per_sec[0], appends_per_sec[1], appends_per_sec[2],
            appends_per_sec[3], speedup4);
    fclose(json);
    printf("wrote BENCH_shard.json\n");
  }
  return 0;
}
