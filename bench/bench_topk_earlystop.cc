// Early-terminating top-k evaluation: threshold-pruned DP + the
// zero-allocation SfaView kernel, against the PR-3 baseline behavior.
//
// Three sections:
//
//  1. Kernel micro-bench over the stored Staccato blobs: the legacy
//     per-candidate unit (Sfa::Deserialize + vector-of-vectors DP, with a
//     fresh allocation profile per candidate) vs the flat-view kernel
//     with a warm EvalScratch. Heap allocations are counted by a
//     replacement operator new. The bench exits 1 unless both kernels
//     produce the same checksum (bit-identical answers) and the warm view
//     kernel performs no allocation at all.
//
//  2. End-to-end cold selective top-k (NumAns << candidates): pruning
//     off vs on, 1 vs N threads, over common patterns whose high k-th
//     best probability lets the threshold bite early.
//
//  3. A machine-readable BENCH_topk.json with the headline numbers, so CI
//     runs leave a perf trajectory.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "eval/workbench.h"
#include "inference/query_eval.h"
#include "rdbms/session.h"
#include "rdbms/staccato_db.h"
#include "util/parallel.h"
#include "util/timer.h"

// ---- Allocation counting ---------------------------------------------------
// Replacement global allocator: counts every heap allocation in the
// process. Only a bench binary may do this; the library never depends on
// it.
static std::atomic<uint64_t> g_allocs{0};

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace staccato;
using eval::Workbench;
using eval::WorkbenchSpec;
using rdbms::Approach;
using rdbms::IndexMode;
using rdbms::QueryOptions;
using rdbms::QueryStats;
using rdbms::Session;

namespace {

WorkbenchSpec BenchSpec() {
  WorkbenchSpec spec;
  spec.corpus.kind = DatasetKind::kCongressActs;
  spec.corpus.num_pages = 4;
  spec.corpus.lines_per_page = 42;
  spec.corpus.seed = 20110829;
  spec.noise.alternatives = 16;
  spec.load.kmap_k = 10;
  spec.load.staccato = {20, 10, true};
  spec.build_index = true;
  return spec;
}

struct KernelResult {
  double seconds = 0.0;
  uint64_t allocs = 0;
  double checksum = 0.0;
};

}  // namespace

int main() {
  auto wb = Workbench::Create(BenchSpec());
  if (!wb.ok()) {
    fprintf(stderr, "workbench: %s\n", wb.status().ToString().c_str());
    return 1;
  }
  rdbms::StaccatoDb& db = (*wb)->db();
  Session session(&db);

  // ---- 1. Kernel micro-bench over every stored Staccato blob ---------------
  std::vector<std::string> blobs;
  for (DocId doc = 0; doc < db.NumSfas(); ++doc) {
    auto blob = db.ReadStaccatoBlob(doc);
    if (!blob.ok()) return 1;
    blobs.push_back(std::move(*blob));
  }
  auto dfa = Dfa::Compile("an", MatchMode::kContains);
  if (!dfa.ok()) return 1;

  const int kReps = 20;
  KernelResult legacy, view;
  {
    Timer t;
    const uint64_t a0 = g_allocs.load();
    for (int r = 0; r < kReps; ++r) {
      for (const std::string& blob : blobs) {
        auto p = EvalSerializedSfa(blob, *dfa);  // Deserialize + object DP
        if (!p.ok()) return 1;
        legacy.checksum += *p;
      }
    }
    legacy.seconds = t.ElapsedSeconds();
    legacy.allocs = g_allocs.load() - a0;
  }
  {
    EvalScratch scratch;
    // Warm the scratch on one candidate so steady-state is measured.
    if (!EvalSerializedSfaBounded(blobs[0], *dfa, 0.0, &scratch).ok()) return 1;
    Timer t;
    const uint64_t a0 = g_allocs.load();
    for (int r = 0; r < kReps; ++r) {
      for (const std::string& blob : blobs) {
        auto p = EvalSerializedSfaBounded(blob, *dfa, 0.0, &scratch);
        if (!p.ok()) return 1;
        view.checksum += *p;
      }
    }
    view.seconds = t.ElapsedSeconds();
    view.allocs = g_allocs.load() - a0;
  }
  const size_t evals = blobs.size() * static_cast<size_t>(kReps);
  eval::PrintHeader("Kernel: legacy Deserialize+DP vs flat-view zero-alloc");
  printf("%-28s %12s %14s %12s\n", "kernel", "time(ms)", "allocs/cand",
         "us/cand");
  printf("%-28s %12.2f %14.1f %12.2f\n", "legacy (Sfa::Deserialize)",
         legacy.seconds * 1e3,
         static_cast<double>(legacy.allocs) / static_cast<double>(evals),
         legacy.seconds / static_cast<double>(evals) * 1e6);
  printf("%-28s %12.2f %14.1f %12.2f\n", "view (EvalScratch, warm)",
         view.seconds * 1e3,
         static_cast<double>(view.allocs) / static_cast<double>(evals),
         view.seconds / static_cast<double>(evals) * 1e6);
  const double kernel_speedup =
      view.seconds > 0 ? legacy.seconds / view.seconds : 0.0;
  const bool checksums_equal = legacy.checksum == view.checksum;
  printf("checksums equal: %s; kernel speedup: %.2fx\n",
         checksums_equal ? "yes" : "NO (BUG)", kernel_speedup);
  const bool kernel_ok = checksums_equal && view.allocs == 0;
  if (!kernel_ok) {
    fprintf(stderr, "FAIL: view kernel %s\n",
            checksums_equal ? "allocated on a warm scratch"
                            : "is not bit-identical to the legacy kernel");
  }

  // ---- 2. End-to-end cold selective top-k ----------------------------------
  eval::PrintHeader(
      "Cold selective top-k (STACCATO scan, NumAns=5): pruning off vs on");
  printf("%-10s %8s | %12s %12s %9s | %10s %12s\n", "pattern", "threads",
         "off(ms)", "on(ms)", "speedup", "pruned", "steps-saved");
  const size_t hw = ThreadPool::DefaultThreads();
  std::vector<size_t> thread_axis = {1};
  if (hw > 1) thread_axis.push_back(hw);
  double e2e_off_1 = 0.0, e2e_on_1 = 0.0;
  size_t pruned_1 = 0;
  for (const char* pat : {"an", "th", "act"}) {
    for (size_t threads : thread_axis) {
      double seconds[2] = {0.0, 0.0};
      size_t pruned = 0;
      uint64_t saved = 0;
      size_t candidates = 0;
      for (int on = 0; on < 2; ++on) {
        QueryOptions q;
        q.pattern = pat;
        q.num_ans = 5;
        q.index_mode = IndexMode::kNever;
        q.eval_threads = threads;
        q.early_stop = on == 1;
        auto pq = session.Prepare(Approach::kStaccato, q);
        if (!pq.ok()) return 1;
        QueryStats stats;
        // Cold eval: the plan is fresh, so CandidateGen/Filter recompute
        // and every candidate blob is read and evaluated.
        auto ans = pq->Execute(&stats);
        if (!ans.ok()) return 1;
        seconds[on] = stats.seconds;
        if (on == 1) {
          pruned = stats.eval_pruned;
          saved = stats.eval_steps_saved;
          candidates = stats.candidates;
        }
      }
      printf("%-10s %8zu | %12.2f %12.2f %8.2fx | %4zu/%-5zu %12llu\n", pat,
             threads, seconds[0] * 1e3, seconds[1] * 1e3,
             seconds[1] > 0 ? seconds[0] / seconds[1] : 0.0, pruned,
             candidates, static_cast<unsigned long long>(saved));
      if (std::string(pat) == "an" && threads == 1) {
        e2e_off_1 = seconds[0];
        e2e_on_1 = seconds[1];
        pruned_1 = pruned;
      }
    }
  }
  const double prune_speedup = e2e_on_1 > 0 ? e2e_off_1 / e2e_on_1 : 0.0;
  printf("\nHeadline vs PR-3 baseline (legacy kernel, no pruning): the view\n"
         "kernel gives %.2fx and pruning another %.2fx on top — combined\n"
         "%.2fx on cold selective top-k.\n",
         kernel_speedup, prune_speedup, kernel_speedup * prune_speedup);

  // ---- 3. Machine-readable trajectory point --------------------------------
  FILE* json = fopen("BENCH_topk.json", "w");
  if (json != nullptr) {
    fprintf(json,
            "{\n"
            "  \"bench\": \"topk_earlystop\",\n"
            "  \"docs\": %zu,\n"
            "  \"kernel_legacy_us_per_cand\": %.3f,\n"
            "  \"kernel_view_us_per_cand\": %.3f,\n"
            "  \"kernel_legacy_allocs_per_cand\": %.1f,\n"
            "  \"kernel_view_allocs_per_cand\": %.1f,\n"
            "  \"kernel_speedup\": %.3f,\n"
            "  \"e2e_cold_top5_off_ms\": %.3f,\n"
            "  \"e2e_cold_top5_on_ms\": %.3f,\n"
            "  \"e2e_pruned_candidates\": %zu,\n"
            "  \"prune_speedup\": %.3f,\n"
            "  \"combined_speedup\": %.3f\n"
            "}\n",
            blobs.size(),
            legacy.seconds / static_cast<double>(evals) * 1e6,
            view.seconds / static_cast<double>(evals) * 1e6,
            static_cast<double>(legacy.allocs) / static_cast<double>(evals),
            static_cast<double>(view.allocs) / static_cast<double>(evals),
            kernel_speedup, e2e_off_1 * 1e3, e2e_on_1 * 1e3, pruned_1,
            prune_speedup, kernel_speedup * prune_speedup);
    fclose(json);
    printf("wrote BENCH_topk.json\n");
  }
  return kernel_ok ? 0 : 1;
}
