// Allocation gates. A replacement global operator new counts every heap
// allocation in this binary, so these tests fail when a hot path starts
// allocating per unit of work:
//  * a warm EvalSerializedSfaBounded (the executor's per-candidate kernel)
//    allocates nothing, over every FullSFA and Staccato blob of a small
//    corpus with every Table 6 DFA and one DFA of more than 64 states;
//  * a MAP or k-MAP Execute allocates a fixed number of times, however
//    many kMAPData rows its scan visits.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "automata/dfa.h"
#include "eval/workbench.h"
#include "inference/query_eval.h"
#include "ocr/corpus.h"
#include "rdbms/heap_table.h"
#include "rdbms/kmap_row.h"
#include "rdbms/session.h"
#include "rdbms/staccato_db.h"

static std::atomic<uint64_t> g_allocs{0};

// All six replacements stay out of line. Once GCC inlines one side into
// a caller (std::malloc inside new, std::free inside delete) it pairs the
// libc call with the other side's operator and warns
// -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace staccato {
namespace {

using eval::Workbench;
using eval::WorkbenchSpec;
using rdbms::Approach;
using rdbms::Session;
using rdbms::SessionOptions;

WorkbenchSpec CaSpec(uint32_t pages) {
  WorkbenchSpec spec;
  spec.corpus.kind = DatasetKind::kCongressActs;
  spec.corpus.num_pages = pages;
  spec.corpus.lines_per_page = 42;
  spec.corpus.seed = 20110829;
  spec.noise.alternatives = 16;
  spec.load.kmap_k = 25;
  spec.load.staccato = {20, 10, true};
  return spec;
}

TEST(AllocGateTest, WarmBoundedKernelAllocatesNothing) {
  auto wb = Workbench::Create(CaSpec(1));
  ASSERT_TRUE(wb.ok()) << wb.status().ToString();
  rdbms::StaccatoDb& db = (*wb)->db();
  std::vector<std::string> blobs;
  for (DocId doc = 0; doc < db.NumSfas(); ++doc) {
    auto full = db.ReadFullSfaBlob(doc);
    auto graph = db.ReadStaccatoBlob(doc);
    ASSERT_TRUE(full.ok() && graph.ok());
    blobs.push_back(std::move(*full));
    blobs.push_back(std::move(*graph));
  }
  // Every Table 6 DFA fits a one-word support; the 75-state literal runs
  // the kernel at its run-time width.
  std::vector<std::string> patterns =
      DatasetQueries(DatasetKind::kCongressActs);
  patterns.push_back("Attorney General of the United States");
  std::vector<Dfa> dfas;
  for (const std::string& q : patterns) {
    auto dfa = Dfa::Compile(q, MatchMode::kContains);
    ASSERT_TRUE(dfa.ok()) << q;
    dfas.push_back(std::move(*dfa));
  }
  EvalScratch scratch;
  double checksum = 0.0;
  // Pass 0 grows the scratch to the largest (blob, DFA) pair; pass 1 is
  // the warm steady state. Threshold 0.5 exercises the pruning exit.
  uint64_t warm_allocs = 0;
  for (int pass = 0; pass < 2; ++pass) {
    const uint64_t before = g_allocs.load();
    for (const Dfa& dfa : dfas) {
      for (const std::string& blob : blobs) {
        for (double threshold : {0.0, 0.5}) {
          auto p = EvalSerializedSfaBounded(blob, dfa, threshold, &scratch);
          ASSERT_TRUE(p.ok()) << p.status().ToString();
          checksum += *p;
        }
      }
    }
    warm_allocs = g_allocs.load() - before;
  }
  EXPECT_EQ(warm_allocs, 0u) << "over " << blobs.size() << " blobs x "
                             << dfas.size() << " DFAs";
  EXPECT_GT(checksum, 0.0);
}

/// Fewest allocations of one warm Execute of each MAP/k-MAP query shape
/// (approach x filter), keyed by shape.
std::vector<uint64_t> StringsExecuteAllocs(uint32_t pages, uint64_t* rows) {
  WorkbenchSpec spec = CaSpec(pages);
  spec.work_dir = eval::MakeScratchDir("alloc_gate");
  auto wb = Workbench::Create(spec);
  EXPECT_TRUE(wb.ok()) << wb.status().ToString();
  if (!wb.ok()) return {};
  rdbms::StaccatoDb& db = (*wb)->db();
  {
    auto kmap = rdbms::HeapTable::Open(spec.work_dir + "/kmap.tbl",
                                       rdbms::KMapSchema());
    EXPECT_TRUE(kmap.ok()) << kmap.status().ToString();
    if (!kmap.ok()) return {};
    *rows = (*kmap)->NumTuples();
  }
  Session session(&db, SessionOptions{1, 10});
  std::vector<uint64_t> allocs;
  for (Approach approach : {Approach::kMap, Approach::kKMap}) {
    for (const char* where :
         {"", "Year = 2010 AND ", "DocName = 'CA-page-0' AND "}) {
      const std::string sql =
          std::string("SELECT * FROM Docs WHERE ") + where +
          "DocData LIKE '%President%' LIMIT 10";
      auto pq = session.PrepareSql(approach, sql);
      EXPECT_TRUE(pq.ok()) << sql << ": " << pq.status().ToString();
      if (!pq.ok()) return {};
      EXPECT_TRUE(pq->Execute().ok());  // warms the plan cache
      uint64_t fewest = UINT64_MAX;
      for (int rep = 0; rep < 3; ++rep) {
        const uint64_t before = g_allocs.load();
        auto answers = pq->Execute();
        const uint64_t n = g_allocs.load() - before;
        EXPECT_TRUE(answers.ok()) << sql;
        fewest = std::min(fewest, n);
      }
      allocs.push_back(fewest);
    }
  }
  return allocs;
}

TEST(AllocGateTest, StringsExecuteAllocationsDoNotGrowWithRows) {
  uint64_t small_rows = 0, big_rows = 0;
  const std::vector<uint64_t> small = StringsExecuteAllocs(1, &small_rows);
  const std::vector<uint64_t> big = StringsExecuteAllocs(4, &big_rows);
  ASSERT_EQ(small.size(), 6u);
  ASSERT_EQ(big.size(), 6u);
  ASSERT_GE(big_rows, 4 * small_rows - 100);
  for (size_t i = 0; i < small.size(); ++i) {
    // The answer list and per-doc buffers may grow by a few reallocations
    // with the corpus; nothing may grow with rows.
    EXPECT_LE(big[i], small[i] + 8)
        << "query shape " << i << ": " << small[i] << " allocations at "
        << small_rows << " rows, " << big[i] << " at " << big_rows;
    EXPECT_LT(big[i], big_rows / 16) << "query shape " << i;
  }
}

}  // namespace
}  // namespace staccato
