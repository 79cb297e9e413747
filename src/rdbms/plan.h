// Physical query plans for the prepared-query engine.
//
// A probabilistic LIKE query runs as a fixed pipeline of physical
// operators:
//
//   CandidateGen -> [Filter] -> Fetch -> Eval -> TopK
//
//   CandidateGen  enumerates candidate documents, either by full scan or
//                 by probing the dictionary inverted index with the
//                 pattern's anchor term (returns a CandidateSet).
//   Filter        drops candidates whose MasterData row fails an equality
//                 predicate (`Year = 2010`).
//   Fetch         materializes the representation: nothing for the string
//                 approaches (they evaluate during the kMAPData scan), the
//                 serialized SFA blob, or only the projected region around
//                 each posting. The storage read paths are concurrent-safe.
//   Eval          scores each candidate: DFA match over stored strings, or
//                 the DFAxSFA dynamic program. The SFA stage *streams*:
//                 each pool worker fetches one candidate's blob, decodes
//                 it through the flat SfaView into a per-worker scratch
//                 arena (no per-candidate heap objects), and runs the
//                 bounded DP — aborting the moment the candidate's exact
//                 probability upper bound falls below the running k-th
//                 best answer (the TopK threshold, shared and monotone).
//                 Candidates are visited in descending posting-count order
//                 so the threshold tightens early. Results are positionally
//                 gathered, and a pruned candidate provably cannot enter
//                 the top-k, so ranked answers are bit-identical for any
//                 thread count, visit order, or early-stop setting.
//   TopK          ranks by probability and keeps NumAns answers; during
//                 the Eval stage it doubles as the pruning threshold
//                 (the running k-th best probability, which only rises).
//
// `BuildPlan` chooses the operators once, at prepare time, and it chooses
// them *by cost*: a `CostEstimate` prices the full-scan and index-probe
// alternatives from storage statistics (posting counts kept by the index,
// table cardinalities and page counts, blob-store bytes) and the cheaper
// path wins unless the caller pins the choice with `IndexMode`. The
// estimate is frozen into the plan and rendered by `ExplainPlan`.
//
// `ExecutePlan` can then run the same plan many times. Its two artifacts
// that do not depend on the DFA evaluation itself — the CandidateSet
// produced by an index probe and the equality-filter bitmap — live in an
// immutable `PlanCacheEntry`: a cold run builds one in its CandidateGen
// and Filter stages, and a run handed a current entry skips both stages
// and reads the entry in place. The Session's plan-cache table
// (session.h) is the only owner of entries. Each entry is tagged with the
// database's load generation, so a reload or index rebuild retires it; a
// warm Execute is always bit-identical to a cold one.
#pragma once

#include <algorithm>
#include <atomic>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "automata/dfa.h"
#include "automata/trie.h"
#include "indexing/postings.h"
#include "metrics/metrics.h"
#include "rdbms/base_epoch.h"
#include "rdbms/btree.h"
#include "rdbms/delta.h"
#include "rdbms/sql.h"
#include "telemetry/trace.h"
#include "util/mutex.h"
#include "util/result.h"

namespace staccato::rdbms {

class QueryControl;  // rdbms/service.h: per-query budget/cancel block

enum class Approach {
  kMap,
  kKMap,
  kFullSfa,
  kStaccato,
};

const char* ApproachName(Approach a);

/// \brief How the planner may use the anchored-term inverted index.
enum class IndexMode {
  kAuto,   ///< cost-based: probe iff the estimate says it is cheaper
  kNever,  ///< always full-scan (the index is not considered)
  kForce,  ///< probe whenever the anchor resolves; error if no index built
};

const char* IndexModeName(IndexMode m);

/// \brief One LIKE query, as the user states it (logical description).
struct QueryOptions {
  std::string pattern;     ///< the paper's pattern language ('%pat%' implied)
  size_t num_ans = 100;    ///< NumAns (Table 3)
  /// Index policy. The default lets the cost model decide; benches and
  /// tests that measure one fixed path pin it with kForce/kNever.
  IndexMode index_mode = IndexMode::kAuto;
  bool use_projection = false;  ///< fetch only the projected SFA region
  /// Equality predicates over MasterData columns (`Year = 2010`); filters
  /// candidates before any SFA is fetched or evaluated.
  std::vector<EqualityPredicate> equalities;
  /// Workers for the parallel SFA Eval stage. 1 = serial; 0 = inherit the
  /// session default (SessionOptions::eval_threads, itself defaulting to
  /// hardware concurrency). The string approaches always run one serial
  /// kMAPData scan.
  size_t eval_threads = 0;
  /// Allow the Eval stage to abort a candidate's DP as soon as its exact
  /// probability upper bound falls below the running k-th best answer
  /// (threshold-pruned top-k). Never changes the ranked answers — a pruned
  /// candidate provably cannot enter the top-k — so it is on by default;
  /// benches turn it off to measure the unpruned kernel.
  bool early_stop = true;
};

/// \brief Wall-clock seconds per physical-plan stage, measured inside the
/// executor through the telemetry clock seam (telemetry::MonotonicNanos)
/// — the one source of truth for "where did the time go". ExplainPlan
/// renders est-vs-actual from these, and each ShardStats row carries its
/// own copy so per-stage skew across shards is visible. Fetch and Eval
/// stream together per candidate on the SFA path, so they are timed as
/// one stage.
struct StageTimings {
  double candidate_gen_s = 0.0;  ///< index probe / candidate enumeration
  double filter_s = 0.0;         ///< equality-bitmap build + apply
  double fetch_eval_s = 0.0;     ///< streamed Fetch+Eval (kMAP scan or SFA DP)
  double topk_s = 0.0;           ///< final RankAnswers
  double total_s = 0.0;          ///< whole plan execution
};

/// \brief One shard's slice of a scatter-gather execution, recorded by
/// every PreparedQuery::Execute so skew across shards is visible without
/// a profiler (a plain StaccatoDb runs as one shard and reports one row).
/// `ExplainPlan(plan, stats)` renders one "Shards:" line per entry. Every
/// field here is this shard's own figure — FoldShardStats copies them
/// from the shard's QueryStats.
struct ShardStats {
  size_t shard = 0;            ///< shard ordinal (directory suffix)
  size_t candidates = 0;       ///< SFAs evaluated on this shard
  /// This shard's Filter / index CandidateGen served from its pinned
  /// plan-cache entry (QueryStats::filter_from_cache and
  /// candidates_from_cache hold only when every shard's do).
  bool filter_from_cache = false;
  bool candidates_from_cache = false;
  size_t eval_pruned = 0;      ///< candidates aborted by the global bound
  uint64_t eval_steps_saved = 0;
  uint64_t cache_hits = 0;     ///< blob reads served warm on this shard
  uint64_t cache_misses = 0;   ///< blob reads that went to disk
  uint64_t heap_pages_read = 0;
  uint64_t blob_bytes_read = 0;
  double est_cost = 0.0;       ///< this shard's planner cost estimate
  StageTimings stage;          ///< this shard's per-stage wall-clock time
};

/// \brief Execution statistics for the benches.
struct QueryStats {
  double seconds = 0.0;
  /// This query's own I/O, exact under concurrent queries: heap pages its
  /// Filter and kMAPData scans visited, and physical blob bytes its Fetch
  /// workers read from disk.
  uint64_t heap_pages_read = 0;
  uint64_t blob_bytes_read = 0;
  size_t candidates = 0;    ///< SFAs actually evaluated
  size_t index_postings = 0;
  double selectivity = 0.0;  ///< candidates / total SFAs
  // Chosen plan shape, so benches can report what actually executed.
  bool used_index = false;
  size_t threads_used = 1;    ///< workers in the streamed Fetch+Eval stage
  std::string plan_summary;   ///< one-line operator pipeline
  // Planner estimate for the chosen path, so estimated vs. actual
  // candidates can be compared from one stats object.
  size_t est_candidates = 0;
  double est_cost = 0.0;      ///< chosen path's total cost units
  // Plan-cache observability: which stages were served from the
  // plan-cache entry the PreparedQuery pinned instead of being recomputed.
  // Across shards a stage counts as served only when every shard whose
  // plan runs it served it (ShardStats carries each shard's own flags).
  bool filter_from_cache = false;      ///< equality bitmap reused
  bool candidates_from_cache = false;  ///< index CandidateSet reused
  // Buffer-cache observability for the Fetch stage: this query's blob
  // reads served from the shared memory-budgeted cache vs from disk
  // (counted by the query's own Fetch workers, so exact under concurrent
  // queries), and the cache's resident bytes when the run finished. All
  // three stay zero when the database runs with caching disabled.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_bytes = 0;
  /// This Execute pinned a plan-cache entry that another PreparedQuery
  /// with the same plan fingerprint had published to the owning Session's
  /// table, instead of computing CandidateGen/Filter itself.
  bool shared_plan_hit = false;
  // Early-termination observability. `eval_pruned` counts candidates whose
  // DP aborted because their probability upper bound fell below the
  // running k-th best answer; `eval_steps_saved` totals the DP steps
  // (label-char × dfa-state units, as CountEvalWork counts them) those
  // aborts skipped. Which candidates get pruned depends on scheduling, so
  // under threads > 1 these are not run-to-run deterministic — the ranked
  // answers always are.
  size_t eval_pruned = 0;
  uint64_t eval_steps_saved = 0;
  // Scatter-gather observability: one entry per shard (a plain
  // StaccatoDb is one shard). The top-level counters above are the
  // cross-shard totals.
  std::vector<ShardStats> shards;
  // Deadline/budget observability (rdbms/service.h). `degraded` = the
  // budget ran out mid-query and, because the caller allowed partial
  // results, the answers are the well-formed top-k of only the
  // `visited_candidates` candidates actually visited (<= `candidates`,
  // which counts the plan's full candidate set). `io_retries` = transient
  // blob-read failures absorbed by retry-with-backoff.
  bool degraded = false;
  size_t visited_candidates = 0;
  uint64_t io_retries = 0;
  /// Per-stage wall-clock breakdown, measured by the executor itself (one
  /// clock seam, see StageTimings). `seconds` above remains the caller-
  /// measured end-to-end figure the benches report; `stage.total_s` is
  /// the executor-measured plan time (excludes session gather overhead).
  StageTimings stage;
  /// The query's span tree when tracing was enabled, else null. Shared
  /// with the session's TraceSink ring; immutable once published.
  std::shared_ptr<const telemetry::QueryTrace> trace;
};

enum class CandidateSource { kFullScan, kIndexProbe };
enum class FetchMethod { kNone, kFullBlob, kProjection };
enum class EvalStrategy { kStrings, kSfaDp };

const char* CandidateSourceName(CandidateSource s);
const char* FetchMethodName(FetchMethod f);
const char* EvalStrategyName(EvalStrategy e);

/// \brief An equality predicate resolved against the MasterData schema:
/// column position and the literal coerced to the column's type.
struct BoundEquality {
  std::string column;  ///< column name, as written
  int column_index = -1;
  Value value;
};

/// \brief One access path priced by the planner. Costs are abstract "cost
/// units" where 1.0 is roughly one sequential 8 KiB page read; the units
/// only need to be comparable across the alternatives of one query.
struct PathCost {
  bool feasible = false;     ///< the path can run (index built, anchor hits)
  size_t candidates = 0;     ///< est. rows surviving CandidateGen + Filter
  double fetch_bytes = 0.0;  ///< est. blob bytes the Fetch stage reads
  double io_cost = 0.0;      ///< page reads + point gets, in cost units
  double eval_cost = 0.0;    ///< Eval work (size-proportional DP)
  double total = 0.0;        ///< io_cost + eval_cost
};

/// \brief The planner's selectivity/cost estimate, computed at BuildPlan
/// time from statistics only (no data I/O): inverted-index posting counts,
/// heap-table cardinalities and page counts, and blob-store bytes. Frozen
/// into the PlanSpec so ExplainPlan can render it and benches can compare
/// estimated vs. actual candidates.
struct CostEstimate {
  PathCost scan;        ///< full filescan of the representation
  PathCost index;       ///< anchored index probe (feasible only if built)
  size_t table_cardinality = 0;  ///< total SFAs (full-scan candidate count)
  size_t anchor_postings = 0;    ///< postings under the anchor term
  size_t anchor_docs = 0;        ///< distinct docs holding those postings
  /// Estimated fraction of docs passing all equality predicates (the
  /// classic 1/10-per-predicate guess; there are no column histograms).
  double equality_selectivity = 1.0;
  /// Observed lifetime hit rate of the shared buffer cache at plan time
  /// (hits / lookups; 0 when the cache is cold or disabled). The Fetch
  /// terms of both paths price this fraction of blob reads as warm cache
  /// hits (a fixed per-hit charge, see plan.cc) instead of disk I/O.
  double cache_hit_rate = 0.0;
  CandidateSource chosen = CandidateSource::kFullScan;

  const PathCost& chosen_cost() const {
    return chosen == CandidateSource::kIndexProbe ? index : scan;
  }

  /// One-line stable rendering, e.g.
  /// "est-candidates=6 sel=0.10 cost=58.2 [scan=58.2 index=n/a]".
  std::string ToString() const;
};

/// \brief The memoized CandidateGen/Filter artifacts of one plan at one
/// database load generation. ExecutePlan fills an entry once, in its
/// Filter and CandidateGen stages; from then on it is shared as a
/// `shared_ptr<const PlanCacheEntry>` by the Session's table and every
/// PreparedQuery that pins it, and is read in place, never copied. It is
/// current only while the load generation still matches. Serving an
/// entry is bit-identical to recomputing it.
struct PlanCacheEntry {
  uint64_t generation = 0;  ///< db load generation the artifacts belong to
  /// Equality-filter bitmap (Filter operator); empty when the plan has no
  /// equality predicate (every doc passes).
  std::vector<char> bitmap;
  /// Index-probe result (CandidateGen operator); empty on a full scan.
  CandidateSet candidates;
};

/// \brief A resolved physical plan. Immutable once built; executing it many
/// times always runs the same operators.
struct PlanSpec {
  Approach approach = Approach::kMap;
  CandidateSource source = CandidateSource::kFullScan;
  FetchMethod fetch = FetchMethod::kNone;
  EvalStrategy eval = EvalStrategy::kStrings;
  bool map_only = false;  ///< strings eval: restrict to the rank-0 row
  std::string pattern;
  std::string anchor;  ///< dictionary term probed; set iff kIndexProbe
  size_t num_ans = 100;
  size_t eval_threads = 1;  ///< resolved worker count (>= 1)
  bool early_stop = true;   ///< threshold-pruned top-k Eval (answer-neutral)
  std::vector<BoundEquality> equalities;
  CostEstimate cost;  ///< the estimate the planner chose `source` from
};

/// \brief Everything the executor needs from the database: borrowed views
/// of the storage layer. Plans never own storage.
struct PlanContext {
  /// The committed base epoch: relations, blob store, blob-row maps.
  const BaseEpoch* base = nullptr;
  BPlusTree* index = nullptr;               // may be null (no index built)
  const DictionaryTrie* dict = nullptr;     // may be null
  size_t num_sfas = 0;
  /// The database-owned shared buffer cache; null when caching is
  /// disabled. The Fetch stage reads blobs through it (with per-worker
  /// pinned handles) and the planner folds its observed hit rate into
  /// CostEstimate.
  cache::BufferCache* cache = nullptr;
  /// Per-term posting statistics maintained by the index builder; null
  /// exactly when `index` is. The cost model reads these instead of
  /// probing.
  const TermStatsMap* term_stats = nullptr;
  /// Monotone counter the owning database bumps on every Load /
  /// BuildInvertedIndex / Append / Checkpoint; PlanCacheEntry objects from
  /// older generations are retired.
  uint64_t load_generation = 0;
  /// Bumped only when blob *contents* change per doc id (Load) — Append
  /// and Checkpoint preserve every existing doc's bytes, so blob-cache
  /// entries keyed on this survive them. See BlobCacheKey.
  uint64_t blob_generation = 0;
  /// Snapshot of the mutable delta generation (appended documents). Doc
  /// ids >= delta.base_docs resolve here instead of in the base tables.
  DeltaView delta;
  /// The per-query budget/cancellation block (rdbms/service.h), never
  /// null when the plan executes: polled at the executor's cancellation
  /// points — query entry, each worker's fetch->eval stream, the kMAP scan
  /// loop, and the per-shard gather.
  QueryControl* control = nullptr;
  /// Optional per-query trace (telemetry/trace.h). Null = tracing off:
  /// every instrumentation point is one branch. The executor's stage
  /// spans nest under `trace_parent` (the per-shard scatter span, 0 = top
  /// level). Tracing only observes — it must never change an answer.
  telemetry::QueryTrace* trace = nullptr;
  uint64_t trace_parent = 0;
};

/// Resolves a logical query into a physical plan: prices the full-scan and
/// index-probe alternatives (CostEstimate), picks the cheaper candidate
/// source under IndexMode::kAuto (kForce/kNever pin it), picks projection
/// vs whole-blob fetch, the eval strategy, the worker count, and binds
/// equality literals against the MasterData schema. `default_threads` is
/// used when `q.eval_threads == 0` (0 = hardware concurrency). Fails on
/// unknown columns, type-mismatched literals, or a forced index without a
/// built index.
Result<PlanSpec> BuildPlan(const PlanContext& ctx, Approach approach,
                           const QueryOptions& q, size_t default_threads);

/// \brief The running k-th best probability among answers scored so far:
/// the TopK operator's pruning threshold, shared across Eval workers.
/// Get() returns 0 until k positive answers exist (nothing may be pruned
/// yet) and +inf when k == 0 (every candidate is prunable). Offer() only
/// ever raises the threshold, so a worker acting on a stale Get() prunes
/// against a lower-or-equal threshold than the final one — races only
/// ever make pruning more conservative, never wrong.
///
/// Public (not an executor detail) because PreparedQuery's scatter-gather
/// shares one instance across every shard's in-flight Eval: the global
/// k-th best forwards into each shard so the bounded DP prunes across
/// shards, not just within one. Monotonicity makes that sharing safe —
/// cross-shard offers can only tighten another shard's bound.
class TopKThreshold {
 public:
  explicit TopKThreshold(size_t k) : k_(k) {
    if (k_ == 0) {
      cut_.store(std::numeric_limits<double>::infinity(),
                 std::memory_order_relaxed);
      full_.store(true, std::memory_order_relaxed);
    }
  }

  double Get() const { return cut_.load(std::memory_order_relaxed); }

  void Offer(double p) {
    if (k_ == 0 || p <= 0.0) return;
    // Fast path once the heap is full: a probability at or below the
    // current cut cannot raise it.
    if (full_.load(std::memory_order_acquire) && p <= Get()) return;
    util::MutexLock lock(&mu_);
    heap_.push_back(p);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<double>());
    if (heap_.size() > k_) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<double>());
      heap_.pop_back();
    }
    if (heap_.size() == k_) {
      cut_.store(heap_.front(), std::memory_order_relaxed);
      full_.store(true, std::memory_order_release);
    }
  }

 private:
  const size_t k_;
  std::atomic<double> cut_{0.0};
  std::atomic<bool> full_{false};
  util::Mutex mu_;
  std::vector<double> heap_ GUARDED_BY(mu_);  // min-heap of the best k
};

/// Runs the plan's operator pipeline and fills `stats`. Repeated calls with
/// the same plan and DFA return identical answers regardless of
/// `eval_threads`. `*entry` is the caller's pin on the plan's memoized
/// artifacts: an entry current for `ctx.load_generation` serves Filter and
/// CandidateGen in place (`stats` reports the hits); a null pin makes those
/// stages build a fresh entry, which a successful run leaves in `*entry`
/// for the caller to publish. `topk` is the Eval stage's pruning
/// threshold: the scatter passes one instance to every shard's
/// ExecutePlan so the global k-th best bound forwards across shards
/// (answer-neutral: the kernel prunes strictly below the threshold, and
/// the global bound is at least as high as any shard-local one).
/// PreparedQuery's scatter-gather is the only caller.
Result<std::vector<Answer>> ExecutePlan(
    const PlanContext& ctx, const PlanSpec& plan, const Dfa& dfa,
    QueryStats* stats, std::shared_ptr<const PlanCacheEntry>* entry,
    TopKThreshold& topk);

/// Probes the inverted index with `anchor` (CandidateGen, index flavor).
/// The caller guarantees ctx.index/ctx.dict are present.
Result<CandidateSet> ProbeIndex(const PlanContext& ctx,
                                const std::string& anchor);

/// Multi-line operator-tree rendering, stable across executions:
///
///   QueryPlan approach=STACCATO pattern='Ford'
///     -> CandidateGen source=index-probe anchor='ford'
///     -> Filter Year = 2010
///     -> Fetch method=projection
///     -> Eval strategy=sfa-dp threads=4
///     -> TopK num_ans=100
///     Cost: est-candidates=4 sel=0.10 cost=12.3 [scan=58.2 index=12.3]
std::string ExplainPlan(const PlanSpec& plan);

/// ExplainPlan plus an "Actual:" line comparing the estimate against what
/// one execution measured (candidates, cache hits), a "Pruned:" line
/// reporting the early-termination outcome (candidates aborted, DP steps
/// saved, whether early-stop was enabled for the plan), and one "Shards:"
/// row per shard the query scattered to (one for a plain StaccatoDb).
std::string ExplainPlan(const PlanSpec& plan, const QueryStats& stats);

/// Compact one-line shape for QueryStats::plan_summary, e.g.
/// "index-probe>filter>projection>sfa-dp[t=4]>top-100".
std::string PlanSummary(const PlanSpec& plan);

/// Folds per-shard execution stats into the caller-facing QueryStats: the
/// top-level counters become cross-shard totals and one ShardStats entry
/// per shard records the skew (ExplainPlan renders them as "Shards:"
/// lines), carrying the shard's full counter set — candidates, pruning,
/// plan-cache flags, cache hits/misses, heap pages, blob bytes, and
/// per-stage timings. A top-level plan-cache flag is true only when every
/// shard whose plan runs that stage served it from its pinned entry.
/// `total_docs` is the global document count for selectivity. io_retries
/// is deliberately not folded — every shard reads the one shared
/// QueryControl counter, so summing would multiply it by the shard count;
/// the top-level Execute writes it once.
void FoldShardStats(const std::vector<QueryStats>& per_shard,
                    size_t total_docs, QueryStats* out);

}  // namespace staccato::rdbms
