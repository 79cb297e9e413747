// The prepared-query surface of the engine.
//
// A Session borrows a StaccatoDb or a ShardedDb and turns logical queries
// (pattern + options, or the paper's SQL) into PreparedQuery objects:
//
//   Session session(db.get());
//   STACCATO_ASSIGN_OR_RETURN(
//       PreparedQuery pq,
//       session.PrepareSql(Approach::kStaccato,
//                          "SELECT DocID FROM Claims "
//                          "WHERE Year = 2010 AND DocData LIKE '%Ford%';"));
//   puts(pq.Explain().c_str());
//   auto answers = pq.Execute();       // repeatable; plan + DFA reused
//
// Prepare compiles the pattern DFA once, binds equality literals against
// the MasterData schema, and freezes a *cost-based* physical plan (plan.h):
// the planner prices the full-scan and index-probe paths from posting
// counts and table statistics and keeps the cheaper one, unless
// QueryOptions::index_mode pins the choice. A SQL LIMIT clause maps to the
// TopK answer budget (NumAns).
//
// Every Execute is one scatter-gather over the session's shard list: a
// ShardedDb contributes its N shards, and a plain StaccatoDb is a 1-shard
// list. Prepare plans each shard from that shard's own statistics; Execute
// runs every shard's plan over the shared ThreadPool against one forwarded
// TopKThreshold, turns each shard's local doc ids into global ones with
// GlobalDocId (rdbms/shard.h: round-robin placement, the identity for one
// shard), and re-ranks the per-shard top-k lists. The 1-shard case runs
// inline on the calling thread, so a plain database pays no scheduling
// cost for the uniform shape. Every Execute runs under a QueryControl
// (rdbms/service.h); the one-argument overload supplies an unlimited one.
//
// A Session is the only way to run a query, and its plan-cache table is
// the only plan cache. The table holds immutable PlanCacheEntry objects
// (plan.h) — the index-probe CandidateSet and the equality-filter bitmap —
// keyed by shard ordinal plus plan fingerprint. Each PreparedQuery pins
// one entry per shard: its own if still current, else the table's if
// current (QueryStats::shared_plan_hit, Session::shared_plan_hits), else
// none, in which case the executor builds the entry during CandidateGen
// and Filter and, once the gather succeeds, the session publishes and
// pins it. A pinned entry serves both operators in place, so warm
// Executes skip them (QueryStats::candidates_from_cache /
// filter_from_cache) and nothing memoized is ever copied. An entry is
// current until the shard's load generation moves — any Load,
// BuildInvertedIndex, Append or Checkpoint retires it on the next
// Execute — and warm answers are always bit-identical to cold ones. A
// PreparedQuery is not synchronized: run concurrent Executes on separate
// PreparedQuery objects.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "automata/dfa.h"
#include "rdbms/plan.h"
#include "util/mutex.h"
#include "util/result.h"

namespace staccato::rdbms {

class StaccatoDb;
class ShardedDb;
class PreparedQuery;

/// \brief The session-wide plan-cache table: immutable PlanCacheEntry
/// objects keyed by shard ordinal plus plan fingerprint (candidate source
/// + anchor + bound equalities — exactly what the memoized CandidateSet
/// and bitmap depend on; the ordinal keeps one shard's artifacts from
/// serving another). A PreparedQuery pins an entry only while its load
/// generation still matches the shard's, and publishes the entry it built
/// after a successful Execute. Shared (via shared_ptr) between a Session
/// and every PreparedQuery it creates, so queries stay valid if the
/// Session dies first. All access goes through the mutex; the entries
/// themselves are immutable, so concurrent Executes on separate
/// PreparedQuery objects stay safe.
struct SharedPlanCacheTable {
  /// Bound on distinct fingerprints retained (each entry can hold an
  /// O(num_docs) bitmap plus a CandidateSet). Publishing past the bound
  /// purges stale-generation entries first, then starts over — entries
  /// are memoizations, so the worst case is a recompute, never growth
  /// without bound in a long-lived serving session.
  static constexpr size_t kMaxEntries = 256;

  util::Mutex mu;
  std::unordered_map<std::string, std::shared_ptr<const PlanCacheEntry>>
      entries GUARDED_BY(mu);
  std::atomic<uint64_t> hits{0};  ///< Executes that pinned a table entry
};

/// \brief Session-wide defaults applied at prepare time.
struct SessionOptions {
  /// Default Eval-stage workers when QueryOptions::eval_threads == 0.
  /// 0 = hardware concurrency (sessions are parallel by default).
  size_t eval_threads = 0;
  /// Default NumAns for SQL statements (SQL has no NumAns syntax).
  size_t num_ans = 100;
};

/// \brief Prepared-query factory over one database.
class Session {
 public:
  /// A session over a single database: every query runs as a 1-shard
  /// scatter-gather.
  explicit Session(StaccatoDb* db, SessionOptions opts = {})
      : shards_{db}, opts_(opts) {}

  /// A session over a sharded database. Prepare plans every shard
  /// independently (each shard's own statistics drive its scan-vs-probe
  /// choice) and Execute scatter-gathers: shard evals fan out over the
  /// shared pool, share one global TopKThreshold, and the merged ranking
  /// is bit-identical to the 1-shard answer.
  explicit Session(ShardedDb* db, SessionOptions opts = {});

  /// Compiles + plans a pattern query. The returned PreparedQuery remains
  /// valid as long as the database outlives it.
  Result<PreparedQuery> Prepare(Approach approach, const QueryOptions& q);

  /// Parses the paper's SQL subset (single-table select-project with one
  /// LIKE and any number of equality predicates) and prepares it.
  Result<PreparedQuery> PrepareSql(Approach approach, const std::string& sql);

  const SessionOptions& options() const { return opts_; }

  /// How many Executes served CandidateGen/Filter on at least one shard
  /// from an entry of the session's plan-cache table — i.e. were warmed by
  /// a *different* PreparedQuery with the same plan fingerprint. Counts
  /// once per Execute however many shards pinned a table entry
  /// (QueryStats::shared_plan_hit flags the individual executions).
  uint64_t shared_plan_hits() const {
    return plan_cache_->hits.load(std::memory_order_relaxed);
  }

  /// Per-query tracing (telemetry/trace.h). The sink is shared with every
  /// PreparedQuery this session creates (queries stay valid if the
  /// Session dies first, like the plan-cache table); its enabled bit
  /// seeds from STACCATO_TRACE and can be toggled here at any time.
  /// While enabled, each Execute records a span tree — answer-neutral,
  /// a few dozen spans per query — and publishes it to the sink's
  /// bounded ring (and to QueryStats::trace).
  void set_tracing(bool on) { tracer_->set_enabled(on); }
  bool tracing() const { return tracer_->enabled(); }
  /// The most recent finished traces, newest first.
  std::vector<std::shared_ptr<const telemetry::QueryTrace>> recent_traces()
      const {
    return tracer_->Recent();
  }

 private:
  /// The shards every query scatters to: the ShardedDb's shards in
  /// ordinal order, or the one plain database.
  std::vector<StaccatoDb*> shards_;
  SessionOptions opts_;
  std::shared_ptr<SharedPlanCacheTable> plan_cache_ =
      std::make_shared<SharedPlanCacheTable>();
  std::shared_ptr<telemetry::TraceSink> tracer_ =
      std::make_shared<telemetry::TraceSink>();
};

/// \brief A compiled, planned, repeatedly executable query.
class PreparedQuery {
 public:
  /// Runs the plan and returns the ranked answers. Thread-count changes
  /// never change the answers, only the wall clock — and neither does
  /// early termination: the Eval stage streams candidates against the
  /// running k-th best answer and aborts provably-hopeless ones, but a
  /// pruned candidate can never have entered the top-k. Repeated calls
  /// serve CandidateGen/Filter from the pinned plan-cache entry
  /// (bit-identical results); the pin is dropped when the database
  /// reloads data. Non-const because it re-pins — the honest signal that
  /// one PreparedQuery must not Execute concurrently with itself. Runs
  /// under an unlimited QueryControl with no I/O retries.
  Result<std::vector<Answer>> Execute(QueryStats* stats = nullptr);

  /// Execute under a per-query budget/cancellation block (rdbms/service.h,
  /// never null): the executor polls `control` at its cancellation points,
  /// retries transient I/O against its retry budget, and either fails with
  /// DeadlineExceeded or (allow_partial) degrades to the exact top-k of
  /// the visited candidates, reporting QueryStats::degraded /
  /// visited_candidates / io_retries. This is what QueryService::Execute
  /// runs.
  Result<std::vector<Answer>> Execute(QueryControl* control,
                                      QueryStats* stats);

  /// Stable text rendering of the physical plan (shard 0's; every shard
  /// shares the operator pipeline but prices it from its own statistics).
  std::string Explain() const { return ExplainPlan(plans_.front()); }

  const PlanSpec& plan() const { return plans_.front(); }
  const Dfa& dfa() const { return dfa_; }

  /// Re-binds the Eval worker count without re-planning (>= 1).
  void set_eval_threads(size_t t) {
    for (PlanSpec& p : plans_) p.eval_threads = t == 0 ? 1 : t;
  }
  /// Toggles threshold-pruned top-k Eval without re-planning. Answer sets
  /// are identical either way; only the work performed changes
  /// (QueryStats::eval_pruned / eval_steps_saved report it).
  void set_early_stop(bool on) {
    for (PlanSpec& p : plans_) p.early_stop = on;
  }

 private:
  friend class Session;
  PreparedQuery(std::vector<StaccatoDb*> shards, std::vector<PlanSpec> plans,
                Dfa dfa,
                std::shared_ptr<SharedPlanCacheTable> shared,
                std::shared_ptr<telemetry::TraceSink> tracer);

  /// The scatter-gather body (see session.cc). `control` threads the query
  /// budget into every shard's ExecutePlan and is polled again at the
  /// per-shard gather. `trace` (nullable) receives a scatter
  /// span with one child span per shard, then a gather span.
  Result<std::vector<Answer>> ScatterGather(QueryControl* control,
                                            QueryStats* stats,
                                            telemetry::QueryTrace* trace);

  /// Leaves pins_[s] holding an entry current at `generation`: the
  /// query's own pin if it still is, else the session table's entry if
  /// that is, else null. Returns true when the table's entry was pinned.
  bool PinCurrentEntry(size_t s, uint64_t generation);
  /// Pins the entry shard `s` just built and publishes it to the session
  /// table, replacing an absent or older entry.
  void PublishEntry(size_t s, std::shared_ptr<const PlanCacheEntry> entry);

  std::vector<StaccatoDb*> shards_;
  /// One independently planned PlanSpec per shard, the plan-cache entry
  /// pinned for each shard (null until an Execute succeeds), and each
  /// shard's key into the session table (shard ordinal + plan
  /// fingerprint).
  std::vector<PlanSpec> plans_;
  std::vector<std::shared_ptr<const PlanCacheEntry>> pins_;
  std::vector<std::string> shared_keys_;
  Dfa dfa_;
  /// The owning session's plan-cache table and trace sink. Shared
  /// so the query stays valid (and keeps tracing) if the Session dies
  /// first.
  std::shared_ptr<SharedPlanCacheTable> shared_;
  std::shared_ptr<telemetry::TraceSink> tracer_;
};

}  // namespace staccato::rdbms
