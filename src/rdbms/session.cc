#include "rdbms/session.h"

#include <iterator>

#include "rdbms/service.h"
#include "rdbms/shard.h"
#include "rdbms/sql.h"
#include "rdbms/staccato_db.h"
#include "telemetry/clock.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/slow_log.h"
#include "util/parallel.h"
#include "util/strings.h"
#include "util/timer.h"

namespace staccato::rdbms {

namespace {

/// What the memoized artifacts depend on — nothing else: the equality
/// bitmap is a function of the bound predicates, and the memoized
/// CandidateSet of the probed anchor. NumAns, threads, early-stop,
/// projection, and even the approach can differ between two plans that
/// share these artifacts. Every variable-length field is length-prefixed
/// so user-chosen strings (column values can contain any byte) can never
/// collide with the field structure.
std::string PlanFingerprint(const PlanSpec& plan) {
  std::string fp = CandidateSourceName(plan.source);
  auto append_field = [&fp](const std::string& field) {
    fp += StringPrintf("|%zu:", field.size());
    fp += field;
  };
  append_field(plan.anchor);
  for (const BoundEquality& eq : plan.equalities) {
    append_field(eq.column);
    append_field(eq.value.ToString());
  }
  return fp;
}

/// A plan with neither an equality predicate nor an index probe memoizes
/// nothing: its (empty) entry stays a private pin, never published to or
/// pinned from the session table.
bool Memoizes(const PlanSpec& plan) {
  return !plan.equalities.empty() ||
         plan.source == CandidateSource::kIndexProbe;
}

/// Session-level query metrics, registered once (see service.cc for the
/// admission-side figures; these count every PreparedQuery::Execute,
/// budgeted or not).
struct SessionMetrics {
  telemetry::Counter* queries;
  telemetry::Counter* failures;
  telemetry::Histogram* query_us;
};

const SessionMetrics& Metrics() {
  static const SessionMetrics m = [] {
    auto& r = telemetry::MetricsRegistry::Global();
    SessionMetrics sm;
    sm.queries = r.GetCounter("staccato_queries_total");
    sm.failures = r.GetCounter("staccato_query_failures_total");
    sm.query_us = r.GetHistogram("staccato_query_us");
    return sm;
  }();
  return m;
}

}  // namespace

Session::Session(ShardedDb* db, SessionOptions opts) : opts_(opts) {
  for (size_t s = 0; s < db->num_shards(); ++s) shards_.push_back(db->shard(s));
}

PreparedQuery::PreparedQuery(std::vector<StaccatoDb*> shards,
                             std::vector<PlanSpec> plans, Dfa dfa,
                             std::shared_ptr<SharedPlanCacheTable> shared,
                             std::shared_ptr<telemetry::TraceSink> tracer)
    : shards_(std::move(shards)),
      plans_(std::move(plans)),
      pins_(plans_.size()),
      dfa_(std::move(dfa)),
      shared_(std::move(shared)),
      tracer_(std::move(tracer)) {
  for (size_t s = 0; s < plans_.size(); ++s) {
    shared_keys_.push_back(StringPrintf("%zu/", s) +
                           PlanFingerprint(plans_[s]));
  }
}

bool PreparedQuery::PinCurrentEntry(size_t s, uint64_t generation) {
  std::shared_ptr<const PlanCacheEntry>& pin = pins_[s];
  if (pin != nullptr && pin->generation == generation) return false;
  pin = nullptr;
  if (!Memoizes(plans_[s])) return false;
  util::MutexLock lock(&shared_->mu);
  auto it = shared_->entries.find(shared_keys_[s]);
  if (it == shared_->entries.end() || it->second->generation != generation) {
    return false;
  }
  pin = it->second;
  return true;
}

void PreparedQuery::PublishEntry(size_t s,
                                 std::shared_ptr<const PlanCacheEntry> entry) {
  pins_[s] = entry;
  if (!Memoizes(plans_[s])) return;
  const std::string& key = shared_keys_[s];
  const uint64_t generation = entry->generation;
  util::MutexLock lock(&shared_->mu);
  // The table is bounded: these are memoizations, so dropping them only
  // costs a recompute. When full, first purge entries a reload already
  // killed; if every entry is current, start the table over rather than
  // grow without bound in a long-lived serving session.
  if (shared_->entries.size() >= SharedPlanCacheTable::kMaxEntries &&
      shared_->entries.find(key) == shared_->entries.end()) {
    for (auto it = shared_->entries.begin(); it != shared_->entries.end();) {
      it = it->second->generation != generation ? shared_->entries.erase(it)
                                                : std::next(it);
    }
    if (shared_->entries.size() >= SharedPlanCacheTable::kMaxEntries) {
      shared_->entries.clear();
    }
  }
  std::shared_ptr<const PlanCacheEntry>& slot = shared_->entries[key];
  if (slot == nullptr || slot->generation < generation) slot = std::move(entry);
}

Result<PreparedQuery> Session::Prepare(Approach approach,
                                       const QueryOptions& q) {
  STACCATO_ASSIGN_OR_RETURN(Dfa dfa,
                            Dfa::Compile(q.pattern, MatchMode::kContains));
  // Plan every shard independently: each shard's own TermStats and table
  // statistics price its scan-vs-probe choice, so a skewed shard can probe
  // while its siblings scan.
  std::vector<PlanSpec> plans;
  plans.reserve(shards_.size());
  for (StaccatoDb* shard : shards_) {
    STACCATO_ASSIGN_OR_RETURN(
        PlanSpec plan, BuildPlan(shard->MakePlanContext(), approach, q,
                                 opts_.eval_threads));
    plans.push_back(std::move(plan));
  }
  return PreparedQuery(shards_, std::move(plans), std::move(dfa), plan_cache_,
                       tracer_);
}

Result<PreparedQuery> Session::PrepareSql(Approach approach,
                                          const std::string& sql) {
  STACCATO_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSelect(sql));
  if (!stmt.like.has_value()) {
    return Status::InvalidArgument("statement has no LIKE predicate");
  }
  QueryOptions q;
  q.pattern = stmt.like->pattern;
  q.num_ans = stmt.limit.has_value() ? static_cast<size_t>(*stmt.limit)
                                     : opts_.num_ans;
  q.equalities = stmt.equalities;
  return Prepare(approach, q);
}

Result<std::vector<Answer>> PreparedQuery::ScatterGather(
    QueryControl* control, QueryStats* stats, telemetry::QueryTrace* trace) {
  const size_t num_shards = shards_.size();
  // The scatter span: one child span per shard, so cross-shard skew shows
  // up in the trace the same way it does in the "Shards:" lines.
  telemetry::ScopedSpan scatter_span(trace, "Scatter");
  std::vector<PlanContext> ctxs(num_shards);
  std::vector<std::shared_ptr<const PlanCacheEntry>> entries(num_shards);
  bool shared_hit = false;
  size_t total_docs = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    ctxs[s] = shards_[s]->MakePlanContext();
    ctxs[s].control = control;  // one budget, shared across every shard
    ctxs[s].trace = trace;
    total_docs += ctxs[s].num_sfas;
    shared_hit |= PinCurrentEntry(s, ctxs[s].load_generation);
    entries[s] = pins_[s];  // null: this Execute builds the shard's entry
  }
  if (shared_hit) shared_->hits.fetch_add(1, std::memory_order_relaxed);
  // The forwarded global bound: every shard's Eval offers its answers
  // here and prunes against the global k-th best, so selective queries
  // kill candidates on one shard with answers found on another.
  TopKThreshold global_topk(plans_.front().num_ans);
  std::vector<QueryStats> per_shard(num_shards);
  std::vector<std::vector<Answer>> shard_answers(num_shards);
  // Every shard records its own Status and the lambda always returns OK,
  // so (a) a failing shard never tears down its siblings mid-eval and
  // (b) the gather below surfaces the FIRST failing shard's Status in
  // shard order — deterministic, where propagating through the pool's
  // first-error capture would surface whichever failure raced first. A
  // single shard runs inline on the calling thread.
  std::vector<Status> shard_status(num_shards);
  STACCATO_RETURN_NOT_OK(ParallelFor(num_shards, 1, [&](size_t s) -> Status {
    telemetry::ScopedSpan shard_span(trace, StringPrintf("shard-%zu", s),
                                     scatter_span.id());
    ctxs[s].trace_parent = shard_span.id();
    Result<std::vector<Answer>> r =
        ExecutePlan(ctxs[s], plans_[s], dfa_, &per_shard[s], &entries[s],
                    global_topk);
    if (r.ok()) {
      shard_answers[s] = std::move(r).ValueUnsafe();
    } else {
      shard_status[s] = r.status();
    }
    return Status::OK();
  }));
  // Gather: turn shard-local doc ids into global ones and re-rank. Each
  // shard already returned its own ranked top num_ans, and the global
  // top num_ans is a subset of their union, so one RankAnswers over the
  // concatenation reproduces the 1-shard answer bit for bit. The budget
  // is polled once per shard here (the gather cancellation point); a cut
  // only stops *new* work, so already-computed answers still merge.
  telemetry::ScopedSpan gather_span(trace, "Gather");
  std::vector<Answer> merged;
  for (size_t s = 0; s < num_shards; ++s) {
    STACCATO_RETURN_NOT_OK(shard_status[s]);
    if (!control->allow_partial()) STACCATO_RETURN_NOT_OK(control->Check());
    for (const Answer& a : shard_answers[s]) {
      merged.push_back(Answer{GlobalDocId(s, a.doc, num_shards), a.prob});
    }
  }
  for (size_t s = 0; s < num_shards; ++s) {
    if (entries[s] != pins_[s]) PublishEntry(s, std::move(entries[s]));
  }
  if (stats != nullptr) {
    FoldShardStats(per_shard, total_docs, stats);
    stats->shared_plan_hit = shared_hit;
  }
  return RankAnswers(std::move(merged), plans_.front().num_ans);
}

Result<std::vector<Answer>> PreparedQuery::Execute(QueryStats* stats) {
  ExecBudget unlimited;
  unlimited.max_io_retries = 0;
  QueryControl control(unlimited);
  return Execute(&control, stats);
}

Result<std::vector<Answer>> PreparedQuery::Execute(QueryControl* control,
                                                   QueryStats* stats) {
  Timer timer;
  const uint64_t start_ns = telemetry::MonotonicNanos();
  // Tracing is an observer only: `trace` stays null unless this query's
  // session turned it on, and nothing below ever *reads* it, so answers
  // are bit-identical either way (telemetry_test pins this down).
  std::shared_ptr<telemetry::QueryTrace> trace;
  if (tracer_->enabled()) {
    trace = telemetry::QueryTrace::Make(plan().pattern);
    if (control->admission_wait_ns() > 0) {
      // Measured by the service before Execute began; backdate the span
      // so the trace timeline starts at "entered the admission queue".
      trace->AddSpan("admission-wait", start_ns - control->admission_wait_ns(),
                     start_ns);
    }
  }
  Result<std::vector<Answer>> result =
      ScatterGather(control, stats, trace.get());
  if (stats != nullptr) {
    // One write at the top level: per-shard stats must not fold this
    // shared counter (see FoldShardStats).
    stats->io_retries = control->io_retries();
    if (result.ok()) stats->degraded = control->cut();
    stats->seconds = timer.ElapsedSeconds();
    stats->trace = trace;  // after the executor: FoldShardStats resets it
  }
  const uint64_t wall_ns = telemetry::MonotonicNanos() - start_ns;
  const SessionMetrics& m = Metrics();
  m.queries->Increment();
  if (!result.ok()) m.failures->Increment();
  m.query_us->Record(wall_ns / 1000);
  if (trace != nullptr) tracer_->Push(trace);
  // Slow-query hook: plan summary, est-vs-actual stats, and the span tree
  // (when traced) go to the capped log. Render cost is paid only by
  // queries already past the threshold.
  telemetry::SlowQueryLog& slow = telemetry::SlowQueryLog::Global();
  if (slow.ShouldLog(wall_ns / 1000000)) {
    std::string entry = StringPrintf(
        "--- slow query: %.1f ms, pattern \"%s\", status %s\n",
        static_cast<double>(wall_ns) / 1e6, plan().pattern.c_str(),
        result.ok() ? "ok" : result.status().ToString().c_str());
    if (stats != nullptr) {
      entry += ExplainPlan(plan(), *stats);
    } else {
      entry += Explain();
    }
    if (trace != nullptr) entry += telemetry::RenderTrace(*trace);
    slow.Append(entry);
  }
  return result;
}

}  // namespace staccato::rdbms
