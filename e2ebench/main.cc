// The repository's end-to-end benchmark: seeded OCR corpora driven through
// the public API (QueryService, Session, StaccatoDb / ShardedDb), every
// answer checked, every metric printed by name with its unit.
//
//   e2ebench --workload <scan_topk|lookup_sql> --seed N
//            --seconds S --trace <0|1> --workdir DIR [--trace-out FILE]
//
// Workloads (why each exists is in README.md next to this file):
//   scan_topk     CA corpus, plain StaccatoDb, one closed-loop client cycling
//                 the 7 Table 6 queries x {Staccato, FullSFA}, full scan,
//                 top-10, eval_threads = nproc. The Eval-bound path. Its
//                 traced run then measures ingest on the same database: an
//                 open-loop writer Appends at a fixed rate (WAL fsync per
//                 commit), then a timed Checkpoint.
//   lookup_sql    LT corpus, 2-shard ShardedDb with the inverted index and a
//                 2 MiB cache; nproc / 2 closed-loop clients each running
//                 PrepareSql + Execute on ad-hoc SQL over all four
//                 approaches. The planner / shard / cache path.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates tracing off
// and on every 250 ms, records benchmark-side spans around each call into
// the engine in the traced slices, writes them to --trace-out, and prints
// the per-layer metrics (trace.overhead_ratio compares the two slices).
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "automata/dfa.h"
#include "automata/trie.h"
#include "harness.h"
#include "inference/query_eval.h"
#include "metrics/metrics.h"
#include "rdbms/service.h"
#include "rdbms/session.h"
#include "rdbms/shard.h"
#include "rdbms/staccato_db.h"
#include "sfa/sfa.h"
#include "staccato/chunking.h"
#include "util/parallel.h"
#include "util/strings.h"

extern char** environ;

namespace e2ebench {
namespace {

namespace fs = std::filesystem;
using staccato::Answer;
using staccato::Dfa;
using staccato::DocId;
using staccato::MatchMode;
using staccato::StringPrintf;
using staccato::ThreadPool;
using staccato::cache::BufferCache;
using staccato::cache::CacheConfig;
using staccato::cache::CacheStats;
using staccato::rdbms::Approach;
using staccato::rdbms::DocumentInput;
using staccato::rdbms::IndexMode;
using staccato::rdbms::LoadOptions;
using staccato::rdbms::PreparedQuery;
using staccato::rdbms::QueryControl;
using staccato::rdbms::QueryOptions;
using staccato::rdbms::QueryService;
using staccato::rdbms::QueryStats;
using staccato::rdbms::Session;
using staccato::rdbms::SessionOptions;
using staccato::rdbms::ShardConfig;
using staccato::rdbms::ShardedDb;
using staccato::rdbms::StaccatoDb;

using Answers = std::vector<Answer>;

// ---- Fixed workload parameters ----------------------------------------------

constexpr int kSetupReps = 3;          // setup_s is the median of these
constexpr size_t kTopK = 10;           // scan_topk / readers: NumAns
// Recall and precision are scored on the top 100 (the paper's default
// NumAns): at top-10 they mostly measure how many true matches a seed's
// corpus happens to hold.
constexpr size_t kQualityAns = 100;
constexpr size_t kLookupShards = 2;
constexpr size_t kLookupCacheBytes = 2u << 20;  // well below the blob store
constexpr size_t kIngestAppends = 50;  // traced scan_topk: appended docs
constexpr double kAppendsPerSecond = 25.0;
constexpr uint64_t kSliceNs = 250'000'000;  // traced runs: on/off slices
constexpr size_t kWindows = 10;  // p50 / p99 / qps: medians over windows

// ---- Metric names --------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Printed with --trace 0, by every workload.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"query_p50_ms", "ms"},
    {"query_p99_ms", "ms"},    {"qps", "1/s"},
    {"recall", "frac"},        {"precision", "frac"},
    {"bytes_per_text_byte", "ratio"}, {"peak_rss_mb", "MB"},
};

// Printed with --trace 1, by every workload; a layer a workload never
// reaches reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"service.queue_ms_p99", "ms"},
    {"service.shed", "count"},
    {"session.prepare_ms_p50", "ms"},
    {"automata.dfa_compile_us", "us"},
    {"plan.candidate_gen_ms", "ms"},
    {"plan.filter_ms", "ms"},
    {"plan.fetch_eval_ms", "ms"},
    {"plan.topk_ms", "ms"},
    {"plan.candidates_per_query", "count"},
    {"plan.index_frac", "frac"},
    {"plan.plan_cache_hit_frac", "frac"},
    {"inference.ns_per_dp_step", "ns"},
    {"inference.dp_steps_per_query", "count"},
    {"inference.pruned_frac", "frac"},
    {"inference.steps_saved_per_query", "count"},
    {"sfa.decode_us_per_blob", "us"},
    {"cache.hit_rate", "frac"},
    {"cache.evictions_per_query", "count"},
    {"blob.bytes_read_per_query", "B"},
    {"blob.read_us", "us"},
    {"heap.pages_read_per_query", "count"},
    {"shard.skew", "ratio"},
    {"shard.gather_ms", "ms"},
    {"pool.queue_depth_max", "count"},
    {"pool.saturation_rejects", "count"},
    {"parallel.threads_used", "count"},
    {"ingest.append_p50_ms", "ms"},
    {"ingest.append_p98_ms", "ms"},
    {"ingest.appends", "count"},
    {"ingest.approximate_ms", "ms"},
    {"ingest.append_service_ms", "ms"},
    {"ingest.late_ms", "ms"},
    {"ingest.delta_docs_end", "count"},
    {"ingest.checkpoint_s", "s"},
    {"setup.load_s", "s"},
    {"setup.index_build_s", "s"},
    {"query.samples", "count"},
    {"trace.overhead_ratio", "ratio"},
    {"env.nproc", "count"},
    {"env.pool_threads", "count"},
    {"env.max_concurrent", "count"},
};

struct Options {
  Workload workload = Workload::kScanTopk;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string workdir;
  std::string trace_out;
};

/// What one run measured. `values` is keyed by metric name; `logs` holds
/// the spans of every client thread, `micro` those of the micro timings.
struct Report {
  std::atomic<bool> correct{true};  // cleared by any client thread
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> values;
  std::vector<SpanLog> logs;
  SpanLog micro{0};
};

// ---- Environment -------------------------------------------------------------

/// Every engine knob comes from the benchmark, not the caller's shell:
/// clear STACCATO_* (tracing, shard count, cache size, thread count,
/// admission limits, slow-query log, and STACCATO_DELTA_DOCS, whose inline
/// checkpoint races live readers) and pin fsync-per-commit WAL sync.
void PinEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const char* eq = std::strchr(*e, '=');
    if (std::strncmp(*e, "STACCATO_", 9) == 0 && eq != nullptr) {
      names.emplace_back(*e, static_cast<size_t>(eq - *e));
    }
  }
  for (const std::string& n : names) unsetenv(n.c_str());
  setenv("STACCATO_WAL_SYNC", "commit", 1);
}

size_t Nproc() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

double PeakRssMb() {
  struct rusage u {};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Bytes of every regular file under `dir` (the paper's Table 2 blow-up is
/// measured from outside: StaccatoDb::Storage() leaves text and Staccato
/// blob bytes unfilled).
uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

CacheStats SumCacheStats(const std::vector<BufferCache*>& caches) {
  CacheStats sum;
  for (const BufferCache* c : caches) {
    if (c == nullptr) continue;
    const CacheStats s = c->stats();
    sum.hits += s.hits;
    sum.misses += s.misses;
    sum.evictions += s.evictions;
  }
  return sum;
}

void SleepUntil(uint64_t ns) {
  const uint64_t now = NowNs();
  if (ns > now) std::this_thread::sleep_for(std::chrono::nanoseconds(ns - now));
}

// ---- Answer checks -------------------------------------------------------------

bool SameAnswers(const Answers& a, const Answers& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].doc != b[i].doc || a[i].prob != b[i].prob) return false;
  }
  return true;
}

/// The top `k` of a ranked answer list. Ranking is a total order
/// (probability, then doc id), so a top-k answer is exactly this prefix of
/// a longer ranking of the same query.
Answers Head(const Answers& a, size_t k) {
  return Answers(a.begin(), a.begin() + std::min(k, a.size()));
}

/// What can be checked of an answer over a database that is growing under
/// the query: known ids, probabilities descending, no duplicates.
bool WellFormed(const Answers& a, size_t num_docs) {
  std::set<DocId> seen;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].doc >= num_docs || !seen.insert(a[i].doc).second) return false;
    if (!(a[i].prob > 0.0) || (i > 0 && a[i].prob > a[i - 1].prob)) {
      return false;
    }
  }
  return true;
}

/// Mean precision and recall of reference answers against ground truth.
void AddQuality(const std::vector<Answers>& answers,
                const std::vector<std::set<DocId>>& truths, Report* rep) {
  double precision = 0.0, recall = 0.0;
  for (size_t i = 0; i < answers.size(); ++i) {
    const staccato::QualityScores q =
        staccato::ScoreAnswers(answers[i], truths[i]);
    precision += q.precision;
    recall += q.recall;
  }
  const double n = static_cast<double>(std::max<size_t>(1, answers.size()));
  rep->values["precision"] = precision / n;
  rep->values["recall"] = recall / n;
}

// ---- Timed requests ------------------------------------------------------------

/// Alternation of a traced run: slices of kSliceNs, odd slices traced.
/// Untraced runs never trace.
struct RunClock {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  bool alternate = false;

  bool Done(uint64_t now) const { return now >= end_ns; }
  bool Traced(uint64_t now) const {
    return alternate && ((now - start_ns) / kSliceNs) % 2 == 1;
  }
  /// Seconds of the run that fall in traced (or untraced) slices.
  double PhaseSeconds(bool traced) const {
    const uint64_t total = end_ns - start_ns;
    if (!alternate) return traced ? 0.0 : total / 1e9;
    const uint64_t slices = total / kSliceNs;
    uint64_t on = (slices / 2) * kSliceNs;
    if (slices % 2 == 1) on += total % kSliceNs;
    return (traced ? on : total - on) / 1e9;
  }
};

RunClock StartClock(const Options& o) {
  RunClock c;
  c.start_ns = NowNs();
  c.end_ns = c.start_ns + static_cast<uint64_t>(o.seconds * 1e9);
  c.alternate = o.trace;
  return c;
}

/// One timed query request. Timestamps split it into prepare (when the
/// workload prepares per request), admission, and execution; layer
/// figures (stats, DP steps) are kept only for traced requests.
struct Sample {
  bool traced = false;
  bool ok = false;
  uint64_t request = 0;
  uint64_t start_ns = 0;
  uint64_t prepared_ns = 0;
  uint64_t admitted_ns = 0;
  uint64_t end_ns = 0;
  uint64_t dp_steps = 0;
  QueryStats stats;

  double ms() const { return (end_ns - start_ns) / 1e6; }
};

/// Runs a prepared query through the service. Untraced requests take the
/// user's path, QueryService::Execute. Traced requests drive the same
/// admission gate by hand around a benchmark-owned QueryControl, so the DP
/// steps the executor charged to the query can be read back.
Result<Answers> ExecuteQuery(QueryService* svc, PreparedQuery* pq,
                             Sample* s) {
  if (!s->traced) {
    Result<Answers> r = svc->Execute(pq, nullptr);
    s->admitted_ns = s->prepared_ns;
    s->end_ns = NowNs();
    return r;
  }
  Status admitted = svc->Admit();
  s->admitted_ns = NowNs();
  if (!admitted.ok()) {
    s->end_ns = s->admitted_ns;
    return admitted;
  }
  QueryControl control(svc->config().default_budget);
  Result<Answers> r = pq->Execute(&control, &s->stats);
  svc->Release();
  s->end_ns = NowNs();
  s->dp_steps = control.dp_steps();
  return r;
}

/// The request's spans: root, prepare, admission wait, execution — with
/// the executor's own stage and shard figures copied onto the execution
/// span.
void RecordSpans(const Sample& s, SpanLog* log) {
  const uint64_t root = log->Add("request", s.request, 0, s.start_ns, s.end_ns);
  if (s.prepared_ns > s.start_ns) {
    log->Add("session.prepare", s.request, root, s.start_ns, s.prepared_ns);
  }
  log->Add("service.admit", s.request, root, s.prepared_ns, s.admitted_ns);
  const uint64_t ex =
      log->Add("session.execute", s.request, root, s.admitted_ns, s.end_ns);
  const QueryStats& st = s.stats;
  log->Attr(ex, "seconds", st.seconds);
  log->Attr(ex, "candidate_gen_ms", st.stage.candidate_gen_s * 1e3);
  log->Attr(ex, "filter_ms", st.stage.filter_s * 1e3);
  log->Attr(ex, "fetch_eval_ms", st.stage.fetch_eval_s * 1e3);
  log->Attr(ex, "topk_ms", st.stage.topk_s * 1e3);
  log->Attr(ex, "candidates", static_cast<double>(st.candidates));
  log->Attr(ex, "eval_pruned", static_cast<double>(st.eval_pruned));
  log->Attr(ex, "dp_steps", static_cast<double>(s.dp_steps));
  log->Attr(ex, "used_index", st.used_index ? 1.0 : 0.0);
  for (const staccato::rdbms::ShardStats& sh : st.shards) {
    log->Attr(ex, StringPrintf("shard%zu.total_ms", sh.shard),
              sh.stage.total_s * 1e3);
    log->Attr(ex, StringPrintf("shard%zu.candidates", sh.shard),
              static_cast<double>(sh.candidates));
  }
}

/// Runs `clients` closed-loop clients until the clock ends. `one(client,
/// sample)` performs a request and fills the sample (ok, timestamps,
/// stats); the runner stamps its start, tracing flag, and request id, and
/// records its spans when traced.
template <typename Fn>
std::vector<Sample> RunClosedLoop(size_t clients, const RunClock& clock,
                                  Report* rep, Fn one) {
  std::vector<std::vector<Sample>> per_client(clients);
  std::vector<SpanLog> logs;
  for (size_t c = 0; c < clients; ++c) {
    logs.emplace_back(static_cast<uint32_t>(rep->logs.size() + c + 1));
  }
  std::atomic<uint64_t> next_request{1};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (;;) {
        const uint64_t now = NowNs();
        if (clock.Done(now)) break;
        Sample s;
        s.traced = clock.Traced(now);
        s.request = next_request.fetch_add(1);
        s.start_ns = s.prepared_ns = now;
        one(c, &s);
        if (s.traced) RecordSpans(s, &logs[c]);
        per_client[c].push_back(std::move(s));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<Sample> all;
  for (auto& v : per_client) {
    for (Sample& s : v) all.push_back(std::move(s));
  }
  for (SpanLog& l : logs) rep->logs.push_back(std::move(l));
  return all;
}

/// Samples the shared pool's queue depth every millisecond (traced runs
/// only: the sampling thread itself competes for a core).
class PoolSampler {
 public:
  PoolSampler() : thread_([this] { Loop(); }) {}
  ~PoolSampler() { Stop(); }
  PoolSampler(const PoolSampler&) = delete;
  PoolSampler& operator=(const PoolSampler&) = delete;

  size_t Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return max_depth_.load();
  }

 private:
  void Loop() {
    while (!stop_.load()) {
      const size_t d = ThreadPool::Shared().queue_depth();
      if (d > max_depth_.load()) max_depth_.store(d);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  std::atomic<bool> stop_{false};
  std::atomic<size_t> max_depth_{0};
  std::thread thread_;  // last: starts after the members it uses exist
};

/// Engine counters read around the timed loop.
struct Counters {
  CacheStats cache;
  uint64_t pool_rejects = 0;
};

Counters ReadCounters(const std::vector<BufferCache*>& caches) {
  return {SumCacheStats(caches), ThreadPool::Shared().saturation_rejects()};
}

/// Failure accounting and the end-to-end / per-layer query metrics of one
/// timed loop.
void AddQueryMetrics(const Options& o, const std::vector<Sample>& samples,
                     const RunClock& clock, const Counters& before,
                     const Counters& after, const QueryService& svc,
                     Report* rep) {
  std::vector<double> ok_ms;
  std::vector<TimedSample> timed;
  size_t traced_done = 0, untraced_done = 0;
  for (const Sample& s : samples) {
    ++rep->attempted;
    if (!s.ok) {
      ++rep->failed;
      continue;
    }
    ok_ms.push_back(s.ms());
    timed.push_back({s.start_ns - clock.start_ns, s.ms()});
    (s.traced ? traced_done : untraced_done) += 1;
  }
  const LatencySummary lat = Summarize(ok_ms);
  const WindowedSummary win =
      SummarizeWindows(timed, clock.end_ns - clock.start_ns, kWindows);
  std::fprintf(stderr,
               "[e2ebench] queries: %zu ok of %zu; whole run p50 %.3f ms, "
               "p99 %.3f ms (%zu samples beyond p99); median of %zu windows "
               "p50 %.3f ms, p99 %.3f ms, %.1f qps\n",
               lat.count, samples.size(), lat.p50, lat.p99, lat.beyond_p99,
               win.windows, win.p50, win.p99, win.qps);
  auto& v = rep->values;
  if (!o.trace) {
    v["query_p50_ms"] = win.p50;
    v["query_p99_ms"] = win.p99;
    v["qps"] = win.qps;
    return;
  }
  // Per-layer figures come from the traced slices only.
  std::vector<double> queue_ms, prepare_ms;
  double cand_gen = 0, filter = 0, fetch_eval = 0, topk = 0, candidates = 0;
  double index = 0, plan_hits = 0, dp_steps = 0, pruned = 0, saved = 0;
  double bytes = 0, pages = 0, threads = 0, skew = 0, gather_ms = 0;
  size_t n = 0, sharded = 0;
  for (const Sample& s : samples) {
    if (!s.traced || !s.ok) continue;
    const QueryStats& st = s.stats;
    ++n;
    queue_ms.push_back((s.end_ns - s.prepared_ns) / 1e6 - st.seconds * 1e3);
    if (s.prepared_ns > s.start_ns) {
      prepare_ms.push_back((s.prepared_ns - s.start_ns) / 1e6);
    }
    cand_gen += st.stage.candidate_gen_s * 1e3;
    filter += st.stage.filter_s * 1e3;
    fetch_eval += st.stage.fetch_eval_s * 1e3;
    topk += st.stage.topk_s * 1e3;
    candidates += static_cast<double>(st.candidates);
    index += st.used_index ? 1 : 0;
    plan_hits += (st.filter_from_cache || st.candidates_from_cache ||
                  st.shared_plan_hit)
                     ? 1
                     : 0;
    dp_steps += static_cast<double>(s.dp_steps);
    pruned += static_cast<double>(st.eval_pruned);
    saved += static_cast<double>(st.eval_steps_saved);
    bytes += static_cast<double>(st.blob_bytes_read);
    pages += static_cast<double>(st.heap_pages_read);
    threads += static_cast<double>(st.threads_used);
    if (st.shards.size() > 1) {
      double max_s = 0, sum_s = 0;
      for (const auto& sh : st.shards) {
        max_s = std::max(max_s, sh.stage.total_s);
        sum_s += sh.stage.total_s;
      }
      const double mean_s = sum_s / static_cast<double>(st.shards.size());
      if (mean_s > 0) skew += max_s / mean_s;
      gather_ms += (st.seconds - max_s) * 1e3;
      ++sharded;
    }
  }
  const double dn = static_cast<double>(std::max<size_t>(1, n));
  v["service.queue_ms_p99"] = Percentile(queue_ms, 0.99);
  v["service.shed"] = static_cast<double>(svc.stats().shed.load() +
                                          svc.stats().timed_out.load());
  v["session.prepare_ms_p50"] = Percentile(prepare_ms, 0.50);
  v["plan.candidate_gen_ms"] = cand_gen / dn;
  v["plan.filter_ms"] = filter / dn;
  v["plan.fetch_eval_ms"] = fetch_eval / dn;
  v["plan.topk_ms"] = topk / dn;
  v["plan.candidates_per_query"] = candidates / dn;
  v["plan.index_frac"] = index / dn;
  v["plan.plan_cache_hit_frac"] = plan_hits / dn;
  v["inference.dp_steps_per_query"] = dp_steps / dn;
  v["inference.pruned_frac"] = candidates > 0 ? pruned / candidates : 0.0;
  v["inference.steps_saved_per_query"] = saved / dn;
  v["blob.bytes_read_per_query"] = bytes / dn;
  v["heap.pages_read_per_query"] = pages / dn;
  v["parallel.threads_used"] = threads / dn;
  if (sharded > 0) {
    v["shard.skew"] = skew / static_cast<double>(sharded);
    v["shard.gather_ms"] = gather_ms / static_cast<double>(sharded);
  }
  const uint64_t lookups = (after.cache.hits - before.cache.hits) +
                           (after.cache.misses - before.cache.misses);
  if (lookups > 0) {
    v["cache.hit_rate"] =
        static_cast<double>(after.cache.hits - before.cache.hits) / lookups;
  }
  v["cache.evictions_per_query"] =
      static_cast<double>(after.cache.evictions - before.cache.evictions) /
      static_cast<double>(std::max<size_t>(1, samples.size()));
  v["pool.saturation_rejects"] =
      static_cast<double>(after.pool_rejects - before.pool_rejects);
  v["query.samples"] = static_cast<double>(n);
  const double on_s = clock.PhaseSeconds(true);
  const double off_s = clock.PhaseSeconds(false);
  if (on_s > 0 && off_s > 0 && untraced_done > 0) {
    v["trace.overhead_ratio"] = (traced_done / on_s) / (untraced_done / off_s);
  }
}

/// A workload's timed closed loop: `clients` clients run `one` until the
/// clock ends, with the engine's counters read around the loop (and the
/// pool's queue depth sampled in traced runs), then AddQueryMetrics.
template <typename Fn>
void MeasureQueries(const Options& o, const RunClock& clock, size_t clients,
                    const std::vector<BufferCache*>& caches,
                    const QueryService& svc, Report* rep, Fn one) {
  std::optional<PoolSampler> sampler;
  if (o.trace) sampler.emplace();
  const Counters before = ReadCounters(caches);
  const std::vector<Sample> samples = RunClosedLoop(clients, clock, rep, one);
  const Counters after = ReadCounters(caches);
  if (sampler) {
    rep->values["pool.queue_depth_max"] = static_cast<double>(sampler->Stop());
  }
  AddQueryMetrics(o, samples, clock, before, after, svc, rep);
}

/// bytes_per_text_byte: every file under the database directory over the
/// text bytes of the documents it holds.
void AddStorage(const Options& o, uint64_t text_bytes, Report* rep) {
  rep->values["bytes_per_text_byte"] =
      static_cast<double>(DirBytes(o.workdir + "/db")) /
      static_cast<double>(text_bytes);
}

// ---- Micro measurements over the workload's own data -------------------------

/// Reads one stored blob (Staccato chunk graph or FullSFA) by document id.
using BlobReader = std::function<Result<std::string>(DocId, bool full_sfa)>;

/// Times blob reads, SfaView decoding, and the bounded DP kernel over 32
/// documents spread across the corpus, against every workload pattern.
Status MeasureKernels(const BlobReader& read, size_t num_docs,
                      const std::vector<std::string>& patterns, Report* rep) {
  constexpr size_t kDocs = 32;
  constexpr int kDecodeReps = 20;
  constexpr int kEvalReps = 3;
  const uint64_t start_ns = NowNs();
  std::vector<std::string> blobs;
  uint64_t read_ns = 0;
  for (size_t i = 0; i < kDocs; ++i) {
    const DocId doc = static_cast<DocId>(i * num_docs / kDocs);
    for (bool full : {false, true}) {
      const uint64_t t0 = NowNs();
      STACCATO_ASSIGN_OR_RETURN(std::string blob, read(doc, full));
      read_ns += NowNs() - t0;
      blobs.push_back(std::move(blob));
    }
  }
  std::vector<Dfa> dfas;
  for (const std::string& p : patterns) {
    STACCATO_ASSIGN_OR_RETURN(Dfa d, Dfa::Compile(p, MatchMode::kContains));
    dfas.push_back(std::move(d));
  }
  staccato::SfaViewArena arena;
  staccato::SfaView view;
  staccato::EvalScratch scratch;
  uint64_t decode_ns = 0, eval_ns = 0, steps = 0;
  double sink = 0.0;
  for (const std::string& blob : blobs) {
    const uint64_t t0 = NowNs();
    for (int r = 0; r < kDecodeReps; ++r) {
      STACCATO_RETURN_NOT_OK(view.Decode(blob, &arena));
    }
    decode_ns += NowNs() - t0;
    for (int r = 0; r < kEvalReps; ++r) {
      for (const Dfa& dfa : dfas) {
        staccato::EvalBound bound;
        const uint64_t e0 = NowNs();
        sink += staccato::EvalSfaViewBounded(view, dfa, 0.0, &scratch, &bound);
        eval_ns += NowNs() - e0;
        steps += bound.steps;
      }
    }
  }
  if (!(sink >= 0.0)) return Status::Internal("kernel returned NaN");
  auto& v = rep->values;
  v["blob.read_us"] = read_ns / 1e3 / static_cast<double>(blobs.size());
  v["sfa.decode_us_per_blob"] =
      decode_ns / 1e3 / static_cast<double>(blobs.size() * kDecodeReps);
  v["inference.ns_per_dp_step"] =
      steps > 0 ? static_cast<double>(eval_ns) / steps : 0.0;
  const uint64_t span = rep->micro.Add("micro.kernels", 0, 0, start_ns, NowNs());
  rep->micro.Attr(span, "blobs", static_cast<double>(blobs.size()));
  rep->micro.Attr(span, "dp_steps", static_cast<double>(steps));
  for (const char* m :
       {"blob.read_us", "sfa.decode_us_per_blob", "inference.ns_per_dp_step"}) {
    rep->micro.Attr(span, m, v[m]);
  }
  return Status::OK();
}

Status MeasureDfaCompile(const std::vector<std::string>& patterns,
                         Report* rep) {
  constexpr int kReps = 50;
  const uint64_t t0 = NowNs();
  for (int r = 0; r < kReps; ++r) {
    for (const std::string& p : patterns) {
      STACCATO_RETURN_NOT_OK(Dfa::Compile(p, MatchMode::kContains).status());
    }
  }
  const uint64_t t1 = NowNs();
  const double us = (t1 - t0) / 1e3 / static_cast<double>(kReps * patterns.size());
  rep->values["automata.dfa_compile_us"] = us;
  rep->micro.Attr(rep->micro.Add("micro.dfa_compile", 0, 0, t0, t1),
                  "automata.dfa_compile_us", us);
  return Status::OK();
}

// ---- Setup ---------------------------------------------------------------------

struct SetupTimes {
  std::vector<double> total_s, load_s, index_s;

  void AddTo(Report* rep) const {
    rep->values["setup_s"] = Percentile(total_s, 0.5);
    rep->values["setup.load_s"] = Percentile(load_s, 0.5);
    rep->values["setup.index_build_s"] = Percentile(index_s, 0.5);
    std::fprintf(stderr, "[e2ebench] setup_s over %d reps:", kSetupReps);
    for (double s : total_s) std::fprintf(stderr, " %.3f", s);
    std::fprintf(stderr, "\n");
  }
};

/// A fresh, empty database directory (a previous repetition's is removed).
std::string FreshDir(const Options& o) {
  const std::string dir = o.workdir + "/db";
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

QueryOptions TopKQuery(const std::string& pattern, IndexMode mode,
                       size_t threads) {
  QueryOptions q;
  q.pattern = pattern;
  q.num_ans = kTopK;
  q.index_mode = mode;
  q.eval_threads = threads;
  return q;
}

void ReportEnvironment(const QueryService& svc, Report* rep) {
  auto& v = rep->values;
  v["env.nproc"] = static_cast<double>(Nproc());
  v["env.pool_threads"] = static_cast<double>(ThreadPool::Shared().capacity());
  v["env.max_concurrent"] = static_cast<double>(svc.config().max_concurrent);
  std::fprintf(stderr,
               "[e2ebench] nproc=%zu pool_threads=%zu max_concurrent=%zu "
               "max_queued=%zu queue_timeout_ms=%.0f\n",
               Nproc(), ThreadPool::Shared().capacity(),
               svc.config().max_concurrent, svc.config().max_queued,
               svc.config().queue_timeout_ms);
}

// ---- Ingest, measured after scan_topk's timed loop ----------------------------

DocumentInput InputFor(const OcrDataset& d, size_t i) {
  DocumentInput in;
  const uint32_t page = d.corpus.page_of_line[i];
  in.doc_name = StringPrintf("%s-page-%u", d.corpus.name.c_str(), page);
  in.year = 2010 + page;
  in.truth = d.corpus.lines[i];
  in.sfa = d.sfas[i];
  return in;
}

/// Runs every pattern once through a fresh session (serial, top-100).
Result<std::vector<Answers>> RunAll(StaccatoDb* db,
                                    const std::vector<std::string>& patterns) {
  Session session(db, SessionOptions{1, kQualityAns});
  std::vector<Answers> out;
  for (const std::string& p : patterns) {
    QueryOptions q = TopKQuery(p, IndexMode::kAuto, 1);
    q.num_ans = kQualityAns;
    STACCATO_ASSIGN_OR_RETURN(PreparedQuery pq,
                              session.Prepare(Approach::kStaccato, q));
    STACCATO_ASSIGN_OR_RETURN(Answers ans, pq.Execute(nullptr));
    out.push_back(std::move(ans));
  }
  return out;
}

/// The Append / WAL / chunking / Checkpoint layers on the workload's own
/// database, once its timed loop is over: an open-loop writer appends
/// copies of the first kIngestAppends documents at kAppendsPerSecond (WAL
/// fsync per commit), each timed from when it was due; then a timed
/// Checkpoint, across which every query must answer identically; then
/// ApproximateSfa, the chunking every Append runs, on its own.
Status MeasureIngest(StaccatoDb* db, const Inputs& in, Report* rep) {
  const uint64_t interval_ns = static_cast<uint64_t>(1e9 / kAppendsPerSecond);
  const uint64_t start_ns = NowNs();
  std::vector<double> latency_ms, late_ms, service_ms;
  for (size_t i = 0; i < kIngestAppends; ++i) {
    const DocumentInput input = InputFor(in.data, i);
    const uint64_t due_ns = start_ns + i * interval_ns;
    SleepUntil(due_ns);
    const uint64_t t0 = NowNs();
    const bool ok = db->Append(input).ok();
    const uint64_t t1 = NowNs();
    ++rep->attempted;
    if (!ok) {
      ++rep->failed;
      continue;
    }
    rep->micro.Add("db.append", 0, 0, t0, t1);
    latency_ms.push_back((t1 - due_ns) / 1e6);
    late_ms.push_back((t0 - due_ns) / 1e6);
    service_ms.push_back((t1 - t0) / 1e6);
  }
  auto& v = rep->values;
  v["ingest.append_p50_ms"] = Percentile(latency_ms, 0.50);
  v["ingest.append_p98_ms"] = Percentile(latency_ms, 0.98);
  v["ingest.appends"] = static_cast<double>(latency_ms.size());
  v["ingest.late_ms"] = Mean(late_ms);
  v["ingest.append_service_ms"] = Mean(service_ms);
  v["ingest.delta_docs_end"] = static_cast<double>(db->DeltaDocs());
  std::fprintf(stderr,
               "[e2ebench] appends: %zu ok of %zu, p50 %.3f ms, p98 %.3f ms\n",
               latency_ms.size(), kIngestAppends, v["ingest.append_p50_ms"],
               v["ingest.append_p98_ms"]);

  STACCATO_ASSIGN_OR_RETURN(std::vector<Answers> before_ckpt,
                            RunAll(db, in.patterns));
  const uint64_t c0 = NowNs();
  STACCATO_RETURN_NOT_OK(db->Checkpoint());
  const uint64_t c1 = NowNs();
  v["ingest.checkpoint_s"] = (c1 - c0) / 1e9;
  rep->micro.Add("db.checkpoint", 0, 0, c0, c1);
  STACCATO_ASSIGN_OR_RETURN(std::vector<Answers> after_ckpt,
                            RunAll(db, in.patterns));
  for (size_t i = 0; i < in.patterns.size(); ++i) {
    ++rep->attempted;
    if (!SameAnswers(before_ckpt[i], after_ckpt[i]) ||
        !WellFormed(after_ckpt[i], db->NumSfas())) {
      rep->correct = false;
      ++rep->failed;
    }
  }

  constexpr size_t kChunkings = 16;
  const uint64_t t0 = NowNs();
  for (size_t i = 0; i < kChunkings; ++i) {
    STACCATO_RETURN_NOT_OK(
        staccato::ApproximateSfa(in.data.sfas[i], LoadOptions().staccato)
            .status());
  }
  const uint64_t t1 = NowNs();
  v["ingest.approximate_ms"] = (t1 - t0) / 1e6 / static_cast<double>(kChunkings);
  rep->micro.Attr(rep->micro.Add("micro.approximate_sfa", 0, 0, t0, t1),
                  "ingest.approximate_ms", v["ingest.approximate_ms"]);
  return Status::OK();
}

// ---- scan_topk -----------------------------------------------------------------

Status RunScanTopk(const Options& o, const Inputs& in, Report* rep) {
  const Approach approaches[] = {Approach::kStaccato, Approach::kFullSfa};
  std::unique_ptr<StaccatoDb> db;
  std::unique_ptr<Session> session;
  std::vector<PreparedQuery> queries;
  SetupTimes setup;
  for (int r = 0; r < kSetupReps; ++r) {
    queries.clear();
    session.reset();
    db.reset();
    const std::string dir = FreshDir(o);
    const uint64_t t0 = NowNs();
    STACCATO_ASSIGN_OR_RETURN(
        db, StaccatoDb::Open(dir, CacheConfig{CacheConfig::kDefaultBudgetBytes,
                                              0}));
    const uint64_t t1 = NowNs();
    STACCATO_RETURN_NOT_OK(db->Load(in.data, LoadOptions()));
    const uint64_t t2 = NowNs();
    session = std::make_unique<Session>(db.get(),
                                        SessionOptions{Nproc(), kTopK});
    for (const std::string& p : in.patterns) {
      for (Approach a : approaches) {
        STACCATO_ASSIGN_OR_RETURN(
            PreparedQuery pq,
            session->Prepare(a, TopKQuery(p, IndexMode::kNever, Nproc())));
        queries.push_back(std::move(pq));
      }
    }
    const uint64_t t3 = NowNs();
    setup.total_s.push_back((t3 - t0) / 1e9);
    setup.load_s.push_back((t2 - t1) / 1e9);
    setup.index_s.push_back(0.0);
  }
  setup.AddTo(rep);

  // Reference answers: serial, unpruned, cold, top-100; a timed top-10
  // must equal their first ten.
  std::vector<Answers> refs, expected;
  std::vector<std::set<DocId>> truths;
  for (const std::string& p : in.patterns) {
    STACCATO_ASSIGN_OR_RETURN(std::set<DocId> truth, db->GroundTruthFor(p));
    for (Approach a : approaches) {
      QueryOptions q = TopKQuery(p, IndexMode::kNever, 1);
      q.num_ans = kQualityAns;
      q.early_stop = false;
      STACCATO_ASSIGN_OR_RETURN(PreparedQuery pq, session->Prepare(a, q));
      STACCATO_RETURN_NOT_OK(db->DropCaches());
      STACCATO_ASSIGN_OR_RETURN(Answers ans, pq.Execute(nullptr));
      expected.push_back(Head(ans, kTopK));
      refs.push_back(std::move(ans));
      truths.push_back(truth);
    }
  }
  AddQuality(refs, truths, rep);

  QueryService svc(session.get());
  ReportEnvironment(svc, rep);
  // Warm pass: caches fill and lazy pool start-up finishes before timing.
  for (size_t i = 0; i < queries.size(); ++i) {
    STACCATO_ASSIGN_OR_RETURN(Answers ans, svc.Execute(&queries[i]));
    if (!SameAnswers(ans, expected[i])) rep->correct = false;
  }

  size_t next = 0;
  MeasureQueries(o, StartClock(o), 1, {db->buffer_cache()}, svc, rep,
                 [&](size_t, Sample* s) {
                   const size_t qi = next++ % queries.size();
                   Result<Answers> ans = ExecuteQuery(&svc, &queries[qi], s);
                   s->ok = ans.ok() && SameAnswers(*ans, expected[qi]);
                   if (ans.ok() && !s->ok) rep->correct = false;
                 });
  AddStorage(o, in.data.TotalTextBytes(), rep);
  if (o.trace) {
    STACCATO_RETURN_NOT_OK(MeasureKernels(
        [&](DocId d, bool full) {
          return full ? db->ReadFullSfaBlob(d) : db->ReadStaccatoBlob(d);
        },
        db->NumSfas(), in.patterns, rep));
    STACCATO_RETURN_NOT_OK(MeasureIngest(db.get(), in, rep));
  }
  return Status::OK();
}

// ---- lookup_sql ----------------------------------------------------------------

Status RunLookupSql(const Options& o, const Inputs& in, Report* rep) {
  const std::vector<std::string> dictionary =
      staccato::BuildDictionaryFromCorpus(in.data.corpus.lines);
  std::unique_ptr<ShardedDb> db;
  SetupTimes setup;
  for (int r = 0; r < kSetupReps; ++r) {
    db.reset();
    const std::string dir = FreshDir(o);
    const uint64_t t0 = NowNs();
    STACCATO_ASSIGN_OR_RETURN(
        db, ShardedDb::Open(dir, ShardConfig{kLookupShards,
                                             CacheConfig{kLookupCacheBytes, 0}}));
    const uint64_t t1 = NowNs();
    STACCATO_RETURN_NOT_OK(db->Load(in.data, LoadOptions()));
    const uint64_t t2 = NowNs();
    STACCATO_RETURN_NOT_OK(db->BuildInvertedIndex(dictionary));
    const uint64_t t3 = NowNs();
    setup.total_s.push_back((t3 - t0) / 1e9);
    setup.load_s.push_back((t2 - t1) / 1e9);
    setup.index_s.push_back((t3 - t2) / 1e9);
  }
  setup.AddTo(rep);

  // Reference answers for every distinct request: serial, unpruned, cold.
  // Ground truth of a Year-filtered request is restricted to that year.
  const SessionOptions session_opts{1, 100};
  Session ref_session(db.get(), session_opts);
  std::map<std::string, std::set<DocId>> truth_of;
  std::vector<Answers> refs;
  std::vector<std::set<DocId>> truths;
  for (const SqlRequest& r : in.distinct) {
    STACCATO_ASSIGN_OR_RETURN(PreparedQuery pq,
                              ref_session.PrepareSql(r.approach, r.sql));
    pq.set_eval_threads(1);
    pq.set_early_stop(false);
    STACCATO_RETURN_NOT_OK(db->DropCaches());
    STACCATO_ASSIGN_OR_RETURN(Answers ans, pq.Execute(nullptr));
    refs.push_back(std::move(ans));
    if (truth_of.count(r.pattern) == 0) {
      STACCATO_ASSIGN_OR_RETURN(truth_of[r.pattern],
                                db->GroundTruthFor(r.pattern));
    }
    std::set<DocId> truth;
    for (DocId d : truth_of[r.pattern]) {
      if (r.year < 0 ||
          2010 + static_cast<int64_t>(in.data.corpus.page_of_line[d]) ==
              r.year) {
        truth.insert(d);
      }
    }
    truths.push_back(std::move(truth));
  }
  AddQuality(refs, truths, rep);

  // Each request scatters to every shard, so nproc / shards clients keep
  // about nproc tasks runnable; more would measure the scheduler of a
  // shared machine rather than the engine.
  const size_t clients = std::max<size_t>(1, Nproc() / kLookupShards);
  std::vector<std::unique_ptr<Session>> sessions;
  for (size_t c = 0; c < clients; ++c) {
    sessions.push_back(std::make_unique<Session>(db.get(), session_opts));
  }
  QueryService svc(sessions[0].get());
  ReportEnvironment(svc, rep);
  std::vector<BufferCache*> caches;
  for (size_t s = 0; s < db->num_shards(); ++s) {
    caches.push_back(db->shard(s)->buffer_cache());
  }

  std::atomic<size_t> cursor{0};
  auto one = [&](size_t c, Sample* s) {
    const SqlRequest& r = in.requests[cursor.fetch_add(1) % in.requests.size()];
    Result<PreparedQuery> pq = sessions[c]->PrepareSql(r.approach, r.sql);
    s->prepared_ns = NowNs();
    if (!pq.ok()) {
      s->end_ns = s->admitted_ns = s->prepared_ns;
      return;
    }
    Result<Answers> ans = ExecuteQuery(&svc, &*pq, s);
    s->ok = ans.ok() && SameAnswers(*ans, refs[r.distinct]);
    if (ans.ok() && !s->ok) rep->correct = false;
  };
  // Untimed warm pass: lazy pool start-up and first touches of each table.
  for (size_t i = 0; i < std::min<size_t>(64, in.requests.size()); ++i) {
    Sample s;
    s.start_ns = s.prepared_ns = NowNs();
    one(0, &s);
  }
  cursor = 0;

  MeasureQueries(o, StartClock(o), clients, caches, svc, rep, one);
  AddStorage(o, in.data.TotalTextBytes(), rep);
  if (o.trace) {
    StaccatoDb* shard0 = db->shard(0);
    STACCATO_RETURN_NOT_OK(MeasureKernels(
        [&](DocId d, bool full) {
          return full ? shard0->ReadFullSfaBlob(d)
                      : shard0->ReadStaccatoBlob(d);
        },
        shard0->NumSfas(), in.patterns, rep));
    STACCATO_RETURN_NOT_OK(MeasureDfaCompile(in.patterns, rep));
  }
  return Status::OK();
}

// ---- Entry point ---------------------------------------------------------------

void Usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload <scan_topk|lookup_sql>"
               " --seed N --seconds S --trace <0|1> --workdir DIR"
               " [--trace-out FILE]\n");
}

Result<Options> ParseArgs(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Status::InvalidArgument("missing value: " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      STACCATO_ASSIGN_OR_RETURN(o.workload, ParseWorkload(value));
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && o.seconds > 0 &&
                     o.seconds <= 600;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return Status::InvalidArgument("--trace takes 0 or 1");
      }
      o.trace = value == "1";
    } else if (flag == "--workdir") {
      o.workdir = value;
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || o.workdir.empty()) {
    return Status::InvalidArgument(
        "--workload, --seed, --seconds and --workdir are required");
  }
  return o;
}

Status Run(const Options& o, Report* rep) {
  STACCATO_ASSIGN_OR_RETURN(Inputs in, MakeInputs(o.workload, o.seed));
  fs::create_directories(o.workdir);
  switch (o.workload) {
    case Workload::kScanTopk:
      return RunScanTopk(o, in, rep);
    case Workload::kLookupSql:
      return RunLookupSql(o, in, rep);
  }
  return Status::Internal("unreachable");
}

int Main(int argc, char** argv) {
  PinEnvironment();
  Result<Options> opts = ParseArgs(argc, argv);
  if (!opts.ok()) {
    std::fprintf(stderr, "e2ebench: %s\n", opts.status().ToString().c_str());
    Usage();
    return 2;
  }
  const Options& o = *opts;
  Report rep;
  const Status st = Run(o, &rep);
  std::error_code ec;
  fs::remove_all(o.workdir, ec);
  if (!st.ok()) {
    std::fprintf(stderr, "e2ebench: %s failed: %s\n", WorkloadName(o.workload),
                 st.ToString().c_str());
    return 1;
  }
  rep.values["peak_rss_mb"] = PeakRssMb();
  if (o.trace && !o.trace_out.empty()) {
    rep.logs.push_back(std::move(rep.micro));
    const Status w = WriteSpans(o.trace_out, rep.logs);
    if (!w.ok()) {
      std::fprintf(stderr, "e2ebench: %s\n", w.ToString().c_str());
      return 1;
    }
  }
  std::vector<Metric> metrics;
  if (o.trace) {
    for (const MetricSpec& m : kPerLayer) {
      metrics.push_back({m.name, rep.values[m.name], m.unit});
    }
  } else {
    for (const MetricSpec& m : kEndToEnd) {
      metrics.push_back({m.name, rep.values[m.name], m.unit});
    }
  }
  if (!rep.correct) {
    std::fprintf(stderr, "e2ebench: answers failed the correctness check\n");
  }
  std::printf("%s\n", ResultLine(rep.correct, rep.attempted, rep.failed,
                                 metrics)
                          .c_str());
  return rep.correct ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
