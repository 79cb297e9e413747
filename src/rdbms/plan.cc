#include "rdbms/plan.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <utility>

#include "automata/pattern.h"
#include "indexing/projection.h"
#include "inference/query_eval.h"
#include "rdbms/kmap_row.h"
#include "rdbms/service.h"
#include "telemetry/clock.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace staccato::rdbms {

namespace {

/// One cancellation-point poll of the per-query control block. OK with
/// `*cut_now` false = keep going; OK with `*cut_now` true = the budget ran
/// out but the caller allows partial results, so stop visiting new work
/// and degrade; non-OK = fail the query with DeadlineExceeded.
Status PollControl(QueryControl* control, bool* cut_now) {
  *cut_now = false;
  if (control->cut()) {
    *cut_now = true;
    return Status::OK();
  }
  Status st = control->Check();
  if (st.ok()) return st;
  if (control->allow_partial()) {
    control->MarkCut();
    *cut_now = true;
    return Status::OK();
  }
  return st;
}

/// Coerces an equality literal (kept as written by the SQL parser) to the
/// type of the MasterData column it compares against.
Result<Value> CoerceLiteral(const EqualityPredicate& eq, ValueType type) {
  if (eq.quoted && (type == ValueType::kInt || type == ValueType::kDouble)) {
    return Status::InvalidArgument("string literal '" + eq.value +
                                   "' compared to numeric column " + eq.column);
  }
  switch (type) {
    case ValueType::kInt: {
      char* end = nullptr;
      long long v = std::strtoll(eq.value.c_str(), &end, 10);
      if (end == eq.value.c_str() || *end != '\0') {
        return Status::InvalidArgument("equality literal '" + eq.value +
                                       "' is not an integer (column " +
                                       eq.column + ")");
      }
      return Value::Int(v);
    }
    case ValueType::kDouble: {
      char* end = nullptr;
      double v = std::strtod(eq.value.c_str(), &end);
      if (end == eq.value.c_str() || *end != '\0') {
        return Status::InvalidArgument("equality literal '" + eq.value +
                                       "' is not a number (column " +
                                       eq.column + ")");
      }
      return Value::Double(v);
    }
    case ValueType::kString:
      return Value::String(eq.value);
    case ValueType::kBlobId:
      return Status::InvalidArgument("cannot compare blob column " +
                                     eq.column);
  }
  return Status::InvalidArgument("unknown column type");
}

size_t ResolveThreads(size_t requested, size_t default_threads) {
  size_t t = requested == 0 ? default_threads : requested;
  if (t == 0) t = ThreadPool::DefaultThreads();
  return t;
}

// ---- Cost model ------------------------------------------------------------
//
// Costs are abstract units where 1.0 is one sequential 8 KiB page read.
// The constants below only have to rank the scan and index paths of the
// same query correctly; they are not wall-clock predictions.
//
// Calibration (bench_table1_costmodel "calibration" section + the
// reference-vs-view kernel timings, Release build, reference container):
//
//   * One B+-tree descent + heap point Get + blob read measured ~0.65 µs
//     warm. That operation is priced kPointReadCost = 2.0, anchoring the
//     abstract unit at ≈ 0.33 µs. A blob fetch reads its blob id from
//     BaseEpoch's in-memory arrays and makes no heap point get, so the
//     model overcharges a fetch miss; re-pricing is left open so that no
//     plan or Explain string moves.
//   * The DFA×SFA DP costs ~4.8 ns per (label-char × dfa-state) step, and
//     stored chunk blobs carry ~0.7 steps per serialized byte per DFA
//     state — with the short contains-DFAs of the workload, ~4.9 ns of
//     eval per blob byte. bench_table1_costmodel times that step with the
//     dense reference kernel, EvalSfaQuery, not the executor's
//     EvalSfaViewBounded, which visits only the DFA states holding mass:
//     e2ebench's traced inference.ns_per_dp_step reads 0.43–0.57 ns per
//     nominal step for it (scan_topk and lookup_sql, 4-vCPU VM).
//
// kEvalCostPerByte = 4.9 ns / 0.33 µs ≈ 1/67, rounded to 1/64. The
// pre-calibration guess of 1/256 undercharged Eval ~4× against the I/O
// terms and made the planner too scan-happy on large blobs. The constant
// still prices the reference kernel, about 10× the executor's step;
// re-deriving it from the benchmark's per-layer figures is open work,
// and until then every plan choice stays as it was.
// kStringMatchCostPerTuple stays 1/64: one DFA pass over a ~100-char
// stored transcription ≈ 0.3–0.5 µs ≈ one eval unit.

/// A B+-tree descent plus one heap point Get (random, not sequential).
/// A blob fetch miss is also charged one (see above).
constexpr double kPointReadCost = 2.0;
/// DFA×SFA dynamic-programming cost per serialized blob byte.
constexpr double kEvalCostPerByte = 1.0 / 64.0;
/// Projection evaluates only the region around each posting instead of
/// the whole transducer.
constexpr double kProjectionEvalDiscount = 0.1;
/// DFA match over one stored transcription string.
constexpr double kStringMatchCostPerTuple = 1.0 / 64.0;
/// Selectivity guess per equality predicate (no histograms; System R's
/// classic 1/10).
constexpr double kEqualityDefaultSelectivity = 0.1;
/// One blob fetch served from the shared buffer cache (shard hash probe
/// + pin; no pread). The estimated hit fraction of fetches is priced at
/// this instead of the per-byte read cost.
constexpr double kCacheHitCost = 0.25;

size_t EstimateSurvivors(size_t rows, double selectivity) {
  if (rows == 0) return 0;
  return static_cast<size_t>(
      std::max(1.0, std::ceil(static_cast<double>(rows) * selectivity)));
}

/// Prices the scan and index paths for one query from statistics alone.
/// `anchor` is the resolved dictionary anchor term ("" = none); the index
/// path is feasible only when the anchor resolves.
CostEstimate EstimateCost(const PlanContext& ctx, Approach approach,
                          bool use_projection, size_t num_equalities,
                          const std::string& anchor) {
  CostEstimate est;
  est.table_cardinality = ctx.num_sfas;
  est.equality_selectivity = std::pow(kEqualityDefaultSelectivity,
                                      static_cast<double>(num_equalities));
  // Warm-cache Fetch pricing: the blob store's lifetime cached-read
  // totals say what fraction of *blob* fetches have been skipping disk
  // (the shared cache's own stats mix in heap-page traffic, which says
  // nothing about blob warmth). A cold or absent cache estimates 0 and
  // the formulas below degrade to the pure disk model. The estimate is a
  // snapshot frozen into the plan — it does not chase the cache while the
  // plan executes.
  if (ctx.cache != nullptr) {
    const BlobIoStats io = ctx.base->blobs()->io_stats();
    if (io.cache_hits + io.cache_misses > 0) {
      est.cache_hit_rate = static_cast<double>(io.cache_hits) /
                           static_cast<double>(io.cache_hits + io.cache_misses);
    }
  }
  const double miss_rate = 1.0 - est.cache_hit_rate;
  // Filtering costs one MasterData filescan to build the bitmap.
  const double filter_io =
      num_equalities > 0 ? static_cast<double>(ctx.base->master()->NumPages())
                         : 0.0;

  // Average serialized-SFA size, from blob-store totals. The store holds
  // one full and one chunked transducer per document; the mixed average is
  // crude but cancels out of the scan-vs-index comparison, which fetches
  // the same representation either way.
  const size_t num_blobs = 2 * ctx.num_sfas;
  const double avg_blob_bytes =
      num_blobs == 0 ? 0.0
                     : static_cast<double>(ctx.base->blobs()->FileBytes()) /
                           static_cast<double>(num_blobs);

  // Full-scan path.
  est.scan.feasible = true;
  est.scan.candidates =
      EstimateSurvivors(ctx.num_sfas, est.equality_selectivity);
  if (approach == Approach::kMap || approach == Approach::kKMap) {
    // One pass over kMAPData; no blob fetches.
    est.scan.io_cost =
        filter_io + static_cast<double>(ctx.base->kmap()->NumPages());
    est.scan.eval_cost = static_cast<double>(ctx.base->kmap()->NumTuples()) *
                         kStringMatchCostPerTuple;
  } else {
    const double cand = static_cast<double>(est.scan.candidates);
    est.scan.fetch_bytes = cand * avg_blob_bytes;
    // A cache hit skips the pread a miss pays (priced, with the blob-id
    // lookup, as a point read), paying kCacheHitCost instead.
    est.scan.io_cost =
        filter_io +
        miss_rate * (cand * kPointReadCost +
                     est.scan.fetch_bytes / kPageSize) +
        cand * est.cache_hit_rate * kCacheHitCost;
    est.scan.eval_cost = cand * avg_blob_bytes * kEvalCostPerByte;
  }
  est.scan.total = est.scan.io_cost + est.scan.eval_cost;

  // Index-probe path: only the Staccato representation is indexed, and the
  // anchor must have resolved against the dictionary.
  if (approach == Approach::kStaccato && !anchor.empty() &&
      ctx.index != nullptr) {
    if (auto it = ctx.term_stats->find(anchor); it != ctx.term_stats->end()) {
      est.anchor_postings = it->second.postings;
      est.anchor_docs = it->second.docs;
    }
    est.index.feasible = true;
    est.index.candidates =
        EstimateSurvivors(est.anchor_docs, est.equality_selectivity);
    const double cand = static_cast<double>(est.index.candidates);
    est.index.fetch_bytes = cand * avg_blob_bytes;
    est.index.io_cost =
        filter_io +
        static_cast<double>(est.anchor_postings) * kPointReadCost +
        miss_rate * (cand * kPointReadCost +
                     est.index.fetch_bytes / kPageSize) +
        cand * est.cache_hit_rate * kCacheHitCost;
    est.index.eval_cost =
        cand * avg_blob_bytes * kEvalCostPerByte *
        (use_projection ? kProjectionEvalDiscount : 1.0);
    est.index.total = est.index.io_cost + est.index.eval_cost;
  }
  return est;
}

}  // namespace

std::string CostEstimate::ToString() const {
  const PathCost& c = chosen_cost();
  std::string out = StringPrintf("est-candidates=%zu sel=%.2f cost=%.1f",
                                 c.candidates, equality_selectivity, c.total);
  if (cache_hit_rate > 0.0) {
    out += StringPrintf(" warm-hit=%.2f", cache_hit_rate);
  }
  out += StringPrintf(" [scan=%.1f", scan.total);
  if (index.feasible) {
    out += StringPrintf(" index=%.1f (postings=%zu docs=%zu)", index.total,
                        anchor_postings, anchor_docs);
  } else {
    out += " index=n/a";
  }
  out += "]";
  return out;
}

const char* ApproachName(Approach a) {
  switch (a) {
    case Approach::kMap: return "MAP";
    case Approach::kKMap: return "k-MAP";
    case Approach::kFullSfa: return "FullSFA";
    case Approach::kStaccato: return "STACCATO";
  }
  return "?";
}

const char* IndexModeName(IndexMode m) {
  switch (m) {
    case IndexMode::kAuto: return "auto";
    case IndexMode::kNever: return "never";
    case IndexMode::kForce: return "force";
  }
  return "?";
}

const char* CandidateSourceName(CandidateSource s) {
  switch (s) {
    case CandidateSource::kFullScan: return "full-scan";
    case CandidateSource::kIndexProbe: return "index-probe";
  }
  return "?";
}

const char* FetchMethodName(FetchMethod f) {
  switch (f) {
    case FetchMethod::kNone: return "none";
    case FetchMethod::kFullBlob: return "blob";
    case FetchMethod::kProjection: return "projection";
  }
  return "?";
}

const char* EvalStrategyName(EvalStrategy e) {
  switch (e) {
    case EvalStrategy::kStrings: return "string-match";
    case EvalStrategy::kSfaDp: return "sfa-dp";
  }
  return "?";
}

Result<PlanSpec> BuildPlan(const PlanContext& ctx, Approach approach,
                           const QueryOptions& q, size_t default_threads) {
  PlanSpec plan;
  plan.approach = approach;
  plan.pattern = q.pattern;
  plan.num_ans = q.num_ans;
  plan.early_stop = q.early_stop;

  // The pattern must compile; Prepare reuses the DFA, the planner only
  // needs the parse for the anchor term.
  STACCATO_ASSIGN_OR_RETURN(Pattern pat, Pattern::Parse(q.pattern));

  // Bind equality predicates against the MasterData schema.
  const Schema& master = ctx.base->master()->schema();
  for (const EqualityPredicate& eq : q.equalities) {
    int idx = master.FindColumn(eq.column);
    if (idx < 0) {
      return Status::InvalidArgument("unknown MasterData column '" +
                                     eq.column + "' in equality predicate");
    }
    ValueType type = master.column(static_cast<size_t>(idx)).type;
    STACCATO_ASSIGN_OR_RETURN(Value bound, CoerceLiteral(eq, type));
    plan.equalities.push_back({eq.column, idx, std::move(bound)});
  }

  // Candidate generation. The inverted index serves the Staccato
  // representation only. Under kAuto the cost estimate decides; kForce
  // probes whenever it can (error without an index, silent full-scan when
  // the pattern has no dictionary anchor); kNever pins the scan.
  const IndexMode mode = q.index_mode;
  std::string anchor;
  if (approach == Approach::kStaccato && mode != IndexMode::kNever) {
    if (mode == IndexMode::kForce &&
        (ctx.index == nullptr || ctx.dict == nullptr)) {
      return Status::InvalidArgument("inverted index not built");
    }
    if (ctx.index != nullptr && ctx.dict != nullptr) {
      std::string candidate = pat.AnchorTerm();
      if (!candidate.empty() && ctx.dict->Find(candidate) != kInvalidTerm) {
        anchor = candidate;
      }
    }
  }
  plan.cost = EstimateCost(ctx, approach, q.use_projection,
                           plan.equalities.size(), anchor);
  if (!anchor.empty() &&
      (mode == IndexMode::kForce ||
       (mode == IndexMode::kAuto && plan.cost.index.feasible &&
        plan.cost.index.total < plan.cost.scan.total))) {
    plan.source = CandidateSource::kIndexProbe;
    plan.anchor = anchor;
  }
  plan.cost.chosen = plan.source;

  switch (approach) {
    case Approach::kMap:
      plan.map_only = true;
      [[fallthrough]];
    case Approach::kKMap:
      plan.fetch = FetchMethod::kNone;
      plan.eval = EvalStrategy::kStrings;
      plan.eval_threads = 1;  // one serial kMAPData scan
      break;
    case Approach::kFullSfa:
    case Approach::kStaccato:
      plan.fetch = plan.source == CandidateSource::kIndexProbe &&
                           q.use_projection
                       ? FetchMethod::kProjection
                       : FetchMethod::kFullBlob;
      plan.eval = EvalStrategy::kSfaDp;
      plan.eval_threads = ResolveThreads(q.eval_threads, default_threads);
      break;
  }
  return plan;
}

Result<CandidateSet> ProbeIndex(const PlanContext& ctx,
                                const std::string& anchor) {
  CandidateSet set;
  set.anchor = anchor;
  for (uint64_t packed : ctx.index->Lookup(anchor)) {
    STACCATO_ASSIGN_OR_RETURN(
        Tuple t, ctx.base->postings()->Get(UnpackRecordId(packed)));
    set.postings[static_cast<DocId>(t[1].AsInt())].push_back(
        static_cast<uint64_t>(t[2].AsInt()));
    ++set.total_postings;
  }
  // Delta documents keep their postings in memory (computed with the same
  // BuildPostings the index builder uses, already sorted per term), so a
  // probe sees appended documents exactly as it would after a checkpoint
  // folded them into the postings relation.
  for (size_t i = 0; i < ctx.delta.docs.size(); ++i) {
    const auto it = ctx.delta.docs[i]->postings.find(anchor);
    if (it == ctx.delta.docs[i]->postings.end()) continue;
    std::vector<uint64_t>& dst =
        set.postings[static_cast<DocId>(ctx.delta.base_docs + i)];
    dst.insert(dst.end(), it->second.begin(), it->second.end());
    set.total_postings += it->second.size();
  }
  return set;
}

namespace {

/// Closes one executor stage opened at `start_ns`: one clock read sets
/// both its StageTimings field and, when the query is traced and `span` is
/// non-null, its trace span — so the two can never disagree.
void EndStage(const PlanContext& ctx, const char* span, uint64_t start_ns,
              double* seconds) {
  const uint64_t end_ns = telemetry::MonotonicNanos();
  *seconds = static_cast<double>(end_ns - start_ns) / 1e9;
  if (span != nullptr && ctx.trace != nullptr) {
    ctx.trace->AddSpan(span, start_ns, end_ns, ctx.trace_parent);
  }
}

/// The Filter operator: docs whose MasterData row satisfies every bound
/// equality, as the entry's bitmap (left empty when the plan has no
/// predicates: all docs pass). A warm run (`fill` null) reads the pinned
/// entry's bitmap; a cold one builds it into `fill`, the entry this run
/// is filling.
Status EqualityBitmap(const PlanContext& ctx, const PlanSpec& plan,
                      QueryStats* stats, PlanCacheEntry* fill) {
  if (plan.equalities.empty()) return Status::OK();
  if (fill == nullptr) {
    stats->filter_from_cache = true;
    return Status::OK();
  }
  std::vector<char>& allowed = fill->bitmap;
  allowed.assign(ctx.num_sfas, 0);
  HeapTable* master = ctx.base->master();
  STACCATO_RETURN_NOT_OK(master->Scan([&](RecordId, const Tuple& t) {
    for (const BoundEquality& eq : plan.equalities) {
      if (t[static_cast<size_t>(eq.column_index)] != eq.value) return true;
    }
    size_t key = static_cast<size_t>(t[0].AsInt());
    if (key < allowed.size()) allowed[key] = 1;
    return true;
  }));
  stats->heap_pages_read += master->NumPages();  // one full pass
  // Delta documents have no MasterData row yet; evaluate the bound
  // equalities against the row a checkpoint will write, so filtering is
  // independent of where the document currently lives.
  for (size_t i = 0; i < ctx.delta.docs.size(); ++i) {
    const size_t key = ctx.delta.base_docs + i;
    if (key >= allowed.size()) continue;
    const Tuple row =
        MasterDataRow(static_cast<int64_t>(key), *ctx.delta.docs[i]);
    bool pass = true;
    for (const BoundEquality& eq : plan.equalities) {
      if (row[static_cast<size_t>(eq.column_index)] != eq.value) {
        pass = false;
        break;
      }
    }
    if (pass) allowed[key] = 1;
  }
  return Status::OK();
}

/// One kMAPData row applied to its doc's match mass: a row the filter
/// drops, a non-rank-0 row under MAP, or a non-matching string adds
/// nothing, and the first two never touch the string. The single scoring
/// rule shared by the kMAPData scan and the delta documents. The caller
/// guarantees `row.key` indexes `prob`.
void AccumulateKMapRow(const PlanSpec& plan, const Dfa& dfa,
                       const std::vector<char>& allowed, const KMapRow& row,
                       std::vector<double>* prob) {
  const size_t key = static_cast<size_t>(row.key);
  if (!plan.equalities.empty() &&
      (key >= allowed.size() || !allowed[key])) {
    return;
  }
  if (plan.map_only && row.rank != 0) return;
  if (!dfa.Matches(row.data)) return;
  (*prob)[key] += std::exp(row.log_prob);
}

/// Delta documents' k-map rows, applied after the kMAPData scan through
/// the same AccumulateKMapRow rule in the same rank-ascending order the
/// table stores — so the per-doc accumulation (and therefore the summed
/// probability, bit for bit) matches what a rebuilt database computes.
void AccumulateDeltaKMap(const PlanContext& ctx, const PlanSpec& plan,
                         const Dfa& dfa, const std::vector<char>& allowed,
                         std::vector<double>* prob) {
  for (size_t i = 0; i < ctx.delta.docs.size(); ++i) {
    const DeltaDoc& d = *ctx.delta.docs[i];
    const size_t key = ctx.delta.base_docs + i;
    if (key >= prob->size()) continue;
    for (size_t r = 0; r < d.kmap.size(); ++r) {
      AccumulateKMapRow(plan, dfa, allowed,
                        KMapRow{static_cast<int64_t>(key),
                                static_cast<int64_t>(r), d.kmap[r].str,
                                d.kmap[r].log_prob},
                        prob);
    }
  }
}

/// Candidates surviving the equality filter (all docs when unfiltered).
size_t CountStringCandidates(const PlanContext& ctx, const PlanSpec& plan,
                             const std::vector<char>& allowed) {
  if (plan.equalities.empty()) return ctx.num_sfas;
  return static_cast<size_t>(std::count(allowed.begin(), allowed.end(), 1));
}

/// ExecutePlan's prologue: starts `stats` over, so a reused stats object
/// never leaks (or accumulates) a previous run's values, and records the
/// plan's shape and estimate.
void InitQueryStats(QueryStats* stats, const PlanSpec& plan) {
  *stats = QueryStats{};
  stats->used_index = plan.source == CandidateSource::kIndexProbe;
  stats->plan_summary = PlanSummary(plan);
  stats->est_candidates = plan.cost.chosen_cost().candidates;
  stats->est_cost = plan.cost.chosen_cost().total;
}

/// Strings Eval: one serial pass over kMAPData's record bytes accumulating
/// per-doc match mass, then the delta documents; returns the unranked
/// answers. Every row's framing is checked (a corrupt row fails the query
/// even if the filter drops its document), but no row is copied: the DFA
/// runs over the string in the page. kMAPData stores keys in ascending
/// order, so a budget cut mid-scan degrades to a clean doc prefix.
Result<std::vector<Answer>> ExecuteStrings(const PlanContext& ctx,
                                           const PlanSpec& plan,
                                           const Dfa& dfa,
                                           const std::vector<char>& allowed,
                                           QueryStats* stats) {
  std::vector<double> prob(ctx.num_sfas, 0.0);
  // Strings eval has no separate Fetch: the kMAP scan reads and matches in
  // one pass, so the whole pass is the fetch+eval stage.
  const uint64_t scan_start_ns = telemetry::MonotonicNanos();
  // A full pass visits every page.
  uint64_t pages = ctx.base->kmap()->NumPages();
  size_t cut_key = SIZE_MAX;  // first doc key NOT fully folded before a cut
  // Why the scan stopped early: a corrupt row or a failed control poll.
  Status scan_status = Status::OK();
  size_t rows_seen = 0;
  STACCATO_RETURN_NOT_OK(
      ctx.base->kmap()->ScanRecords([&](RecordId rid, std::string_view rec) {
        Result<KMapRow> row = DecodeKMapRow(rec);
        if (!row.ok()) {
          scan_status = row.status();
          return false;
        }
        const size_t key = static_cast<size_t>(row->key);
        if ((rows_seen++ & 255) == 0) {
          bool cut_now = false;
          scan_status = PollControl(ctx.control, &cut_now);
          if (!scan_status.ok() || cut_now) {
            cut_key = key;
            pages = rid.page + 1;
            return false;  // stop the scan at this row
          }
        }
        if (key < prob.size()) {  // skip rows beyond the loaded cardinality
          AccumulateKMapRow(plan, dfa, allowed, *row, &prob);
        }
        return true;
      }));
  STACCATO_RETURN_NOT_OK(scan_status);
  if (cut_key != SIZE_MAX) {
    // Degraded: keep the fully folded doc prefix [0, cut_key). The doc the
    // cut interrupted has only a lower bound of its mass, so it leaves the
    // visited set; delta docs fold after the whole base scan, so none of
    // them was visited either.
    for (size_t k = cut_key; k < prob.size(); ++k) prob[k] = 0.0;
  } else {
    AccumulateDeltaKMap(ctx, plan, dfa, allowed, &prob);
  }
  EndStage(ctx, "Eval(kmap-scan)", scan_start_ns, &stats->stage.fetch_eval_s);
  stats->heap_pages_read += pages;
  stats->candidates = CountStringCandidates(ctx, plan, allowed);
  stats->visited_candidates = cut_key != SIZE_MAX
                                  ? std::min(cut_key, ctx.num_sfas)
                                  : stats->candidates;
  std::vector<Answer> answers;
  for (size_t i = 0; i < prob.size(); ++i) {
    if (prob[i] > 0.0) answers.push_back({i, std::min(prob[i], 1.0)});
  }
  return answers;
}

struct SfaCandidate {
  DocId doc = 0;
  /// This doc's packed anchor postings, read in place from the plan-cache
  /// entry's CandidateSet; null on the full-scan path. Their count is the
  /// cheap relevance estimate that orders the Eval visit so the top-k
  /// threshold tightens early.
  const std::vector<uint64_t>* postings = nullptr;
};

/// Projection Eval for one fetched candidate blob: score the region
/// around each posting start; the best region bounds the match
/// probability.
Result<double> EvalProjectedBlob(const std::string& blob,
                                 const std::vector<uint64_t>& postings,
                                 const Dfa& dfa, size_t horizon) {
  STACCATO_ASSIGN_OR_RETURN(Sfa sfa, Sfa::Deserialize(blob));
  double best = 0.0;
  for (uint64_t packed : postings) {
    Posting post = UnpackPosting(packed);
    if (post.edge >= sfa.NumEdges()) continue;
    NodeId from = sfa.edge(post.edge).from;
    best = std::max(best, EvalProjected(sfa, dfa, from, horizon));
  }
  return best;
}

/// The CandidateGen operator for the SFA approaches: the plan's candidate
/// documents in ascending-doc order, filtered by the entry's equality
/// bitmap. A warm run (`fill` null) serves the pinned entry's CandidateSet
/// without touching the B+-tree or the postings relation; a cold one
/// probes into `fill`, the entry this run is filling. `total_postings`
/// reports the probe size.
Result<std::vector<SfaCandidate>> BuildSfaCandidates(
    const PlanContext& ctx, const PlanSpec& plan, const PlanCacheEntry& entry,
    PlanCacheEntry* fill, QueryStats* stats, size_t* total_postings) {
  const bool filtered = !plan.equalities.empty();
  const std::vector<char>& allowed = entry.bitmap;
  std::vector<SfaCandidate> cands;
  *total_postings = 0;
  if (plan.source == CandidateSource::kIndexProbe) {
    if (ctx.index == nullptr || ctx.dict == nullptr ||
        ctx.dict->Find(plan.anchor) == kInvalidTerm) {
      // The plan was frozen against an index the database has since
      // dropped (data reloaded) or rebuilt with a dictionary that no
      // longer contains the anchor; probing would silently miss answers.
      return Status::InvalidArgument(
          "plan probes an inverted index that no longer serves anchor '" +
          plan.anchor + "'; re-prepare after BuildInvertedIndex");
    }
    if (fill == nullptr) {
      stats->candidates_from_cache = true;
    } else {
      STACCATO_ASSIGN_OR_RETURN(fill->candidates,
                                ProbeIndex(ctx, plan.anchor));
    }
    const CandidateSet& set = entry.candidates;
    *total_postings = set.total_postings;
    cands.reserve(set.NumDocs());
    for (const auto& [doc, posts] : set.postings) {
      if (filtered && (doc >= allowed.size() || !allowed[doc])) continue;
      cands.push_back({doc, &posts});
    }
  } else {
    cands.reserve(ctx.num_sfas);
    for (DocId doc = 0; doc < ctx.num_sfas; ++doc) {
      if (filtered && (doc >= allowed.size() || !allowed[doc])) continue;
      cands.push_back({doc, nullptr});
    }
  }
  return cands;
}

/// SFA Eval, streaming and threshold-pruned: every worker fetches one
/// candidate's blob through the blob store's cache-aware read (the storage
/// read paths are concurrent-safe), decodes it through the flat SfaView
/// into its own EvalScratch arena, and runs the bounded DP against the
/// running top-k threshold — aborting candidates whose exact probability
/// upper bound can no longer reach the k-th best answer. Candidates are
/// visited in descending posting-count order so the threshold tightens
/// early; results are gathered positionally, and a pruned candidate
/// provably cannot enter the top-k, so the answers are bit-identical for
/// any thread count, visit order, or early-stop setting. Returns the
/// unranked answers. Peak memory is one blob + one DP arena per worker.
Result<std::vector<Answer>> ExecuteSfas(const PlanContext& ctx,
                                        const PlanSpec& plan, const Dfa& dfa,
                                        const PlanCacheEntry& entry,
                                        PlanCacheEntry* fill,
                                        QueryStats* stats,
                                        TopKThreshold& topk) {
  const bool full = plan.approach == Approach::kFullSfa;

  size_t total_postings = 0;
  const uint64_t cand_start_ns = telemetry::MonotonicNanos();
  STACCATO_ASSIGN_OR_RETURN(
      std::vector<SfaCandidate> cands,
      BuildSfaCandidates(ctx, plan, entry, fill, stats, &total_postings));
  EndStage(ctx, "CandidateGen", cand_start_ns, &stats->stage.candidate_gen_s);

  size_t threads = std::max<size_t>(1, plan.eval_threads);
  threads = std::min(threads, cands.empty() ? size_t{1} : cands.size());

  // Projection already evaluates a bounded region; threshold pruning
  // applies to the full-blob DP.
  const bool prune = plan.early_stop && plan.fetch == FetchMethod::kFullBlob;

  // Eval visit order: descending anchor-posting count (stable, so ties
  // keep doc order). Docs with many anchor occurrences tend to score
  // high, so scoring them first raises the pruning threshold early;
  // without pruning the reorder could not help, so doc order stands.
  std::vector<size_t> order(cands.size());
  std::iota(order.begin(), order.end(), size_t{0});
  if (prune && plan.source == CandidateSource::kIndexProbe) {
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return cands[a].postings->size() > cands[b].postings->size();
    });
  }
  // `topk` is the scatter's shared threshold: it forwards the *global*
  // k-th best into this shard's Eval. The global bound is always >= any
  // shard-local bound and the kernel prunes strictly below it, so
  // forwarding is answer-neutral.
  const size_t horizon = plan.pattern.size() + 8;
  struct WorkerState {
    EvalScratch scratch;
    /// Pin on the candidate currently being evaluated. Exactly one per
    /// worker: fetching the next candidate releases it.
    cache::BufferCache::Handle pin;
    BlobIoStats io;  ///< this worker's blob reads, summed after the fan-out
  };
  std::vector<WorkerState> workers(threads);
  std::vector<double> prob(cands.size(), 0.0);
  std::vector<char> was_pruned(cands.size(), 0);
  std::vector<uint64_t> steps_saved(cands.size(), 0);
  std::vector<char> visited(cands.size(), 0);
  auto eval_one = [&](size_t worker, size_t v) -> Status {
    // Cancellation point: candidate visit. A worker that sees the cut (or
    // trips the budget under allow_partial) stops visiting new candidates;
    // unvisited candidates keep prob 0 and stay out of the visited set, so
    // the ranked result is the exact top-k of what WAS visited.
    bool cut_now = false;
    STACCATO_RETURN_NOT_OK(PollControl(ctx.control, &cut_now));
    if (cut_now) return Status::OK();
    const size_t i = order[v];
    const SfaCandidate& cand = cands[i];
    WorkerState& ws = workers[worker];
    // Fetch: the worker pins the blob's bytes for the duration of its DP.
    // The blob id comes from memory. With the shared buffer cache, a hit
    // skips the pread entirely; without one, GetCached is a plain disk
    // read.
    const std::string* blob = nullptr;
    auto fetch_once = [&]() -> Status {
      if (ctx.delta.Contains(cand.doc)) {
        // Appended documents serve their serialized SFA straight from the
        // delta (no pread, no cache entry) — the bytes are identical to
        // what a checkpoint or rebuild would store.
        const DeltaDoc& d = ctx.delta.Doc(cand.doc);
        blob = full ? &d.full_blob : &d.graph_blob;
        return Status::OK();
      }
      STACCATO_ASSIGN_OR_RETURN(BlobId id, ctx.base->BlobIdOf(cand.doc, full));
      STACCATO_ASSIGN_OR_RETURN(
          ws.pin, ctx.base->blobs()->GetCached(
                      BlobCacheKey(full, cand.doc, ctx.blob_generation), id,
                      &ws.io));
      blob = &ws.pin.value();
      return Status::OK();
    };
    // Transient blob/heap read failures retry with exponential backoff,
    // bounded by the control's per-query budget; exhaustion (or a
    // non-I/O failure) surfaces the underlying Status unchanged.
    Status fetched = fetch_once();
    while (!fetched.ok() && fetched.IsIOError() &&
           ctx.control->AllowRetry()) {
      fetched = fetch_once();
    }
    STACCATO_RETURN_NOT_OK(fetched);
    ctx.control->AddFetchedBytes(blob->size());
    // Cancellation point: between this candidate's Fetch and its Eval — a
    // deadline or byte budget blown by the fetch stops before the DP.
    STACCATO_RETURN_NOT_OK(PollControl(ctx.control, &cut_now));
    if (cut_now) return Status::OK();
    if (plan.fetch == FetchMethod::kProjection) {
      STACCATO_ASSIGN_OR_RETURN(
          prob[i], EvalProjectedBlob(*blob, *cand.postings, dfa, horizon));
      visited[i] = 1;
      return Status::OK();
    }
    EvalBound bound;
    const double threshold = prune ? topk.Get() : 0.0;
    STACCATO_ASSIGN_OR_RETURN(
        prob[i], EvalSerializedSfaBounded(*blob, dfa, threshold,
                                          &ws.scratch, &bound));
    ctx.control->AddDpSteps(bound.steps);
    if (bound.pruned) {
      prob[i] = 0.0;
      was_pruned[i] = 1;
      steps_saved[i] = bound.steps_total - bound.steps;
    } else if (prune) {  // nobody reads the threshold otherwise
      topk.Offer(prob[i]);
    }
    visited[i] = 1;
    return Status::OK();
  };
  // Fetch and Eval stream per candidate inside eval_one, so they are one
  // timed stage (StageTimings::fetch_eval_s) — timing them separately
  // would mean per-candidate clock reads. One worker runs inline, in
  // visit order.
  const uint64_t eval_start_ns = telemetry::MonotonicNanos();
  STACCATO_RETURN_NOT_OK(ParallelForWorker(
      cands.size(), /*grain=*/1, eval_one, ParallelOptions{threads}));
  EndStage(ctx, "Fetch+Eval", eval_start_ns, &stats->stage.fetch_eval_s);

  for (const WorkerState& ws : workers) {
    stats->blob_bytes_read += ws.io.bytes_read;
    stats->cache_hits += ws.io.cache_hits;
    stats->cache_misses += ws.io.cache_misses;
  }
  if (ctx.cache != nullptr) stats->cache_bytes = ctx.cache->bytes_in_use();
  stats->candidates = cands.size();
  stats->index_postings = total_postings;
  stats->threads_used = threads;
  stats->visited_candidates =
      static_cast<size_t>(std::count(visited.begin(), visited.end(), 1));
  std::vector<Answer> answers;
  for (size_t i = 0; i < cands.size(); ++i) {
    if (was_pruned[i]) {
      ++stats->eval_pruned;
      stats->eval_steps_saved += steps_saved[i];
    }
    if (prob[i] > 0.0) answers.push_back({cands[i].doc, prob[i]});
  }
  return answers;
}

}  // namespace

Result<std::vector<Answer>> ExecutePlan(
    const PlanContext& ctx, const PlanSpec& plan, const Dfa& dfa,
    QueryStats* stats, std::shared_ptr<const PlanCacheEntry>* entry,
    TopKThreshold& topk) {
  InitQueryStats(stats, plan);
  const uint64_t plan_start_ns = telemetry::MonotonicNanos();
  // Cancellation point: query entry. An already-expired deadline fails (or
  // degrades to an empty answer set) here — before the filter bitmap is
  // built, before a single candidate is evaluated, before a single blob
  // byte is fetched.
  {
    bool cut_now = false;
    STACCATO_RETURN_NOT_OK(PollControl(ctx.control, &cut_now));
    if (cut_now) {
      stats->degraded = true;
      return std::vector<Answer>{};
    }
  }
  // Without a pinned entry, Filter and CandidateGen fill a fresh one,
  // handed to the caller only if the run succeeds.
  std::shared_ptr<PlanCacheEntry> fill;
  if (*entry == nullptr) {
    fill = std::make_shared<PlanCacheEntry>();
    fill->generation = ctx.load_generation;
  }
  const PlanCacheEntry& memo = fill != nullptr ? *fill : **entry;
  const uint64_t filter_start_ns = telemetry::MonotonicNanos();
  STACCATO_RETURN_NOT_OK(EqualityBitmap(ctx, plan, stats, fill.get()));
  EndStage(ctx, plan.equalities.empty() ? nullptr : "Filter", filter_start_ns,
           &stats->stage.filter_s);
  STACCATO_ASSIGN_OR_RETURN(
      std::vector<Answer> answers,
      plan.eval == EvalStrategy::kStrings
          ? ExecuteStrings(ctx, plan, dfa, memo.bitmap, stats)
          : ExecuteSfas(ctx, plan, dfa, memo, fill.get(), stats, topk));
  stats->selectivity = ctx.num_sfas == 0
                           ? 0.0
                           : static_cast<double>(stats->candidates) /
                                 static_cast<double>(ctx.num_sfas);
  stats->degraded = ctx.control->cut();
  const uint64_t topk_start_ns = telemetry::MonotonicNanos();
  std::vector<Answer> ranked = RankAnswers(std::move(answers), plan.num_ans);
  EndStage(ctx, "TopK", topk_start_ns, &stats->stage.topk_s);
  EndStage(ctx, nullptr, plan_start_ns, &stats->stage.total_s);
  if (fill != nullptr) *entry = std::move(fill);
  return ranked;
}

std::string ExplainPlan(const PlanSpec& plan) {
  std::string out = StringPrintf("QueryPlan approach=%s pattern='%s'\n",
                                 ApproachName(plan.approach),
                                 plan.pattern.c_str());
  out += StringPrintf("  -> CandidateGen source=%s",
                      CandidateSourceName(plan.source));
  if (plan.source == CandidateSource::kIndexProbe) {
    out += StringPrintf(" anchor='%s'", plan.anchor.c_str());
  }
  out += "\n";
  for (const BoundEquality& eq : plan.equalities) {
    out += StringPrintf("  -> Filter %s = %s\n", eq.column.c_str(),
                        eq.value.ToString().c_str());
  }
  if (plan.fetch != FetchMethod::kNone) {
    out += StringPrintf("  -> Fetch method=%s\n", FetchMethodName(plan.fetch));
  }
  out += StringPrintf("  -> Eval strategy=%s threads=%zu\n",
                      EvalStrategyName(plan.eval), plan.eval_threads);
  out += StringPrintf("  -> TopK num_ans=%zu early-stop=%s\n", plan.num_ans,
                      plan.early_stop ? "on" : "off");
  out += StringPrintf("  Cost: %s\n", plan.cost.ToString().c_str());
  return out;
}

std::string ExplainPlan(const PlanSpec& plan, const QueryStats& stats) {
  std::string out = ExplainPlan(plan);
  out += StringPrintf(
      "  Actual: candidates=%zu (est %zu), threads=%zu, "
      "cache: filter=%s candidates=%s\n",
      stats.candidates, stats.est_candidates, stats.threads_used,
      stats.filter_from_cache ? "hit" : "miss",
      stats.candidates_from_cache ? "hit" : "miss");
  // Per-stage est-vs-actual: measured wall time per physical stage (the
  // executor's own clock, StageTimings) next to the planner's per-stage
  // cost estimate (cost units, where ~1.0 = one sequential page read).
  {
    const StageTimings& st = stats.stage;
    const PathCost& est = plan.cost.chosen_cost();
    out += StringPrintf(
        "  Stages: candidate-gen=%.3f ms, filter=%.3f ms, "
        "fetch+eval=%.3f ms (est io=%.1f eval=%.1f units), "
        "topk=%.3f ms, total=%.3f ms\n",
        st.candidate_gen_s * 1e3, st.filter_s * 1e3, st.fetch_eval_s * 1e3,
        est.io_cost, est.eval_cost, st.topk_s * 1e3, st.total_s * 1e3);
  }
  if (plan.eval == EvalStrategy::kSfaDp) {
    // Early termination only exists for the DFA×SFA DP; a string scan
    // has no bounded kernel, so the line would only mislead there.
    out += StringPrintf(
        "  Pruned: %zu/%zu candidates, steps-saved=%llu (early-stop=%s)\n",
        stats.eval_pruned, stats.candidates,
        static_cast<unsigned long long>(stats.eval_steps_saved),
        plan.early_stop ? "on" : "off");
    // The Fetch stage's buffer-cache outcome (blob reads served warm vs
    // from disk; zeros when the database runs cache-disabled).
    out += StringPrintf(
        "  Cache: hits=%llu misses=%llu resident=%llu B shared-plan=%s\n",
        static_cast<unsigned long long>(stats.cache_hits),
        static_cast<unsigned long long>(stats.cache_misses),
        static_cast<unsigned long long>(stats.cache_bytes),
        stats.shared_plan_hit ? "hit" : "miss");
  }
  // Scatter-gather breakdown: one line per shard so skew (candidate
  // imbalance, cold shards, pruning asymmetry) is visible at a glance.
  if (!stats.shards.empty()) {
    out += StringPrintf("  Shards: %zu\n", stats.shards.size());
    for (const ShardStats& s : stats.shards) {
      out += StringPrintf(
          "    shard %zu: candidates=%zu pruned=%zu steps-saved=%llu "
          "plan-cache: filter=%s candidates=%s "
          "cache=%llu/%llu pages=%llu blob=%llu B est-cost=%.1f (%.1f ms)\n",
          s.shard, s.candidates, s.eval_pruned,
          static_cast<unsigned long long>(s.eval_steps_saved),
          s.filter_from_cache ? "hit" : "miss",
          s.candidates_from_cache ? "hit" : "miss",
          static_cast<unsigned long long>(s.cache_hits),
          static_cast<unsigned long long>(s.cache_misses),
          static_cast<unsigned long long>(s.heap_pages_read),
          static_cast<unsigned long long>(s.blob_bytes_read), s.est_cost,
          s.stage.total_s * 1e3);
    }
  }
  return out;
}

std::string PlanSummary(const PlanSpec& plan) {
  std::string out = CandidateSourceName(plan.source);
  if (!plan.equalities.empty()) {
    out += StringPrintf(">filter(%zu)", plan.equalities.size());
  }
  if (plan.fetch != FetchMethod::kNone) {
    out += ">";
    out += FetchMethodName(plan.fetch);
  }
  out += ">";
  out += EvalStrategyName(plan.eval);
  if (plan.eval == EvalStrategy::kSfaDp) {
    out += StringPrintf("[t=%zu]", plan.eval_threads);
  }
  out += StringPrintf(">top-%zu", plan.num_ans);
  return out;
}

void FoldShardStats(const std::vector<QueryStats>& per_shard,
                    size_t total_docs, QueryStats* out) {
  *out = QueryStats{};
  out->shards.reserve(per_shard.size());
  // A stage counts as served from cache only when every shard that ran it
  // served it: one shard re-scanning MasterData makes the Filter a miss.
  // Every shard runs the same Filter; CandidateGen is an index probe only
  // on the shards that chose one.
  bool all_filters_cached = !per_shard.empty();
  size_t probes = 0;
  size_t cached_probes = 0;
  for (size_t s = 0; s < per_shard.size(); ++s) {
    const QueryStats& ps = per_shard[s];
    out->heap_pages_read += ps.heap_pages_read;
    out->blob_bytes_read += ps.blob_bytes_read;
    out->candidates += ps.candidates;
    out->index_postings += ps.index_postings;
    out->used_index |= ps.used_index;
    out->threads_used = std::max(out->threads_used, ps.threads_used);
    out->est_candidates += ps.est_candidates;
    out->est_cost += ps.est_cost;
    all_filters_cached &= ps.filter_from_cache;
    probes += ps.used_index;
    cached_probes += ps.candidates_from_cache;  // set only on a probe
    out->cache_hits += ps.cache_hits;
    out->cache_misses += ps.cache_misses;
    out->cache_bytes += ps.cache_bytes;
    out->eval_pruned += ps.eval_pruned;
    out->eval_steps_saved += ps.eval_steps_saved;
    // Budget observability: any degraded shard degrades the whole query;
    // visited counts sum. io_retries is NOT folded — per-shard stats all
    // read the one shared QueryControl counter, so summing would multiply
    // it by the shard count; Execute sets the top-level figure once.
    out->degraded |= ps.degraded;
    out->visited_candidates += ps.visited_candidates;
    // Shards run in parallel, so the query-level stage times are the
    // slowest shard's (max, not sum — a sum would exceed wall clock).
    out->stage.candidate_gen_s =
        std::max(out->stage.candidate_gen_s, ps.stage.candidate_gen_s);
    out->stage.filter_s = std::max(out->stage.filter_s, ps.stage.filter_s);
    out->stage.fetch_eval_s =
        std::max(out->stage.fetch_eval_s, ps.stage.fetch_eval_s);
    out->stage.topk_s = std::max(out->stage.topk_s, ps.stage.topk_s);
    out->stage.total_s = std::max(out->stage.total_s, ps.stage.total_s);
    ShardStats row;
    row.shard = s;
    row.candidates = ps.candidates;
    row.filter_from_cache = ps.filter_from_cache;
    row.candidates_from_cache = ps.candidates_from_cache;
    row.eval_pruned = ps.eval_pruned;
    row.eval_steps_saved = ps.eval_steps_saved;
    row.cache_hits = ps.cache_hits;
    row.cache_misses = ps.cache_misses;
    row.heap_pages_read = ps.heap_pages_read;
    row.blob_bytes_read = ps.blob_bytes_read;
    row.est_cost = ps.est_cost;
    row.stage = ps.stage;
    out->shards.push_back(std::move(row));
  }
  out->filter_from_cache = all_filters_cached;
  out->candidates_from_cache = probes > 0 && cached_probes == probes;
  out->selectivity = total_docs == 0
                         ? 0.0
                         : static_cast<double>(out->candidates) /
                               static_cast<double>(total_docs);
  if (!per_shard.empty()) out->plan_summary = per_shard[0].plan_summary;
}

}  // namespace staccato::rdbms
