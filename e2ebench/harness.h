// Shared pieces of the end-to-end benchmark: seeded workload inputs,
// latency summaries, benchmark-side spans, and the one-line JSON result.
//
// Everything here is deterministic given its arguments, so the unit tests
// in harness_test.cc can pin it down without running a workload.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ocr/corpus.h"
#include "rdbms/plan.h"
#include "util/result.h"

namespace e2ebench {

using staccato::OcrDataset;
using staccato::Result;
using staccato::Status;

// ---- Workloads and their seeded inputs --------------------------------------

enum class Workload { kScanTopk, kLookupSql };

const char* WorkloadName(Workload w);
Result<Workload> ParseWorkload(const std::string& name);

/// Pages per generated corpus (42 lines each): 672 documents, the size at
/// which a full-scan query costs milliseconds rather than microseconds.
inline constexpr size_t kCorpusPages = 16;

/// \brief One ad-hoc SQL request of the lookup_sql workload.
struct SqlRequest {
  staccato::rdbms::Approach approach = staccato::rdbms::Approach::kMap;
  std::string pattern;  ///< the LIKE body (a Table 6 query)
  int64_t year = -1;    ///< `Year = year` filter; -1 = none (LIMIT form)
  std::string sql;
  size_t distinct = 0;  ///< index into Inputs::distinct (reference answers)
};

/// \brief Everything a workload run consumes, generated from the seed alone.
struct Inputs {
  Workload workload = Workload::kScanTopk;
  OcrDataset data;                    ///< corpus pushed through the OCR channel
  std::vector<std::string> patterns;  ///< the dataset's Table 6 queries
  /// lookup_sql: the request cycle clients walk through (2/3 carry a Year
  /// filter, 1/3 a LIMIT), and its distinct requests.
  std::vector<SqlRequest> requests;
  std::vector<SqlRequest> distinct;
};

/// Generates a workload's inputs. `num_pages` scales the corpus (tests use a
/// small one); the same (workload, seed, num_pages) always yields the same
/// bytes.
Result<Inputs> MakeInputs(Workload w, uint64_t seed,
                          size_t num_pages = kCorpusPages);

/// Byte serialization of every generated input (corpus lines, pages,
/// serialized SFAs, patterns, requests), for determinism checks.
std::string SerializeInputs(const Inputs& in);

// ---- Latency summaries -------------------------------------------------------

/// Nearest-rank percentile: the smallest sample such that at least a
/// fraction `q` of the samples are <= it. 0 for an empty input.
double Percentile(std::vector<double> samples, double q);

/// \brief Median and p99 of one set of timings, with the sample count and
/// how many samples lie beyond p99 (a p99 resting on fewer than ten is
/// noise, and the run should be longer).
struct LatencySummary {
  size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  size_t beyond_p99 = 0;
};

LatencySummary Summarize(std::vector<double> samples);

/// \brief One completed request: when it started, in nanoseconds after the
/// run began, and how long it took.
struct TimedSample {
  uint64_t offset_ns = 0;
  double ms = 0.0;
};

/// \brief A run's latency and throughput as medians over equal time
/// windows: the run is cut into `windows` slices by request start time,
/// each slice's p50, p99 and requests per second are taken, and each
/// figure reported is the median over the slices. Other processes on a
/// shared machine slow a few slices at a time; the median passes over
/// them, where a whole-run p99 would take its value from the slowest burst.
/// Slices without samples count as 0 requests per second and are skipped
/// for the percentiles.
struct WindowedSummary {
  size_t windows = 0;  ///< slices that held at least one sample
  double p50 = 0.0;
  double p99 = 0.0;
  double qps = 0.0;
};

WindowedSummary SummarizeWindows(const std::vector<TimedSample>& samples,
                                 uint64_t run_ns, size_t windows);

double Mean(const std::vector<double>& v);

// ---- Benchmark-side spans ----------------------------------------------------

/// Monotonic nanoseconds (steady clock).
uint64_t NowNs();

/// \brief One timed call into a layer, recorded by the benchmark around the
/// public API: name, interval, the span that caused it, and the request it
/// belongs to. `attrs` carry counters the call returned (QueryStats stage
/// times, shard seconds, candidates) so ratios sit on the span they
/// describe.
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t request = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  std::vector<std::pair<std::string, double>> attrs;
};

/// \brief One thread's span buffer. Spans stay in memory until the run
/// ends; each thread owns its log, so recording takes no lock.
class SpanLog {
 public:
  explicit SpanLog(uint32_t thread) : thread_(thread) {}

  /// Records a finished span and returns its id (never 0).
  uint64_t Add(const char* name, uint64_t request, uint64_t parent,
               uint64_t start_ns, uint64_t end_ns);
  /// Attaches a counter to span `id`, which this log recorded.
  void Attr(uint64_t id, std::string key, double value);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t thread_;
  std::vector<Span> spans_;
};

/// Writes every span as one JSON object per line.
Status WriteSpans(const std::string& path, const std::vector<SpanLog>& logs);

// ---- Result line -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's last stdout line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}. Values print with full
/// precision.
std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace e2ebench
