#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "util/random.h"
#include "util/strings.h"

namespace e2ebench {

using staccato::CorpusSpec;
using staccato::DatasetKind;
using staccato::OcrNoiseModel;
using staccato::Rng;
using staccato::StringPrintf;
using staccato::rdbms::Approach;

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kScanTopk:
      return "scan_topk";
    case Workload::kLookupSql:
      return "lookup_sql";
  }
  return "?";
}

Result<Workload> ParseWorkload(const std::string& name) {
  for (Workload w : {Workload::kScanTopk, Workload::kLookupSql}) {
    if (name == WorkloadName(w)) return w;
  }
  return Status::InvalidArgument("unknown workload '" + name + "'");
}

namespace {

/// CA for the Eval-bound scan, LT for the SQL lookups: each workload also
/// covers one of the paper's datasets.
DatasetKind KindFor(Workload w) {
  return w == Workload::kLookupSql ? DatasetKind::kLiterature
                                   : DatasetKind::kCongressActs;
}

/// Every request shape of lookup_sql: each Table 6 pattern under each
/// approach, once per page year and once with LIMIT 10. The cycle repeats
/// each LIMIT request `pages / 2` times so 2/3 of requests filter on Year.
void MakeSqlRequests(const std::vector<std::string>& patterns,
                     size_t num_pages, uint64_t seed, Inputs* in) {
  const Approach approaches[] = {Approach::kMap, Approach::kKMap,
                                 Approach::kFullSfa, Approach::kStaccato};
  const size_t limit_repeats = std::max<size_t>(1, num_pages / 2);
  for (const std::string& p : patterns) {
    for (Approach a : approaches) {
      for (int64_t page = -1; page < static_cast<int64_t>(num_pages); ++page) {
        SqlRequest r;
        r.approach = a;
        r.pattern = p;
        if (page < 0) {
          r.sql = "SELECT DocID FROM Docs WHERE DocData LIKE '%" + p +
                  "%' LIMIT 10";
        } else {
          r.year = 2010 + page;  // MasterData.Year of page `page`
          r.sql = StringPrintf(
              "SELECT DocID FROM Docs WHERE Year = %lld AND DocData LIKE "
              "'%%%s%%'",
              static_cast<long long>(r.year), p.c_str());
        }
        r.distinct = in->distinct.size();
        in->distinct.push_back(r);
        const size_t copies = page < 0 ? limit_repeats : 1;
        for (size_t c = 0; c < copies; ++c) in->requests.push_back(r);
      }
    }
  }
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 7);
  std::shuffle(in->requests.begin(), in->requests.end(), rng.engine());
}

}  // namespace

Result<Inputs> MakeInputs(Workload w, uint64_t seed, size_t num_pages) {
  Inputs in;
  in.workload = w;
  CorpusSpec spec;
  spec.kind = KindFor(w);
  spec.num_pages = num_pages;
  spec.lines_per_page = 42;
  spec.seed = seed;
  STACCATO_ASSIGN_OR_RETURN(in.data,
                            staccato::GenerateOcrDataset(spec, OcrNoiseModel()));
  in.patterns = staccato::DatasetQueries(spec.kind);
  if (w == Workload::kLookupSql) {
    MakeSqlRequests(in.patterns, num_pages, seed, &in);
  }
  return in;
}

std::string SerializeInputs(const Inputs& in) {
  std::string out = WorkloadName(in.workload);
  out += '\n';
  for (size_t i = 0; i < in.data.corpus.lines.size(); ++i) {
    out += StringPrintf("%u|", in.data.corpus.page_of_line[i]);
    out += in.data.corpus.lines[i];
    out += '\n';
  }
  for (const staccato::Sfa& sfa : in.data.sfas) {
    out += sfa.Serialize();
    out += '\n';
  }
  for (const std::string& p : in.patterns) out += p + '\n';
  for (const SqlRequest& r : in.requests) {
    out += StringPrintf("%d|%zu|", static_cast<int>(r.approach), r.distinct);
    out += r.sql + '\n';
  }
  return out;
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

LatencySummary Summarize(std::vector<double> samples) {
  LatencySummary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  s.p50 = Percentile(samples, 0.50);
  s.p99 = Percentile(samples, 0.99);
  s.beyond_p99 = static_cast<size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [&](double v) { return v > s.p99; }));
  return s;
}

WindowedSummary SummarizeWindows(const std::vector<TimedSample>& samples,
                                 uint64_t run_ns, size_t windows) {
  WindowedSummary out;
  if (windows == 0 || run_ns == 0) return out;
  std::vector<std::vector<double>> slices(windows);
  for (const TimedSample& s : samples) {
    const size_t w = static_cast<size_t>(
        static_cast<double>(s.offset_ns) / static_cast<double>(run_ns) *
        static_cast<double>(windows));
    slices[std::min(w, windows - 1)].push_back(s.ms);
  }
  const double window_s = static_cast<double>(run_ns) / 1e9 /
                          static_cast<double>(windows);
  std::vector<double> p50, p99, qps;
  for (const std::vector<double>& slice : slices) {
    qps.push_back(static_cast<double>(slice.size()) / window_s);
    if (slice.empty()) continue;
    p50.push_back(Percentile(slice, 0.50));
    p99.push_back(Percentile(slice, 0.99));
  }
  out.windows = p50.size();
  out.p50 = Percentile(p50, 0.50);
  out.p99 = Percentile(p99, 0.50);
  out.qps = Percentile(qps, 0.50);
  return out;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t SpanLog::Add(const char* name, uint64_t request, uint64_t parent,
                      uint64_t start_ns, uint64_t end_ns) {
  Span s;
  s.name = name;
  s.id = (static_cast<uint64_t>(thread_) << 32) | (spans_.size() + 1);
  s.parent = parent;
  s.request = request;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanLog::Attr(uint64_t id, std::string key, double value) {
  const size_t index = static_cast<size_t>(id & 0xffffffffULL) - 1;
  spans_.at(index).attrs.emplace_back(std::move(key), value);
}

namespace {

/// JSON number with every significant digit; non-finite values (a
/// division by an empty count) print as 0 so the line stays valid JSON.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  return StringPrintf("%.17g", v);
}

}  // namespace

Status WriteSpans(const std::string& path, const std::vector<SpanLog>& logs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  for (const SpanLog& log : logs) {
    for (const Span& s : log.spans()) {
      std::string line = StringPrintf(
          "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
          "\"start_ns\":%llu,\"end_ns\":%llu,\"attrs\":{",
          s.name, static_cast<unsigned long long>(s.id),
          static_cast<unsigned long long>(s.parent),
          static_cast<unsigned long long>(s.request),
          static_cast<unsigned long long>(s.start_ns),
          static_cast<unsigned long long>(s.end_ns));
      for (size_t i = 0; i < s.attrs.size(); ++i) {
        if (i > 0) line += ',';
        line += "\"" + s.attrs[i].first + "\":" + JsonNumber(s.attrs[i].second);
      }
      line += "}}\n";
      std::fputs(line.c_str(), f);
    }
  }
  if (std::fclose(f) != 0) return Status::IOError("cannot close " + path);
  return Status::OK();
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = StringPrintf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace e2ebench
