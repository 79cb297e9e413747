// Unit tests of the benchmark harness: seeded inputs are reproducible, the
// percentile helper agrees with a sorted oracle, and the result line has
// the shape the benchmark contract asks for.
#include "harness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/random.h"

namespace e2ebench {
namespace {

constexpr size_t kTestPages = 2;  // small corpora keep the test fast

TEST(InputsTest, SameSeedGivesIdenticalBytes) {
  for (Workload w : {Workload::kScanTopk, Workload::kLookupSql}) {
    Result<Inputs> a = MakeInputs(w, 7, kTestPages);
    Result<Inputs> b = MakeInputs(w, 7, kTestPages);
    ASSERT_TRUE(a.ok() && b.ok()) << WorkloadName(w);
    EXPECT_EQ(SerializeInputs(*a), SerializeInputs(*b)) << WorkloadName(w);
  }
}

TEST(InputsTest, DifferentSeedChangesInputs) {
  for (Workload w : {Workload::kScanTopk, Workload::kLookupSql}) {
    Result<Inputs> a = MakeInputs(w, 7, kTestPages);
    Result<Inputs> b = MakeInputs(w, 8, kTestPages);
    ASSERT_TRUE(a.ok() && b.ok()) << WorkloadName(w);
    EXPECT_NE(SerializeInputs(*a), SerializeInputs(*b)) << WorkloadName(w);
    EXPECT_NE(a->data.corpus.lines, b->data.corpus.lines) << WorkloadName(w);
  }
}

TEST(InputsTest, LookupRequestMix) {
  Result<Inputs> in = MakeInputs(Workload::kLookupSql, 3, kTestPages);
  ASSERT_TRUE(in.ok());
  size_t with_year = 0;
  for (const SqlRequest& r : in->requests) {
    ASSERT_LT(r.distinct, in->distinct.size());
    EXPECT_EQ(in->distinct[r.distinct].sql, r.sql);
    if (r.year >= 0) ++with_year;
  }
  // 7 patterns x 4 approaches x (2 years + 1 LIMIT) distinct requests; the
  // cycle repeats LIMIT requests so 2/3 of it carries a Year filter.
  EXPECT_EQ(in->distinct.size(), 7u * 4u * 3u);
  EXPECT_EQ(3 * with_year, 2 * in->requests.size());
}

TEST(InputsTest, UnknownWorkloadIsRejected) {
  EXPECT_FALSE(ParseWorkload("scan").ok());
  EXPECT_FALSE(ParseWorkload("ingest_mixed").ok());
  ASSERT_TRUE(ParseWorkload("lookup_sql").ok());
  EXPECT_EQ(*ParseWorkload("lookup_sql"), Workload::kLookupSql);
}

/// The definition, read off a sorted copy: the first element at which the
/// running count reaches q * n.
double OraclePercentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  for (size_t i = 0; i < v.size(); ++i) {
    if (static_cast<double>(i + 1) >= q * static_cast<double>(v.size())) {
      return v[i];
    }
  }
  return v.back();
}

TEST(PercentileTest, MatchesSortedOracle) {
  staccato::Rng rng(11);
  for (size_t n : {1u, 2u, 3u, 10u, 99u, 100u, 101u, 1000u, 1234u}) {
    std::vector<double> v;
    for (size_t i = 0; i < n; ++i) v.push_back(rng.UniformDouble() * 100.0);
    for (double q : {0.01, 0.25, 0.5, 0.9, 0.98, 0.99, 1.0}) {
      EXPECT_EQ(Percentile(v, q), OraclePercentile(v, q))
          << "n=" << n << " q=" << q;
    }
  }
}

TEST(PercentileTest, SummaryReportsSampleCount) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // unsorted input
  const LatencySummary s = Summarize(v);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.p99, 990.0);
  EXPECT_EQ(s.beyond_p99, 10u);

  const LatencySummary empty = Summarize({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.p50, 0.0);
  EXPECT_EQ(empty.beyond_p99, 0u);
}

TEST(WindowedSummaryTest, MedianOverWindowsPassesOverABurst) {
  // 10 windows of 1 s, each with latencies 1..100 ms, except window 3,
  // where a burst makes every request take 1000 ms and only half complete.
  constexpr uint64_t kSecond = 1'000'000'000;
  std::vector<TimedSample> v;
  for (uint64_t w = 0; w < 10; ++w) {
    const int n = w == 3 ? 50 : 100;
    for (int i = 1; i <= n; ++i) {
      v.push_back({w * kSecond + i * (kSecond / 101), w == 3 ? 1000.0 : i});
    }
  }
  const WindowedSummary s = SummarizeWindows(v, 10 * kSecond, 10);
  EXPECT_EQ(s.windows, 10u);
  EXPECT_EQ(s.p50, 50.0);
  EXPECT_EQ(s.p99, 99.0);
  EXPECT_EQ(s.qps, 100.0);
  // The whole-run figures take the burst's value.
  std::vector<double> all;
  for (const TimedSample& t : v) all.push_back(t.ms);
  EXPECT_EQ(Summarize(all).p99, 1000.0);
}

TEST(WindowedSummaryTest, OneWindowIsTheWholeRun) {
  std::vector<TimedSample> v;
  std::vector<double> ms;
  staccato::Rng rng(5);
  for (uint64_t i = 0; i < 500; ++i) {
    v.push_back({i * 4'000'000, rng.UniformDouble() * 50.0});
    ms.push_back(v.back().ms);
  }
  const WindowedSummary s = SummarizeWindows(v, 2'000'000'000, 1);
  EXPECT_EQ(s.windows, 1u);
  EXPECT_EQ(s.p50, Percentile(ms, 0.50));
  EXPECT_EQ(s.p99, Percentile(ms, 0.99));
  EXPECT_EQ(s.qps, 250.0);
  // Samples past the end fall in the last window; empty windows read 0 qps.
  const WindowedSummary sparse = SummarizeWindows({{9'000'000'000, 7.0}},
                                                  1'000'000'000, 4);
  EXPECT_EQ(sparse.windows, 1u);
  EXPECT_EQ(sparse.p99, 7.0);
  EXPECT_EQ(sparse.qps, 0.0);
}

TEST(ResultLineTest, PrintsEveryMetricWithItsUnit) {
  const std::string line =
      ResultLine(true, 12, 0, {{"qps", 56.5, "1/s"}, {"setup_s", 0.25, "s"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
            "\"metrics\": {\"qps\": {\"value\": 56.5, \"unit\": \"1/s\"}, "
            "\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}");
}

TEST(SpanLogTest, IdsAreUniqueAndNonZero) {
  SpanLog a(1), b(2);
  const uint64_t ra = a.Add("request", 1, 0, 10, 20);
  const uint64_t ca = a.Add("session.execute", 1, ra, 12, 19);
  const uint64_t rb = b.Add("request", 2, 0, 10, 20);
  EXPECT_NE(ra, 0u);
  EXPECT_NE(ra, ca);
  EXPECT_NE(ra, rb);
  a.Attr(ca, "candidates", 42);
  ASSERT_EQ(a.spans()[1].attrs.size(), 1u);
  EXPECT_EQ(a.spans()[1].parent, ra);
}

}  // namespace
}  // namespace e2ebench
