#include "rdbms/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <thread>

#include "telemetry/metrics_registry.h"
#include "util/parallel.h"
#include "util/strings.h"

// This file owns every deadline/queue-timeout clock read in src/
// (scripts/lint.sh rule 9): the executor and the rest of the engine see
// only QueryControl's atomic flags and budgets, never a clock.

namespace staccato::rdbms {

namespace {

using Clock = std::chrono::steady_clock;

/// Monotonic nanos for deadline arithmetic. Deliberately NOT
/// telemetry::MonotonicNanos(): deadlines decide behavior, so a fake
/// telemetry clock in a test must never move them.
uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Service-level metrics, registered once. The histograms record
/// microseconds (the log-bucket factor-of-two resolution is fine there).
struct ServiceMetrics {
  telemetry::Counter* admitted;
  telemetry::Counter* shed;
  telemetry::Counter* timed_out;
  telemetry::Counter* completed;
  telemetry::Counter* deadline_exceeded;
  telemetry::Counter* degraded;
  telemetry::Counter* io_retries;
  telemetry::Histogram* admission_wait_us;
  telemetry::Histogram* query_us;
};

const ServiceMetrics& Metrics() {
  static const ServiceMetrics m = [] {
    auto& r = telemetry::MetricsRegistry::Global();
    ServiceMetrics sm;
    sm.admitted = r.GetCounter("staccato_service_admitted_total");
    sm.shed = r.GetCounter("staccato_service_shed_total");
    sm.timed_out = r.GetCounter("staccato_service_queue_timeout_total");
    sm.completed = r.GetCounter("staccato_service_completed_total");
    sm.deadline_exceeded =
        r.GetCounter("staccato_service_deadline_exceeded_total");
    sm.degraded = r.GetCounter("staccato_service_degraded_total");
    sm.io_retries = r.GetCounter("staccato_io_retries_total");
    sm.admission_wait_us =
        r.GetHistogram("staccato_service_admission_wait_us");
    sm.query_us = r.GetHistogram("staccato_service_query_us");
    return sm;
  }();
  return m;
}

std::chrono::nanoseconds MsToNs(double ms) {
  return std::chrono::nanoseconds(
      static_cast<int64_t>(ms * 1'000'000.0));
}

}  // namespace

QueryControl::QueryControl(const ExecBudget& budget) : budget_(budget) {
  max_io_retries_ =
      budget.max_io_retries >= 0
          ? budget.max_io_retries
          : static_cast<int>(EnvUint("STACCATO_IO_RETRIES", 3, 100));
  if (budget.deadline_ms > 0.0) {
    has_deadline_ = true;
    deadline_ns_ =
        NowNs() + static_cast<uint64_t>(MsToNs(budget.deadline_ms).count());
  } else if (budget.deadline_ms < 0.0) {
    // Born expired: the very first Check() must fail, before a single
    // candidate is evaluated or a single byte fetched.
    has_deadline_ = true;
    deadline_ns_ = NowNs();
  }
}

Status QueryControl::Check() const {
  if (cancelled_.load(std::memory_order_acquire)) {
    return Status::DeadlineExceeded("query cancelled");
  }
  if (has_deadline_ && NowNs() >= deadline_ns_) {
    return Status::DeadlineExceeded("query deadline exceeded");
  }
  if (budget_.max_dp_steps != 0 &&
      dp_steps_.load(std::memory_order_relaxed) >= budget_.max_dp_steps) {
    return Status::DeadlineExceeded("DP step budget exceeded");
  }
  if (budget_.max_fetch_bytes != 0 &&
      fetched_bytes_.load(std::memory_order_relaxed) >=
          budget_.max_fetch_bytes) {
    return Status::DeadlineExceeded("fetch byte budget exceeded");
  }
  return Status::OK();
}

bool QueryControl::AllowRetry() {
  // Claim one attempt from the shared per-query budget.
  uint64_t attempt = io_retries_.load(std::memory_order_relaxed);
  do {
    if (attempt >= static_cast<uint64_t>(max_io_retries_)) return false;
  } while (!io_retries_.compare_exchange_weak(attempt, attempt + 1,
                                              std::memory_order_relaxed));
  Metrics().io_retries->Increment();
  // Exponential backoff: 1ms * 2^attempt, capped at 32ms, truncated to
  // the remaining deadline. A dead deadline means the retry cannot help.
  std::chrono::nanoseconds delay =
      std::chrono::milliseconds(int64_t{1} << std::min<uint64_t>(attempt, 5));
  if (has_deadline_) {
    const uint64_t now_ns = NowNs();
    if (now_ns >= deadline_ns_) return false;
    delay = std::min<std::chrono::nanoseconds>(
        delay, std::chrono::nanoseconds(deadline_ns_ - now_ns));
  }
  std::this_thread::sleep_for(delay);
  return Check().ok() || budget_.allow_partial;
}

QueryService::QueryService(Session* session, ServiceConfig config)
    : session_(session), config_(config) {
  if (config_.max_concurrent == 0) {
    config_.max_concurrent = static_cast<size_t>(
        EnvUint("STACCATO_MAX_CONCURRENT",
                ThreadPool::Shared().capacity(), 1 << 20));
    if (config_.max_concurrent == 0) config_.max_concurrent = 1;
  }
  if (config_.max_queued == 0) {
    config_.max_queued = 2 * config_.max_concurrent;
  }
  if (config_.queue_timeout_ms <= 0.0) {
    config_.queue_timeout_ms = static_cast<double>(
        EnvUint("STACCATO_QUEUE_TIMEOUT_MS", 100, 1'000'000));
  }
}

namespace {

/// The backoff the service recommends to a shed caller. Base = the queue
/// timeout (by then a slot has plausibly freed); doubled when the shared
/// ThreadPool itself is saturated — admission is not the bottleneck then,
/// so coming back sooner only queues deeper.
uint64_t ComputeRetryAfterMs(const ServiceConfig& config) {
  uint64_t hint = static_cast<uint64_t>(std::ceil(config.queue_timeout_ms));
  if (hint == 0) hint = 1;
  ThreadPool& pool = ThreadPool::Shared();
  if (2 * pool.queue_depth() >= pool.max_queued()) hint *= 2;
  return hint;
}

Status ShedStatus(const char* why, const ServiceConfig& config) {
  return Status::Unavailable(std::string(why) + "; retry-after-ms=" +
                             std::to_string(ComputeRetryAfterMs(config)));
}

}  // namespace

Status QueryService::Admit() {
  const Clock::time_point wait_deadline =
      Clock::now() + MsToNs(config_.queue_timeout_ms);
  util::MutexLock lock(&mu_);
  if (active_ < config_.max_concurrent) {
    ++active_;
    stats_.admitted.fetch_add(1, std::memory_order_relaxed);
    Metrics().admitted->Increment();
    return Status::OK();
  }
  if (waiting_ >= config_.max_queued) {
    stats_.shed.fetch_add(1, std::memory_order_relaxed);
    Metrics().shed->Increment();
    return ShedStatus("admission queue full", config_);
  }
  ++waiting_;
  while (active_ >= config_.max_concurrent) {
    const Clock::time_point now = Clock::now();
    if (now >= wait_deadline) {
      --waiting_;
      stats_.timed_out.fetch_add(1, std::memory_order_relaxed);
      Metrics().timed_out->Increment();
      return ShedStatus("queue wait timed out", config_);
    }
    slot_free_.WaitFor(wait_deadline - now);
  }
  --waiting_;
  ++active_;
  stats_.admitted.fetch_add(1, std::memory_order_relaxed);
  Metrics().admitted->Increment();
  return Status::OK();
}

void QueryService::Release() {
  {
    util::MutexLock lock(&mu_);
    --active_;
  }
  slot_free_.Signal();
}

size_t QueryService::active() const {
  util::MutexLock lock(&mu_);
  return active_;
}

Result<std::vector<Answer>> QueryService::Execute(PreparedQuery* query,
                                                  QueryStats* stats) {
  return Execute(query, config_.default_budget, stats);
}

Result<std::vector<Answer>> QueryService::Execute(PreparedQuery* query,
                                                  const ExecBudget& budget,
                                                  QueryStats* stats) {
  const uint64_t admit_start_ns = NowNs();
  STACCATO_RETURN_NOT_OK(Admit());
  const uint64_t admitted_ns = NowNs();
  Metrics().admission_wait_us->Record((admitted_ns - admit_start_ns) / 1000);
  QueryStats local;
  QueryStats* out = stats != nullptr ? stats : &local;
  QueryControl control(budget);  // armed after admission: queue wait does
                                 // not eat the execution deadline
  control.set_admission_wait_ns(admitted_ns - admit_start_ns);
  Result<std::vector<Answer>> result = query->Execute(&control, out);
  Release();
  Metrics().query_us->Record((NowNs() - admit_start_ns) / 1000);
  if (result.ok()) {
    stats_.completed.fetch_add(1, std::memory_order_relaxed);
    Metrics().completed->Increment();
    if (out->degraded) {
      stats_.degraded.fetch_add(1, std::memory_order_relaxed);
      Metrics().degraded->Increment();
    }
  } else if (result.status().IsDeadlineExceeded()) {
    stats_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
    Metrics().deadline_exceeded->Increment();
  }
  return result;
}

uint64_t RetryAfterHintMs(const Status& status) {
  const std::string& msg = status.message();
  const std::string key = "retry-after-ms=";
  const size_t pos = msg.find(key);
  if (pos == std::string::npos) return 0;
  return static_cast<uint64_t>(
      std::strtoull(msg.c_str() + pos + key.size(), nullptr, 10));
}

}  // namespace staccato::rdbms
