#include "util/parallel.h"

#include <algorithm>
#include <atomic>

#include "telemetry/metrics_registry.h"
#include "util/strings.h"

namespace staccato {

namespace {
// Set while a worker runs its loop, so ParallelFor can detect that it is
// being called from inside the pool it is about to schedule on.
thread_local const ThreadPool* tls_worker_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(size_t capacity, size_t max_queued)
    : capacity_(capacity == 0 ? DefaultThreads() : capacity),
      max_queued_(max_queued == 0 ? std::max<size_t>(8 * capacity_, 64)
                                  : max_queued) {}

ThreadPool::~ThreadPool() {
  // Move the worker handles out under the lock, then join without it:
  // joining while holding mu_ would deadlock with workers blocked on the
  // condition variable (and the analysis rightly wants workers_ accessed
  // under its guard).
  std::vector<std::thread> workers;
  {
    util::MutexLock lock(&mu_);
    stop_ = true;
    workers = std::move(workers_);
  }
  cv_.SignalAll();
  for (std::thread& w : workers) w.join();
}

size_t ThreadPool::DefaultThreads() {
  // At most 1024 workers; 0 (or anything EnvUint rejects) means
  // hardware concurrency.
  const uint64_t threads = EnvUint("STACCATO_THREADS", 0, 1024);
  if (threads > 0) return static_cast<size_t>(threads);
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = [] {
    ThreadPool* p = new ThreadPool();  // never destroyed: outlives
    // Callback gauge is safe exactly because this pool is leaked — a
    // pool that can be destroyed would leave a dangling callback in the
    // process-global registry, so only Shared() registers one.
    telemetry::MetricsRegistry::Global().GetCallbackGauge(
        "staccato_pool_queue_depth",
        [p]() { return static_cast<int64_t>(p->queue_depth()); });
    return p;
  }();
  return *pool;  // static-teardown-ordered users (tests, benches)
}

bool ThreadPool::OnWorkerThread() const { return tls_worker_pool == this; }

bool ThreadPool::TryEnqueue(std::function<void()> task) {
  {
    util::MutexLock lock(&mu_);
    if (queue_.size() - queue_head_ >= max_queued_) {
      saturation_rejects_.fetch_add(1, std::memory_order_relaxed);
      static telemetry::Counter* rejects =
          telemetry::MetricsRegistry::Global().GetCounter(
              "staccato_pool_saturation_rejects_total");
      rejects->Increment();
      return false;
    }
    if (!started_) {
      started_ = true;
      workers_.reserve(capacity_);
      for (size_t i = 0; i < capacity_; ++i) {
        workers_.emplace_back([this] { WorkerLoop(); });
      }
    }
    queue_.push_back(std::move(task));
  }
  cv_.Signal();
  return true;
}

size_t ThreadPool::queue_depth() const {
  util::MutexLock lock(&mu_);
  return queue_.size() - queue_head_;
}

void ThreadPool::WorkerLoop() {
  tls_worker_pool = this;
  while (true) {
    std::function<void()> task;
    {
      util::MutexLock lock(&mu_);
      while (!stop_ && queue_head_ >= queue_.size()) cv_.Wait();
      if (stop_) return;
      task = std::move(queue_[queue_head_++]);
      if (queue_head_ == queue_.size()) {
        queue_.clear();
        queue_head_ = 0;
      }
    }
    task();
  }
}

namespace {

/// Shared state of one ParallelFor region, stack-allocated by the caller.
/// Lifetime invariant: the caller blocks until every submitted helper has
/// finished (`active == 0`), so the state — and the borrowed `fn` — always
/// outlive the helpers. A helper dequeued after the caller drained every
/// chunk itself finds the cursor exhausted and exits without calling fn.
struct ForState {
  std::atomic<size_t> cursor{0};
  std::atomic<bool> failed{false};
  std::atomic<size_t> active{0};  // helpers not yet finished
  util::Mutex mu;
  util::CondVar done{&mu};
  Status error GUARDED_BY(mu);  // first failure
  size_t n = 0;
  size_t grain = 1;
  // Valid while active. Called as fn(worker, i); the plain ParallelFor
  // wraps its index-only callback.
  const std::function<Status(size_t, size_t)>* fn = nullptr;

  void Drain(size_t worker) {
    while (!failed.load(std::memory_order_acquire)) {
      size_t begin = cursor.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= n) return;
      size_t end = std::min(n, begin + grain);
      for (size_t i = begin; i < end; ++i) {
        Status st = (*fn)(worker, i);
        if (!st.ok()) {
          util::MutexLock lock(&mu);
          if (error.ok()) error = std::move(st);
          failed.store(true, std::memory_order_release);
          return;
        }
      }
    }
  }
};

}  // namespace

Status ParallelForWorker(size_t n, size_t grain,
                         const std::function<Status(size_t, size_t)>& fn,
                         ParallelOptions opts) {
  if (n == 0) return Status::OK();
  if (grain == 0) grain = 1;
  ThreadPool& pool = opts.pool != nullptr ? *opts.pool : ThreadPool::Shared();
  size_t threads = opts.threads == 0 ? pool.capacity() : opts.threads;
  const size_t chunks = (n + grain - 1) / grain;
  size_t workers = std::min(threads, chunks);
  // One worker — or a nested region issued from a pool thread, whose
  // helpers would queue behind (and possibly deadlock with) the very task
  // that is waiting on them — runs inline, in index order, as worker 0.
  if (workers <= 1 || pool.OnWorkerThread()) {
    for (size_t i = 0; i < n; ++i) STACCATO_RETURN_NOT_OK(fn(0, i));
    return Status::OK();
  }

  ForState state;
  state.n = n;
  state.grain = grain;
  state.fn = &fn;
  const size_t helpers = workers - 1;  // the caller is worker 0
  state.active.store(helpers, std::memory_order_relaxed);
  size_t submitted = 0;
  for (size_t h = 0; h < helpers; ++h) {
    const bool queued = pool.TryEnqueue([&state, h] {
      state.Drain(h + 1);
      util::MutexLock lock(&state.mu);
      if (state.active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        state.done.SignalAll();
      }
    });
    if (!queued) break;  // saturated pool: degrade to fewer helpers
    ++submitted;
  }
  if (submitted < helpers) {
    // Helpers that never enqueued will never Drain or decrement; the
    // caller still covers all the work itself via its own Drain below.
    state.active.fetch_sub(helpers - submitted, std::memory_order_acq_rel);
  }
  state.Drain(0);
  util::MutexLock lock(&state.mu);
  while (state.active.load(std::memory_order_acquire) != 0) {
    state.done.Wait();
  }
  return state.error;
}

Status ParallelFor(size_t n, size_t grain,
                   const std::function<Status(size_t)>& fn,
                   ParallelOptions opts) {
  return ParallelForWorker(
      n, grain, [&fn](size_t, size_t i) { return fn(i); }, opts);
}

}  // namespace staccato
