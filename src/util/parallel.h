// The engine's one concurrency substrate: a lazily started, shared
// ThreadPool plus ParallelFor/ParallelMap helpers built on it.
//
// Every parallel stage in the system — Load-time Staccato construction,
// the executor's Fetch and Eval fan-out, and the per-query shard scatter —
// schedules through this pool instead of spawning its own std::thread
// workers. Work is claimed from a shared atomic cursor in chunks of
// `grain` indices and results are written positionally, so the output of
// a parallel region is bit-identical to running it serially, for any
// thread count and any scheduling order.
//
// The calling thread always participates in the parallel region, so a
// ParallelFor makes progress even when every pool worker is busy; and a
// ParallelFor issued *from* a pool worker runs inline (serially) rather
// than blocking on tasks queued behind it, so nested parallel regions
// degrade gracefully instead of deadlocking.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/result.h"

namespace staccato {

/// \brief A lazily started pool of worker threads. Construction is cheap:
/// no thread is spawned until the first TryEnqueue.
///
/// The task queue is bounded (`max_queued`): a saturated pool makes
/// overload *visible* instead of buffering unbounded work. TryEnqueue
/// reports the rejection to the caller, which degrades (ParallelFor runs
/// with fewer helpers, its calling thread doing the rest), so no work is
/// ever dropped — it just stops being parallel. The admission controller
/// in rdbms/service reads queue_depth()/saturation_rejects() to size its
/// retry-after hints.
class ThreadPool {
 public:
  /// `capacity` = number of workers; 0 = DefaultThreads().
  /// `max_queued` = pending-task cap; 0 = max(8 * capacity, 64).
  explicit ThreadPool(size_t capacity = 0, size_t max_queued = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t capacity() const { return capacity_; }
  size_t max_queued() const { return max_queued_; }

  /// Enqueues a task unless the queue is full; worker threads are started
  /// on first use. Returns false — without enqueuing or running anything
  /// — iff the pending-task queue is at max_queued(); the caller decides
  /// how to degrade (ParallelFor runs with fewer helpers).
  bool TryEnqueue(std::function<void()> task);

  /// Tasks enqueued but not yet claimed by a worker. A snapshot: stale
  /// by the time the caller reads it, good enough for load shedding.
  size_t queue_depth() const;

  /// Lifetime count of TryEnqueue calls rejected by a full queue — the
  /// pool's saturation signal.
  uint64_t saturation_rejects() const {
    return saturation_rejects_.load(std::memory_order_relaxed);
  }

  /// True iff the calling thread is one of *this* pool's workers.
  /// ParallelFor uses it to run nested regions inline.
  bool OnWorkerThread() const;

  /// The process-wide shared pool every execution stage defaults to.
  /// Sized by DefaultThreads() on first use.
  static ThreadPool& Shared();

  /// Pool-size knob: the STACCATO_THREADS environment variable when set to
  /// an integer in [1, 1024] (read through EnvUint), otherwise
  /// std::thread::hardware_concurrency (minimum 1).
  static size_t DefaultThreads();

 private:
  void WorkerLoop();

  const size_t capacity_;
  const size_t max_queued_;
  mutable util::Mutex mu_;
  util::CondVar cv_{&mu_};  // signalled on new work and on stop
  std::vector<std::function<void()>> queue_ GUARDED_BY(mu_);  // FIFO via head
  size_t queue_head_ GUARDED_BY(mu_) = 0;
  std::vector<std::thread> workers_ GUARDED_BY(mu_);  // spawned lazily
  bool started_ GUARDED_BY(mu_) = false;
  bool stop_ GUARDED_BY(mu_) = false;
  std::atomic<uint64_t> saturation_rejects_{0};
};

/// \brief Scheduling knobs for ParallelFor / ParallelMap.
struct ParallelOptions {
  /// Worker cap for this region (including the calling thread).
  /// 0 = the pool's capacity. 1 = run serially inline.
  size_t threads = 0;
  /// Pool to schedule on; null = ThreadPool::Shared().
  ThreadPool* pool = nullptr;
};

/// Runs `fn(i)` for every i in [0, n). Indices are claimed from a shared
/// cursor in chunks of `grain` (0 is treated as 1); an empty range returns
/// OK without touching the pool, and a region that resolves to one worker
/// (threads == 1, or grain >= n) runs inline in index order. The first
/// non-OK status stops the region and is returned; which status wins under
/// concurrent failures is unspecified, but some failure is always
/// reported. `fn` must be safe to call concurrently from multiple threads
/// for distinct indices.
Status ParallelFor(size_t n, size_t grain,
                   const std::function<Status(size_t)>& fn,
                   ParallelOptions opts = {});

/// ParallelFor whose callback also receives a stable worker slot id:
/// `fn(worker, i)` with worker in [0, W) where W = min(resolved threads,
/// number of grain-chunks). The calling thread is always worker 0; pool
/// helpers take slots 1..W-1, and a region that runs inline (one worker,
/// or nested inside a pool task) uses slot 0 throughout. Within one
/// region no two concurrent calls share a slot, so the id can index
/// per-worker state owned by that region (e.g. a reusable EvalScratch
/// arena) without locking — the state must be per-call, though: every
/// region has its own worker 0, so slots of state shared across
/// concurrent regions would race. Semantics otherwise match ParallelFor,
/// including the positional-output discipline that keeps results
/// order-independent.
Status ParallelForWorker(size_t n, size_t grain,
                         const std::function<Status(size_t, size_t)>& fn,
                         ParallelOptions opts = {});

/// ParallelFor that gathers `fn(i)` into slot i of the result vector.
/// Positional gathering makes the output independent of scheduling.
template <typename T>
Result<std::vector<T>> ParallelMap(size_t n, size_t grain,
                                   const std::function<Result<T>(size_t)>& fn,
                                   ParallelOptions opts = {}) {
  std::vector<T> out(n);
  STACCATO_RETURN_NOT_OK(ParallelFor(
      n, grain,
      [&](size_t i) -> Status {
        STACCATO_ASSIGN_OR_RETURN(out[i], fn(i));
        return Status::OK();
      },
      opts));
  return out;
}

}  // namespace staccato
