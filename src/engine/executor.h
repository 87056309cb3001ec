/// \file executor.h
/// \brief Fixed-size thread pool with a bounded task queue — the execution
/// substrate of the query engine (see query_engine.h).
///
/// Workers pull tasks from a single FIFO queue. `Submit` blocks the caller
/// while the queue is at capacity (backpressure instead of unbounded memory
/// growth under heavy traffic), and fails once the pool is shut down.
/// `Shutdown` drains every task that was accepted before returning, so a
/// caller that joined the pool has seen all its side effects.

#ifndef GPMV_ENGINE_EXECUTOR_H_
#define GPMV_ENGINE_EXECUTOR_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace gpmv {

/// Optional metric hooks the pool records into (obs/metrics.h handles,
/// resolved by the owner). Null members are simply not recorded — the
/// per-task cost with hooks set is two relaxed atomic adds per histogram,
/// taken *outside* the queue mutex. These are ungrouped updates: a snapshot
/// may miss an in-flight record, which is fine (no cross-metric invariant).
struct ThreadPoolObs {
  obs::Histogram* queue_wait_us = nullptr;  ///< Submit-to-dequeue delay
  obs::Histogram* run_us = nullptr;         ///< task body wall time
};

/// Pool sizing knobs.
struct ThreadPoolOptions {
  /// Worker count; 0 means std::thread::hardware_concurrency() (min 1).
  size_t num_threads = 0;
  /// Maximum queued (not yet running) tasks before Submit blocks.
  size_t queue_capacity = 1024;
  /// Admission control: with true, a Submit that finds the queue at
  /// capacity fast-fails with kResourceExhausted (counted in
  /// ThreadPoolStats::rejected) instead of blocking — overload shedding
  /// for latency-sensitive callers. ParallelInvoke degrades rejected
  /// fan-out tasks to inline execution, so shedding the fan-out pool only
  /// costs parallelism, never correctness.
  bool shed_when_saturated = false;
  /// Fault injection (common/fault.h): the `executor.task` point rejects a
  /// submission with kResourceExhausted as if the queue were saturated.
  /// Null disables.
  FaultInjector* fault = nullptr;
  /// Metric hooks (all-null by default: zero overhead).
  ThreadPoolObs obs;
};

/// Observability counters; a consistent snapshot as of the call.
struct ThreadPoolStats {
  size_t submitted = 0;        ///< tasks accepted by Submit
  size_t executed = 0;  ///< tasks dequeued and run; counted before the task
                        ///< body starts, so any result derived from a task
                        ///< (e.g. a future it completes) observes the count
  size_t rejected = 0;  ///< Submit calls refused (shutdown, shedding, or an
                        ///< injected executor.task fault)
  size_t max_queue_depth = 0;  ///< high-water mark of the queue
};

/// Fixed worker pool + bounded FIFO queue.
class ThreadPool {
 public:
  explicit ThreadPool(ThreadPoolOptions opts = {});
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task`; blocks while the queue is full (or, with
  /// shed_when_saturated, fast-fails with kResourceExhausted instead).
  /// Fails with InvalidArgument after Shutdown. Tasks must not throw.
  Status Submit(std::function<void()> task);

  /// Stops accepting tasks, drains the queue, joins all workers.
  /// Idempotent; also called by the destructor.
  void Shutdown();

  /// Configured worker count. Immutable after construction (Shutdown joins
  /// and clears workers_, so reading workers_.size() would race a
  /// concurrent shutdown — this stays safe from any thread, any time).
  size_t num_threads() const { return num_threads_; }
  ThreadPoolStats stats() const;

 private:
  void WorkerLoop();

  /// A queued task plus its enqueue timestamp (for the queue-wait metric;
  /// only stamped when obs_.queue_wait_us is set).
  struct QueuedTask {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<QueuedTask> queue_;
  std::vector<std::thread> workers_;
  size_t num_threads_ = 0;
  size_t queue_capacity_;
  bool shed_when_saturated_ = false;
  FaultInjector* fault_ = nullptr;
  bool shutdown_ = false;
  ThreadPoolStats stats_;
  ThreadPoolObs obs_;
};

/// Structured fork-join fan-out: runs every task in `tasks` and blocks until
/// all of them finished. With a pool, tasks are submitted to it (a task the
/// pool rejects — e.g. after Shutdown — runs inline in the caller); with
/// `pool == nullptr`, tasks run serially in the caller. Tasks must not
/// throw. Safe to call from a worker of a *different* pool; calling it with
/// the pool the caller runs on can deadlock once every worker is blocked in
/// a ParallelInvoke.
void ParallelInvoke(ThreadPool* pool, std::vector<std::function<void()>> tasks);

}  // namespace gpmv

#endif  // GPMV_ENGINE_EXECUTOR_H_
