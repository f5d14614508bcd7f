#ifndef CEAFF_COMMON_THREAD_POOL_H_
#define CEAFF_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ceaff {

/// Why a task was (not) accepted by the pool. Callers that shed load need
/// to tell the two refusals apart: kQueueFull is transient (retry with
/// backoff, or shed the request — the pool is alive but saturated) while
/// kShuttingDown is terminal (run inline or abandon the work; no amount of
/// waiting brings the pool back).
enum class SubmitResult {
  kAccepted,      // task enqueued; a worker will run it
  kQueueFull,     // TrySubmit only: every queue slot is taken right now
  kShuttingDown,  // Shutdown() has begun; the task was dropped
};

/// Fixed-size worker pool with a bounded task queue.
///
/// The queue bound provides backpressure: Submit() blocks the producer when
/// `queue_capacity` tasks are already waiting, so a fast request source
/// cannot grow memory without limit. TrySubmit() is the non-blocking
/// variant for callers that prefer load-shedding over waiting.
///
/// Each worker thread owns a ThreadLocalRng() stream (see common/random.h),
/// touched once at startup so per-task randomness never contends on shared
/// RNG state.
///
/// Destruction (or Shutdown()) stops intake, drains every task already
/// queued, then joins the workers. Tasks must not throw — the library is
/// exception-free; a throwing task would terminate the process.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (clamped to >= 1). `queue_capacity`
  /// bounds the number of queued-but-not-running tasks (clamped to >= 1).
  explicit ThreadPool(size_t num_threads, size_t queue_capacity = 1024);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  /// Enqueues `task`, blocking while the queue is full. Never returns
  /// kQueueFull; returns kShuttingDown (and drops the task) if the pool is
  /// shutting down.
  SubmitResult Submit(std::function<void()> task);

  /// Enqueues `task` only if a queue slot is free right now; kQueueFull
  /// when it is not, kShuttingDown once Shutdown() has begun.
  SubmitResult TrySubmit(std::function<void()> task);

  /// Stops accepting tasks, runs everything already queued, joins workers.
  /// Idempotent; called by the destructor.
  void Shutdown();

  size_t num_threads() const { return workers_.size(); }
  size_t queue_capacity() const { return capacity_; }

 private:
  void WorkerLoop();

  const size_t capacity_;
  std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

/// Runs fn(0), ..., fn(n-1), partitioned into contiguous index blocks that
/// the pool's workers and the calling thread claim in turn, and blocks
/// until all calls finished. Within a block indices run in ascending order
/// on one thread; which thread runs a block is not fixed. Falls back to a
/// plain sequential loop when `pool` is null or has a single thread.
/// `fn` must be safe to call concurrently for distinct indices.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace ceaff

#endif  // CEAFF_COMMON_THREAD_POOL_H_
