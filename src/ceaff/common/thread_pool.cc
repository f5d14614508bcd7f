#include "ceaff/common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "ceaff/common/random.h"

namespace ceaff {

namespace {

/// Blocks per worker in ParallelFor: enough that the threads even out
/// when some run late, few enough that claiming costs nothing.
constexpr size_t kBlocksPerThread = 4;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads, size_t queue_capacity)
    : capacity_(std::max<size_t>(1, queue_capacity)) {
  num_threads = std::max<size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

SubmitResult ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return shutdown_ || queue_.size() < capacity_; });
    if (shutdown_) return SubmitResult::kShuttingDown;
    queue_.push_back(std::move(task));
  }
  not_empty_.notify_one();
  return SubmitResult::kAccepted;
}

SubmitResult ThreadPool::TrySubmit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return SubmitResult::kShuttingDown;
    if (queue_.size() >= capacity_) return SubmitResult::kQueueFull;
    queue_.push_back(std::move(task));
  }
  not_empty_.notify_one();
  return SubmitResult::kAccepted;
}

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      // Already shut down; workers may still be draining, but join below
      // is only reached once (workers_ cleared after joining).
    }
    shutdown_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::WorkerLoop() {
  // Materialise this worker's RNG stream up front so per-task randomness is
  // contention-free (see common/random.h).
  (void)ThreadLocalRng();
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    not_full_.notify_one();
    task();
  }
}

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (pool == nullptr || pool->num_threads() <= 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Contiguous blocks, a few per worker, so false sharing on row-major
  // output buffers stays minimal while no block waits for a thread the
  // OS has not scheduled: the workers and the caller each claim the next
  // unclaimed block until none is left.
  const size_t num_blocks = std::min(n, kBlocksPerThread * pool->num_threads());
  const size_t block = (n + num_blocks - 1) / num_blocks;
  // Shared with the helper tasks, which may start after the call returned:
  // such a task finds every block claimed and touches nothing else. `fn`
  // is only called for a claimed block, and the call cannot return before
  // that block has run. `ran` is guarded by `mu`, so the caller observes
  // completion only after the last worker released it.
  struct Claims {
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable all_ran;
    size_t ran = 0;
  };
  const auto claims = std::make_shared<Claims>();
  const auto run_claimed = [n, num_blocks, block](
                               Claims* c,
                               const std::function<void(size_t)>* f) {
    size_t ran = 0;
    for (size_t b;
         (b = c->next.fetch_add(1, std::memory_order_relaxed)) < num_blocks;
         ++ran) {
      const size_t end = std::min(n, (b + 1) * block);
      for (size_t i = b * block; i < end; ++i) (*f)(i);
    }
    if (ran == 0) return;
    std::lock_guard<std::mutex> lock(c->mu);
    c->ran += ran;
    if (c->ran == num_blocks) c->all_ran.notify_one();
  };
  const size_t helpers = std::min(pool->num_threads(), num_blocks - 1);
  for (size_t h = 0; h < helpers; ++h) {
    // A refused task (pool shutting down) leaves its share to the caller,
    // so the wait below never hangs on a dropped task.
    (void)pool->Submit([claims, run_claimed, f = &fn] {
      run_claimed(claims.get(), f);
    });
  }
  run_claimed(claims.get(), &fn);
  std::unique_lock<std::mutex> lock(claims->mu);
  claims->all_ran.wait(lock, [&] { return claims->ran == num_blocks; });
}

}  // namespace ceaff
