#pragma once
// A small fixed-size thread pool with a blocking task queue, plus the
// parallel_for helper behind every pool dispatch: sweep fan-out and the
// simulator's replications.  No solver query or level assembly dispatches
// to it.
//
// Design notes (C++ Core Guidelines CP.*): tasks are type-erased
// move-only callables; the pool owns its threads (RAII — the destructor joins
// them); no detached threads anywhere; waiting uses condition variables, not
// spinning.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace finwork::par {

/// Fixed-size worker pool.  Submit returns a std::future; parallel_for blocks
/// until all chunks finish and rethrows the first exception raised by a chunk.
class ThreadPool {
 public:
  /// Creates `threads` workers (defaults to hardware concurrency, at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a callable; returns a future for its result.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::packaged_task<R()>(std::forward<F>(f));
    std::future<R> fut = task.get_future();
    enqueue([t = std::make_shared<std::packaged_task<R()>>(std::move(task))] {
      (*t)();
    });
    return fut;
  }

  /// The process-wide default pool (lazily constructed, hardware-sized).
  static ThreadPool& global();

  /// True when the calling thread is a worker of *any* ThreadPool.  Nested
  /// fan-out helpers (parallel_for, the parallel linalg kernels) consult this
  /// and run inline instead of submitting: a worker that blocks on futures
  /// for subtasks queued behind other blocked workers deadlocks the pool.
  [[nodiscard]] static bool on_worker_thread() noexcept;

 private:
  /// A queued task plus its enqueue timestamp (obs task-latency counter).
  struct Task {
    std::function<void()> fn;
    std::uint64_t enqueue_ns = 0;
  };

  /// Locks, pushes, and notifies; also feeds the obs queue-depth gauge.
  /// Lives in the .cpp so the header carries no obs dependency.
  void enqueue(std::function<void()> fn);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<Task> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Run body(i) for i in [begin, end) across the pool in contiguous chunks.
/// Blocks until complete.  `grain` is the minimum chunk size.
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain = 1);

/// Same, on the global pool.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain = 1);

}  // namespace finwork::par
