#include "parallel/thread_pool.h"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <utility>

#include "obs/counters.h"
#include "obs/trace.h"

namespace finwork::par {

namespace {
// Set for the lifetime of each worker's loop; queried by on_worker_thread().
thread_local bool t_on_worker = false;
}  // namespace

bool ThreadPool::on_worker_thread() noexcept { return t_on_worker; }

ThreadPool::ThreadPool(std::size_t threads) {
  // Workers may record spans/counters during static teardown; constructing
  // the obs registries first guarantees they outlive the pool.
  obs::ensure_initialized();
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> fn) {
  Task task{std::move(fn), obs::now_ns()};
  {
    std::lock_guard lock(mutex_);
    if (stopping_) throw std::runtime_error("ThreadPool: submit after stop");
    queue_.push(std::move(task));
    obs::gauge_raise(obs::Gauge::kMaxQueueDepth, queue_.size());
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  t_on_worker = true;
  for (;;) {
    Task task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    obs::counter_add(obs::Counter::kPoolTasksExecuted);
    obs::counter_add(obs::Counter::kPoolTaskWaitNs,
                     obs::now_ns() - task.enqueue_ns);
    task.fn();
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

namespace {

/// Runs task(c) for every chunk c in [0, chunks) on the pool, waits for all
/// of them, and rethrows the first exception by chunk order.  Each task
/// catches its own exception into a slot this frame owns, so no future's
/// shared state carries one: every exception is released on the calling
/// thread, never by a worker dropping the last reference to a finished
/// task while the caller is still reading the exception it rethrew.
void run_chunks(ThreadPool& pool, std::size_t chunks,
                const std::function<void(std::size_t)>& task) {
  std::vector<std::exception_ptr> errors(chunks);
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    futures.push_back(pool.submit([c, &task, &errors] {
      try {
        task(c);
      } catch (...) {
        errors[c] = std::current_exception();
      }
    }));
  }
  for (auto& f : futures) f.get();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  grain = std::max<std::size_t>(1, grain);
  const std::size_t max_chunks = pool.size() * 4;
  const std::size_t chunk = std::max(grain, (n + max_chunks - 1) / max_chunks);

  // Run inline when the range is small or when already on a pool worker:
  // submitting from a worker and blocking on the futures can deadlock once
  // every worker is parked waiting for subtasks none of them can run.
  if (n <= chunk || ThreadPool::on_worker_thread()) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }

  run_chunks(pool, (n + chunk - 1) / chunk, [&](std::size_t c) {
    const std::size_t lo = begin + c * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    for (std::size_t i = lo; i < hi; ++i) body(i);
  });
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain) {
  parallel_for(ThreadPool::global(), begin, end, body, grain);
}

}  // namespace finwork::par
