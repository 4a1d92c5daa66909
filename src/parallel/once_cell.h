#pragma once
// A value built on first use, at most once, and shared: the library's one
// build-once mechanism (state-space levels, each model level's factor, gather
// operators and drain vectors).  The first caller of get_or_init builds under
// the cell's mutex while concurrent callers wait on it; the value is
// published with a release store, so a caller that finds it built takes no
// lock.  A build that throws leaves the cell empty and the next call builds
// again, in every build type (std::call_once's retry after a throw hangs
// under ThreadSanitizer).  The rule it shares with std::call_once: a build
// must not re-enter its own cell (the mutex is not recursive).

#include <atomic>
#include <mutex>
#include <optional>
#include <utility>

namespace finwork::par {

template <typename T>
class OnceCell {
 public:
  /// The built value, or nullptr while the cell is empty.
  [[nodiscard]] const T* get() const noexcept {
    return ready_.load(std::memory_order_acquire) ? &*value_ : nullptr;
  }

  /// The built value, built by `build()` (returning a T) if the cell is
  /// empty; every later call returns the same object.
  template <typename F>
  const T& get_or_init(F&& build) {
    if (const T* v = get()) return *v;
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!ready_.load(std::memory_order_relaxed)) {
      value_.emplace(std::forward<F>(build)());
      ready_.store(true, std::memory_order_release);
    }
    return *value_;
  }

 private:
  std::mutex mutex_;
  std::atomic<bool> ready_{false};
  std::optional<T> value_;
};

}  // namespace finwork::par
