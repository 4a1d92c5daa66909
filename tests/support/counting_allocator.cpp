#include "support/counting_allocator.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::size_t> g_live{0};     // bytes allocated and not freed
std::atomic<std::size_t> g_peak{0};     // high-water mark of g_live
std::atomic<std::size_t> g_largest{0};  // largest single allocation

/// Each block carries its size in a header of one max_align_t.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void raise_to(std::atomic<std::size_t>& a, std::size_t v) {
  std::size_t cur = a.load();
  while (cur < v && !a.compare_exchange_weak(cur, v)) {
  }
}

void* counted_alloc(std::size_t n) noexcept {
  void* base = std::malloc(n + kHeader);
  if (base == nullptr) return nullptr;
  *static_cast<std::size_t*>(base) = n;
  raise_to(g_peak, g_live.fetch_add(n) + n);
  raise_to(g_largest, n);
  return static_cast<char*>(base) + kHeader;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  void* base = static_cast<char*>(p) - kHeader;
  g_live.fetch_sub(*static_cast<std::size_t*>(base));
  std::free(base);
}

void* checked_alloc(std::size_t n) {
  void* p = counted_alloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace finwork::heap {

std::size_t live_bytes() noexcept { return g_live.load(); }
std::size_t peak_bytes() noexcept { return g_peak.load(); }
std::size_t largest_block() noexcept { return g_largest.load(); }
void reset_peak() noexcept {
  g_peak.store(g_live.load());
  g_largest.store(0);
}

}  // namespace finwork::heap

void* operator new(std::size_t n) { return checked_alloc(n); }
void* operator new[](std::size_t n) { return checked_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
