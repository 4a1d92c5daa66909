#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>

#include "obs/counters.h"
#include "obs/sink.h"

namespace finwork::obs {

namespace {

// Per-thread bound: 2^17 events * 32 B = 4 MiB worst case per thread.
constexpr std::size_t kMaxEventsPerThread = std::size_t{1} << 17;

struct ThreadBuffer {
  std::mutex mu;  // uncontended except during registry drains
  std::vector<TraceEvent> events;
  std::uint32_t tid = 0;
};

class TraceRegistry {
 public:
  static TraceRegistry& instance() {
    static TraceRegistry registry;
    return registry;
  }

  ThreadBuffer& local() {
    thread_local ThreadBuffer* cached = nullptr;
    if (cached == nullptr) cached = &register_thread();
    return *cached;
  }

  /// With `clear`, each buffer is emptied under the lock that copied it.
  std::vector<TraceEvent> snapshot(bool clear = false) {
    std::vector<TraceEvent> out;
    std::lock_guard registry_lock(mu_);
    for (const auto& buf : buffers_) {
      std::lock_guard buffer_lock(buf->mu);
      out.insert(out.end(), buf->events.begin(), buf->events.end());
      if (clear) buf->events.clear();
    }
    std::sort(out.begin(), out.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                return a.start_ns < b.start_ns;
              });
    return out;
  }

  void reset() noexcept {
    std::lock_guard registry_lock(mu_);
    for (const auto& buf : buffers_) {
      std::lock_guard buffer_lock(buf->mu);
      buf->events.clear();
    }
  }

 private:
  ThreadBuffer& register_thread() {
    auto buf = std::make_unique<ThreadBuffer>();
    std::lock_guard lock(mu_);
    buf->tid = next_tid_++;
    buffers_.push_back(std::move(buf));
    return *buffers_.back();
  }

  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::uint32_t next_tid_ = 1;
};

}  // namespace

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void ensure_initialized() noexcept {
  TraceRegistry::instance();
  detail::ensure_sink_initialized();
}

namespace detail {

void record_span(const char* name, std::uint64_t start_ns,
                 std::uint64_t duration_ns) noexcept {
  try {
    ThreadBuffer& buf = TraceRegistry::instance().local();
    std::lock_guard lock(buf.mu);
    if (buf.events.size() >= kMaxEventsPerThread) {
      counter_add(Counter::kTraceEventsDropped);
      return;
    }
    buf.events.push_back({name, start_ns, duration_ns, buf.tid});
  } catch (...) {
    // Tracing must never take the computation down with it.
  }
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char hex[] = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xF];
          out += hex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace detail

std::vector<TraceEvent> trace_snapshot() {
  return TraceRegistry::instance().snapshot();
}

std::vector<SpanStats> trace_summary(bool drain) {
  std::map<std::string_view, SpanStats> by_name;
  for (const TraceEvent& ev : TraceRegistry::instance().snapshot(drain)) {
    SpanStats& s = by_name[ev.name];
    if (s.count == 0) {
      s.name = ev.name;
      s.min_ns = ev.duration_ns;
      s.max_ns = ev.duration_ns;
    } else {
      s.min_ns = std::min(s.min_ns, ev.duration_ns);
      s.max_ns = std::max(s.max_ns, ev.duration_ns);
    }
    ++s.count;
    s.total_ns += ev.duration_ns;
  }
  std::vector<SpanStats> out;
  out.reserve(by_name.size());
  for (auto& [name, stats] : by_name) out.push_back(std::move(stats));
  std::sort(out.begin(), out.end(), [](const SpanStats& a, const SpanStats& b) {
    return a.total_ns > b.total_ns;
  });
  return out;
}

void trace_reset() noexcept { TraceRegistry::instance().reset(); }

void write_chrome_trace(std::ostream& out) {
  const std::vector<TraceEvent> spans = trace_snapshot();
  const std::vector<StructuredEvent> events = events_snapshot();

  // Normalize timestamps to the earliest record so traces open near t=0.
  std::uint64_t base = std::numeric_limits<std::uint64_t>::max();
  for (const TraceEvent& ev : spans) base = std::min(base, ev.start_ns);
  for (const StructuredEvent& ev : events) base = std::min(base, ev.ts_ns);
  if (base == std::numeric_limits<std::uint64_t>::max()) base = 0;
  const auto us = [base](std::uint64_t ns) {
    return static_cast<double>(ns - base) / 1000.0;
  };

  const std::streamsize saved_precision = out.precision();
  out << std::setprecision(15);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& ev : spans) {
    if (!first) out << ',';
    first = false;
    out << "\n{\"name\":\"" << detail::json_escape(ev.name)
        << "\",\"cat\":\"finwork\",\"ph\":\"X\",\"ts\":" << us(ev.start_ns)
        << ",\"dur\":" << static_cast<double>(ev.duration_ns) / 1000.0
        << ",\"pid\":1,\"tid\":" << ev.tid << '}';
  }
  for (const StructuredEvent& ev : events) {
    if (!first) out << ',';
    first = false;
    out << "\n{\"name\":\"" << detail::json_escape(ev.category)
        << "\",\"cat\":\"finwork\",\"ph\":\"i\",\"s\":\"g\",\"ts\":"
        << us(ev.ts_ns) << ",\"pid\":1,\"tid\":1,\"args\":{\"object\":\""
        << detail::json_escape(ev.object) << '"';
    if (ev.level != kNoIndex) out << ",\"level\":" << ev.level;
    if (ev.row != kNoIndex) out << ",\"row\":" << ev.row;
    out << ",\"detail\":\"" << detail::json_escape(ev.detail) << "\"}}";
  }
  out << "\n]}\n";
  out << std::setprecision(static_cast<int>(saved_precision));
}

void write_text_summary(std::ostream& out) {
  const auto ms = [](std::uint64_t ns) {
    return static_cast<double>(ns) / 1e6;
  };
  out << "== span summary ==\n";
  const std::vector<SpanStats> summary = trace_summary();
  if (summary.empty()) {
    out << "  (no spans recorded)\n";
  } else {
    out << std::left << std::setw(36) << "  name" << std::right
        << std::setw(10) << "count" << std::setw(14) << "total_ms"
        << std::setw(12) << "mean_ms" << std::setw(12) << "min_ms"
        << std::setw(12) << "max_ms" << '\n';
    for (const SpanStats& s : summary) {
      out << "  " << std::left << std::setw(34) << s.name << std::right
          << std::setw(10) << s.count << std::setw(14) << std::fixed
          << std::setprecision(3) << ms(s.total_ns) << std::setw(12)
          << ms(s.total_ns) / static_cast<double>(s.count) << std::setw(12)
          << ms(s.min_ns) << std::setw(12) << ms(s.max_ns) << '\n';
      out.unsetf(std::ios::fixed);
    }
  }
  out << "== counters ==\n";
  for (const CounterSnapshot& c : counters_snapshot()) {
    out << "  " << std::left << std::setw(36) << c.name << std::right
        << std::setw(16) << c.value << '\n';
  }
  const std::vector<StructuredEvent> events = events_snapshot();
  if (!events.empty()) {
    out << "== structured events ==\n";
    for (const StructuredEvent& ev : events) {
      out << "  [" << ev.category << "] " << ev.object;
      if (ev.level != kNoIndex) out << " level=" << ev.level;
      if (ev.row != kNoIndex) out << " row=" << ev.row;
      if (!ev.detail.empty()) out << ": " << ev.detail;
      out << '\n';
    }
  }
}

}  // namespace finwork::obs
