#pragma once
// Low-overhead RAII span tracer.
//
// `ObsSpan span("solver/solve");` records a timed span from construction to
// destruction into the calling thread's private buffer.  Buffers never
// contend with each other: each thread appends only to its own buffer, and
// the buffer's mutex is uncontended except during the rare registry drains
// (snapshot/export/reset), so an append costs two clock reads plus one
// uncontended lock and a vector push.  Buffers are bounded; overflow drops
// the span and bumps Counter::kTraceEventsDropped instead of growing
// without limit.
//
// Span names must be string literals (or otherwise static storage) of the
// form "component/operation" — see docs/OBSERVABILITY.md for the catalog.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

// Inclusion marker (see obs/counters.h).
#define FINWORK_OBS_INCLUDED 1

namespace finwork::obs {

/// One completed span, as drained from the registry.
struct TraceEvent {
  const char* name = nullptr;  ///< static-storage span name
  std::uint64_t start_ns = 0;  ///< steady-clock timestamp
  std::uint64_t duration_ns = 0;
  std::uint32_t tid = 0;  ///< small registry-assigned thread id
};

/// Monotonic nanosecond timestamp (steady clock).
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// Force construction of the trace/sink registries.  Call from long-lived
/// components that may record from worker threads during static teardown
/// (the ThreadPool constructor does) so the registries outlive them.
void ensure_initialized() noexcept;

namespace detail {
void record_span(const char* name, std::uint64_t start_ns,
                 std::uint64_t duration_ns) noexcept;
/// Minimal JSON string escaping (quotes, backslash, control chars).
[[nodiscard]] std::string json_escape(std::string_view s);
}  // namespace detail

/// RAII scoped timer: records one span from construction to destruction.
class ObsSpan {
 public:
  explicit ObsSpan(const char* name) noexcept
      : name_(name), start_(now_ns()) {}
  ~ObsSpan() { detail::record_span(name_, start_, now_ns() - start_); }
  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

 private:
  const char* name_;
  std::uint64_t start_;
};

/// Aggregated per-name statistics over all recorded spans.
struct SpanStats {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
};

/// All recorded spans, sorted by start time.
[[nodiscard]] std::vector<TraceEvent> trace_snapshot();

/// Per-name aggregation, sorted by total time descending.  With `drain`,
/// the spans it reads are cleared in the same pass, buffer by buffer, so a
/// harness that drains as it runs loses none of them.
[[nodiscard]] std::vector<SpanStats> trace_summary(bool drain = false);

/// Discard all recorded spans (thread buffers stay registered).
void trace_reset() noexcept;

/// Chrome trace-event JSON ("chrome://tracing" / Perfetto): spans as
/// complete ("X") events, structured sink events as instant ("i") events.
/// Timestamps are microseconds relative to the earliest recorded event.
void write_chrome_trace(std::ostream& out);

/// Flat text report: span summary table, counter/gauge values, and any
/// structured events.
void write_text_summary(std::ostream& out);

}  // namespace finwork::obs
