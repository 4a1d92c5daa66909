#include "obs/sink.h"

#include <mutex>
#include <utility>

#include "obs/counters.h"
#include "obs/trace.h"

namespace finwork::obs {

namespace {

// Structured events are rare (they mark defects), so a single mutex-guarded
// vector with a hard cap is enough; each event past the cap is counted in
// Counter::kTraceEventsDropped.
constexpr std::size_t kMaxEvents = 4096;

struct SinkRegistry {
  std::mutex mu;
  std::vector<StructuredEvent> events;
};

SinkRegistry& sink_registry() {
  static SinkRegistry registry;
  return registry;
}

}  // namespace

void emit_event(std::string category, std::string object, std::size_t level,
                std::size_t row, std::string detail) noexcept {
  try {
    StructuredEvent ev;
    ev.category = std::move(category);
    ev.object = std::move(object);
    ev.level = level;
    ev.row = row;
    ev.detail = std::move(detail);
    ev.ts_ns = now_ns();
    SinkRegistry& reg = sink_registry();
    std::lock_guard lock(reg.mu);
    if (reg.events.size() < kMaxEvents) {
      reg.events.push_back(std::move(ev));
    } else {
      counter_add(Counter::kTraceEventsDropped);
    }
  } catch (...) {
    // Diagnostics must never take the computation down with them, but the
    // lost event is still counted.
    counter_add(Counter::kTraceEventsDropped);
  }
}

namespace detail {

void ensure_sink_initialized() noexcept { sink_registry(); }

}  // namespace detail

std::vector<StructuredEvent> events_snapshot() {
  SinkRegistry& reg = sink_registry();
  std::lock_guard lock(reg.mu);
  return reg.events;
}

void events_reset() noexcept {
  SinkRegistry& reg = sink_registry();
  std::lock_guard lock(reg.mu);
  reg.events.clear();
}

}  // namespace finwork::obs
