#pragma once
// Structured event sink: the destination for one-off diagnostic records
// that used to go to stderr (invariant violations, convergence failures).
// Events carry the offending object's name, the population level, the row,
// and a free-form detail string; they surface in the Chrome trace export
// as instant events and in the text summary verbatim.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

// Inclusion marker (see obs/counters.h).
#define FINWORK_OBS_INCLUDED 1

namespace finwork::obs {

/// Sentinel for events without a population level or row.
inline constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

struct StructuredEvent {
  std::string category;  ///< e.g. "invariant-violation"
  std::string object;    ///< offending matrix/vector name, e.g. "P_k"
  std::size_t level = kNoIndex;
  std::size_t row = kNoIndex;
  std::string detail;
  std::uint64_t ts_ns = 0;  ///< steady-clock timestamp at emission
};

namespace detail {
/// Construct the sink registry now (see obs::ensure_initialized).
void ensure_sink_initialized() noexcept;
}  // namespace detail

/// Record a structured event.
void emit_event(std::string category, std::string object,
                std::size_t level = kNoIndex, std::size_t row = kNoIndex,
                std::string detail = {}) noexcept;

/// All recorded events in emission order.
[[nodiscard]] std::vector<StructuredEvent> events_snapshot();

/// Discard all recorded events.
void events_reset() noexcept;

}  // namespace finwork::obs
