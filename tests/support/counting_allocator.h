#pragma once
// A counting global allocator for footprint tests.  Linking
// counting_allocator.cpp into a test binary replaces the global operator new
// and delete, so such a binary is built only without sanitizers (which
// intercept them).

#include <cstddef>

namespace finwork::heap {

/// Bytes allocated and not yet freed.
[[nodiscard]] std::size_t live_bytes() noexcept;
/// High-water mark of live_bytes() since the last reset_peak().
[[nodiscard]] std::size_t peak_bytes() noexcept;
/// Largest single allocation since the last reset_peak().
[[nodiscard]] std::size_t largest_block() noexcept;
/// Restarts the peak at the current live bytes and the largest block at 0.
void reset_peak() noexcept;

}  // namespace finwork::heap
