#pragma once
// Deterministic fault-injection framework for the numerical-robustness layer.
//
// Every failure path of the fallback ladder (docs/ROBUSTNESS.md) has a
// *named site* where a forced failure can be armed: a factorization can be
// made to look singular, an iterative backend can be made to report
// non-convergence, a ModelCache build can be made to throw.  Tests arm a
// site for a bounded number of firings, trigger the code path, and assert
// that the next stage reproduced the healthy numbers or that the failure
// surfaced as the right SolverError — so these paths are exercised in CI
// instead of trusted on faith.
//
// The probes compile to `false` (zero code) unless the build enables
// FINWORK_FAULT_INJECT (CMake option, default OFF; see the debug-fault
// preset).  The control API stays declared in every build so tests link; it
// throws std::logic_error when the framework is compiled out.
//
// Sites are a fixed registry (see kFaultSites in fault_inject.cpp and the
// table in docs/ROBUSTNESS.md); arming an unknown site throws, so a typo in
// a test fails loudly instead of silently never firing.

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

// Inclusion marker: lets the compile-out test prove that hot-path headers do
// not drag the framework in (probes belong in .cpp files only).
#define FINWORK_FAULT_INJECT_INCLUDED 1

namespace finwork::check {

#if defined(FINWORK_FAULT_INJECT) && FINWORK_FAULT_INJECT
inline constexpr bool kFaultInjectEnabled = true;
#else
inline constexpr bool kFaultInjectEnabled = false;
#endif

namespace detail {
[[nodiscard]] bool should_fail_impl(std::string_view site) noexcept;
}  // namespace detail

/// Hot-path probe: true when an armed fault at `site` fires, consuming one
/// armed failure.  Always false — and zero generated code — when the
/// framework is compiled out.
[[nodiscard]] inline bool fault_at(std::string_view site) noexcept {
  if constexpr (kFaultInjectEnabled) return detail::should_fail_impl(site);
  return false;
}

/// The full site registry, in declaration order.
[[nodiscard]] std::vector<std::string_view> fault_sites();

/// Arm `site` to fire on its next `failures` probes.  Re-arming replaces the
/// remaining count.  Throws std::logic_error if the framework is compiled
/// out or `site` is not in the registry.
void arm_fault(std::string_view site, std::size_t failures = 1);

/// Cancel any remaining armed failures at `site` (unknown site throws).
void disarm_fault(std::string_view site);

/// Cancel every armed failure (safe no-op when compiled out).
void disarm_all_faults() noexcept;

/// Times `site` has actually fired since process start (0 when compiled
/// out; unknown site throws).
[[nodiscard]] std::uint64_t fault_fire_count(std::string_view site);

}  // namespace finwork::check
