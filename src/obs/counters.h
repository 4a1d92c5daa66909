#pragma once
// Process-wide counter/gauge registry for the solver hot paths.
//
// Counters are monotonic event tallies (relaxed atomic adds); gauges are
// running maxima (CAS loop).  Both are identified by a fixed enum so the
// hot-path cost is a single indexed atomic operation — no hashing, no
// locks.  The inline wrappers compile to nothing when the observability
// layer is disabled (see obs_config.h); the read-side API stays live so
// exporters and tests always link.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs_config.h"

namespace finwork::obs {

enum class Counter : std::size_t {
  kLuFactorizations,     ///< dense LU factorizations performed (any dim)
  kLuReuseHits,          ///< prepared_level served from the per-level cache
  kDenseSolves,          ///< row/column solves through a cached LU
  kIterativeSolves,      ///< matrix-free solves (Neumann and/or BiCGSTAB)
  kNeumannIterations,    ///< total Neumann-series terms applied
  kBicgstabIterations,   ///< total BiCGSTAB iterations
  kGmresIterations,      ///< total GMRES operator applications
  kEpochRecursions,      ///< saturated advances, plus solve()'s drain epochs
  kFastForwardActivations,  ///< saturated loops closed analytically
  kEpochsSkipped,        ///< epochs closed by fast-forward instead of applied
  kParallelSpmvChunks,   ///< row panels dispatched by parallel CSR actions
  kLevelsBuilt,          ///< state-space level matrix assemblies
  kStatesEnumerated,     ///< states enumerated across all levels
  kKronProducts,         ///< dense Kronecker products formed
  kPoolTasksExecuted,    ///< ThreadPool tasks run to completion
  kPoolTaskWaitNs,       ///< total enqueue-to-dequeue latency (ns)
  kSimReplications,      ///< simulator single-run replications
  kInvariantChecks,      ///< invariant checker entries
  kInvariantViolations,  ///< invariant violations raised
  kTraceEventsDropped,   ///< spans and structured events discarded by a
                         ///< full thread buffer or the full event sink
  kModelCacheHits,       ///< ModelCache lookups served by an existing model
  kModelCacheMisses,     ///< ModelCache lookups that built a new model
  kModelCacheEvictions,  ///< models evicted by the LRU capacity bound
  kGridPointsPerPass,    ///< N-grid points harvested by single-pass sweeps
  kFallbackActivations,  ///< fallback-ladder stages entered after a failure
  kRefinementIters,      ///< iterative-refinement correction steps applied
  kConditionEstimates,   ///< condition estimates computed at factorization
  kTrajectoryReuses,     ///< grid passes served from a solver's saturated memo
  kCount
};

enum class Gauge : std::size_t {
  kMaxLevelDimension,  ///< largest state-space dimension D(k) assembled
  kMaxQueueDepth,      ///< deepest ThreadPool backlog observed
  kCount
};

/// Stable dotted name, e.g. "solver.lu_reuse_hits".
[[nodiscard]] std::string_view counter_name(Counter c) noexcept;
[[nodiscard]] std::string_view gauge_name(Gauge g) noexcept;

namespace detail {
void counter_add_impl(Counter c, std::uint64_t v) noexcept;
void gauge_raise_impl(Gauge g, std::uint64_t v) noexcept;
}  // namespace detail

/// Bump `c` by `v`.  No-op (and zero code) when the layer is disabled.
inline void counter_add(Counter c, std::uint64_t v = 1) noexcept {
  if constexpr (kEnabled) detail::counter_add_impl(c, v);
}

/// Raise gauge `g` to at least `v` (running maximum since the last reset).
inline void gauge_raise(Gauge g, std::uint64_t v) noexcept {
  if constexpr (kEnabled) detail::gauge_raise_impl(g, v);
}

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

/// Current value of one counter/gauge.
[[nodiscard]] std::uint64_t counter_value(Counter c) noexcept;
[[nodiscard]] std::uint64_t gauge_value(Gauge g) noexcept;

/// Every counter, then every gauge, in declaration order (zeros included).
[[nodiscard]] std::vector<CounterSnapshot> counters_snapshot();

/// Zero every counter and gauge (tests and the CLI between runs).
void counters_reset() noexcept;

}  // namespace finwork::obs
