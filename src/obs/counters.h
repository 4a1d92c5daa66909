#pragma once
// Process-wide counter/gauge registry for the solver hot paths.
//
// Counters are monotonic event tallies (relaxed atomic adds); gauges are
// running maxima (CAS loop).  Both are identified by a fixed enum so the
// hot-path cost is a single indexed atomic operation — no hashing, no
// locks.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

// Inclusion marker, set by every obs header: hot-path headers
// (parallel/thread_pool.h, ...) must not drag the obs layer in, and
// tests/obs/hot_header_test.cpp checks this stays undefined after
// including them.
#define FINWORK_OBS_INCLUDED 1

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
  kConditionEstimates,   ///< condition estimates computed at factorization
  kTrajectoryReuses,     ///< grid passes served from a solver's saturated memo
  kSimdSweeps,           ///< Neumann sweeps run by the AVX-512 kernel
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

/// Bump `c` by `v`.
void counter_add(Counter c, std::uint64_t v = 1) noexcept;

/// Raise gauge `g` to at least `v` (running maximum since the last reset).
void gauge_raise(Gauge g, std::uint64_t v) noexcept;

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
