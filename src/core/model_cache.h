#pragma once
// Content-addressed sharing layer between model construction and query
// evaluation.
//
// ModelArtifacts owns everything about a (NetworkSpec, K) pair that is
// independent of the query: the reduced-product StateSpace, the per-level
// LU factorization of (I - P_k), the per-level tau'_k vectors, the drain
// vectors h_k and x_k (mean and half second moment of the time to empty
// level k) and the lazily transposed P_k^T.  It is immutable from the
// outside and safe to share across threads — every lazily-built piece is
// published through a once-flag or an acquire/release atomic — so any number
// of TransientSolver instances (e.g. the points of a figure sweep running
// under parallel_for) can evaluate the same model concurrently without
// rebuilding it.
//
// ModelCache maps a *canonical byte encoding* of the model inputs (station
// shapes at double precision, routing, contention, K, and the numeric
// backend options) to a shared ModelArtifacts.  Lookups hash the encoding
// but NEVER trust the hash: a hit requires byte equality of the full key, so
// a hash collision degrades to a miss-then-build, never to serving the wrong
// model (tested with a deliberately colliding hash function).  Concurrent
// requests for the same missing key are single-flighted: the first caller
// builds, the rest block on the same shared future.  Capacity is bounded
// with LRU eviction; evicted models stay alive for as long as any solver
// still holds its shared_ptr.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/transient_solver.h"
#include "linalg/lu.h"
#include "linalg/matrix.h"
#include "network/state_space.h"

namespace finwork::core {

/// Immutable shared model: state space + per-level solve artifacts.
///
/// The solve primitives mirror TransientSolver's private helpers; the
/// model options (dense_threshold, strict, max_condition) are fixed at
/// construction, which also prebuilds every level's matrices on the global
/// pool unless it runs on a pool worker.
class ModelArtifacts {
 public:
  ModelArtifacts(const net::NetworkSpec& spec, std::size_t workstations,
                 SolverOptions options = {});
  ~ModelArtifacts();
  ModelArtifacts(const ModelArtifacts&) = delete;
  ModelArtifacts& operator=(const ModelArtifacts&) = delete;
  ModelArtifacts(ModelArtifacts&&) = delete;
  ModelArtifacts& operator=(ModelArtifacts&&) = delete;

  [[nodiscard]] const net::StateSpace& space() const noexcept { return space_; }
  [[nodiscard]] std::size_t workstations() const noexcept { return k_; }
  [[nodiscard]] const SolverOptions& options() const noexcept { return opts_; }

  /// tau'_k = (I - P_k)^-1 M_k^-1 eps (built with the level on first use).
  [[nodiscard]] const la::Vector& tau(std::size_t k) const;
  /// x = pi (I - P_k)^-1 (row solve: dense LU or Neumann/BiCGSTAB).
  [[nodiscard]] la::Vector solve_left(std::size_t k, const la::Vector& pi) const;
  /// x = (I - P_k)^-1 b (column solve).
  [[nodiscard]] la::Vector solve_right(std::size_t k, const la::Vector& b) const;
  /// Two column solves, bit for bit the two solve_right(k, b) calls; an
  /// iterative level runs them through one paired Neumann pass.
  [[nodiscard]] std::array<la::Vector, 2> solve_right(
      std::size_t k, const la::Vector& b1, const la::Vector& b2) const;
  /// Mean drain time per state of Xi_k with no admissions left:
  ///   h_k = tau'_k + (I - P_k)^-1 Q_k h_{k-1},   h_0 = 0.
  [[nodiscard]] const la::Vector& drain_mean(std::size_t k) const;
  /// Half the second moment of the drain time per state of Xi_k:
  ///   x_k = (I - P_k)^-1 (M_k^-1 h_k + Q_k x_{k-1}),   x_0 = 0.
  [[nodiscard]] const la::Vector& drain_second(std::size_t k) const;
  /// Reciprocal condition estimate of level k's dense factorization of
  /// (I - P_k); 0 when the level is iterative or its factorization failed.
  [[nodiscard]] double level_rcond(std::size_t k) const;

 private:
  // Per-level artifacts.  Non-movable (once_flag, atomic), so levels_ is a
  // fixed array sized k_ + 1 at construction.
  struct Level {
    std::once_flag once;
    std::atomic<bool> prepared{false};
    std::optional<la::LuDecomposition> lu;
    /// P_k^T, the gather operator of left solves; built on the level's first
    /// left solve that reaches refinement or the iterative stage.
    std::once_flag pt_once;
    std::optional<la::CsrMatrix> pt;
    la::Vector tau;
    /// Reciprocal condition estimate of the factorization (0 = no LU).
    double rcond = 0.0;
    /// Ladder state: condition estimate breached max_condition, so every
    /// dense solve on this level runs iterative refinement.
    bool refine = false;
    /// Drain vectors h_k and x_k, each built on its first request.
    std::once_flag h_once;
    la::Vector h;
    std::once_flag x_once;
    la::Vector x;
  };

  /// Factorize (I - P_k) and build tau'_k exactly once; returns the level
  /// with `prepared` visible.
  const Level& prepared_level(std::size_t k) const;
  /// Fallback-ladder solve of x (I - P_k) = b (left) or (I - P_k) x = b
  /// (right) against an already-prepared level (no re-entry into
  /// prepared_level — call_once would self-deadlock).  Stages, in order:
  /// dense LU, iterative refinement, Neumann/BiCGSTAB/GMRES, shifted retry;
  /// throws finwork::SolverError when the whole ladder is exhausted.  See
  /// docs/ROBUSTNESS.md.
  la::Vector ladder_solve(const Level& lvl, std::size_t k, const la::Vector& b,
                          bool left) const;
  /// The operator every stage past the plain LU solve applies, as a serial
  /// gather: P_k^T for row solves (transposed once, on first use, so dense
  /// levels that never refine and column-only levels never store it), P_k
  /// for column solves.  `gather.apply(v)` is v P_k or P_k v respectively;
  /// below, `left` only picks the direction of the LU solves.
  const la::CsrMatrix& gather_operator(std::size_t k, bool left) const;
  /// The ladder past a Neumann stage that did not converge.
  la::Vector krylov_solve(std::size_t k, const la::CsrMatrix& gather,
                          const la::Vector& b, bool left) const;
  /// Refinement stage: correct `x` against the true operator until the
  /// residual meets the solve tolerance; false when the cap runs out.
  bool refine_solution(const Level& lvl, const la::CsrMatrix& gather,
                       const la::Vector& b, la::Vector& x, bool left) const;
  /// Rescue stage: shifted-operator Richardson iteration (dense levels
  /// re-factor I - P + sigma I; iterative levels run the shifted Neumann
  /// series).  Throws SolverError on failure.
  la::Vector rescue_solve(std::size_t k, const la::CsrMatrix& gather,
                          const la::Vector& b, bool left) const;

  net::StateSpace space_;
  std::size_t k_;
  SolverOptions opts_;
  mutable std::unique_ptr<Level[]> levels_;
  std::vector<std::future<void>> prebuild_;
};

/// Canonical byte encoding of the model inputs: a version tag, K, every
/// station (name, multiplicity, entrance vector and rate matrix of its
/// service distribution, bit-exact), the network's entry/routing/exit, and
/// the numeric backend options that shape the artifacts.  Two models get
/// the same key iff they are structurally identical and would build
/// identical artifacts.
[[nodiscard]] std::vector<std::uint8_t> canonical_model_key(
    const net::NetworkSpec& spec, std::size_t workstations,
    const SolverOptions& options = {});

/// FNV-1a 64-bit fingerprint of a canonical key (stable across runs).
[[nodiscard]] std::uint64_t model_fingerprint(
    std::span<const std::uint8_t> key) noexcept;

struct ModelCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t size = 0;      ///< models currently resident (incl. in-flight)
  std::size_t capacity = 0;
};

/// Bounded, thread-safe, content-addressed cache of ModelArtifacts.
class ModelCache {
 public:
  /// Test seam: replaces the fingerprint function (e.g. with a constant, to
  /// force collisions and prove byte-equality fallback).
  using HashFn = std::uint64_t (*)(std::span<const std::uint8_t>);

  static constexpr std::size_t kDefaultCapacity = 32;

  explicit ModelCache(std::size_t capacity = kDefaultCapacity,
                      HashFn hash = nullptr);

  /// Return the shared model for (spec, workstations, options), building it
  /// at most once per distinct key across all concurrent callers.  A build
  /// failure propagates to every waiter of that flight and leaves no cache
  /// entry behind.
  [[nodiscard]] std::shared_ptr<const ModelArtifacts> acquire(
      const net::NetworkSpec& spec, std::size_t workstations,
      SolverOptions options = {});

  [[nodiscard]] ModelCacheStats stats() const;
  /// Drop every entry (resident models survive via outstanding shared_ptrs).
  void clear();

  /// Process-wide cache used by the sweep drivers and the CLI.
  [[nodiscard]] static ModelCache& global();

 private:
  using ModelFuture = std::shared_future<std::shared_ptr<const ModelArtifacts>>;
  struct Entry {
    std::vector<std::uint8_t> key;
    std::uint64_t fingerprint = 0;
    ModelFuture model;
    bool ready = false;  ///< build finished; entry is evictable
  };

  void evict_over_capacity_locked();

  mutable std::mutex mutex_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_multimap<std::uint64_t, std::list<Entry>::iterator> index_;
  std::size_t capacity_;
  HashFn hash_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace finwork::core
