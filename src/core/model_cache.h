#pragma once
// Content-addressed sharing layer between model construction and query
// evaluation.
//
// ModelArtifacts owns everything about a (NetworkSpec, K) pair that is
// independent of the query: the reduced-product StateSpace, the per-level
// LU factorization of (I - P_k), the per-level tau'_k vectors, the drain
// vectors h_k and x_k (mean and half second moment of the time to empty
// level k) and the lazily built grouped gather operators of P_k and P_k^T.
// Each column solve, one column per call, takes an optional start: an
// iterative level then solves only for the correction from it, which is how
// the moments admission loop turns a mixing trajectory into short series.
// It is immutable from the outside and safe to share across threads — every
// lazily-built piece is a par::OnceCell — so any number of TransientSolver
// instances (e.g. the points of a figure sweep running under parallel_for)
// can evaluate the same model concurrently without rebuilding it.
//
// ModelCache maps a *canonical byte encoding* of the model inputs (station
// shapes at double precision, routing, contention, K, and the model options)
// to a shared ModelArtifacts: one mutex-guarded ordered map from the full key
// bytes to an LRU list entry, so a hit is byte equality of the whole key.  A
// miss builds outside the lock; building only enumerates the state space
// (levels are built later, once, on first use), so two concurrent misses of
// one key each enumerate it and the second insert returns the first model.
// Capacity is bounded with LRU eviction; evicted models stay alive for as
// long as any solver still holds its shared_ptr.

#include <array>
#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/transient_solver.h"
#include "linalg/lu.h"
#include "linalg/matrix.h"
#include "linalg/sparse.h"
#include "network/state_space.h"
#include "parallel/once_cell.h"

namespace finwork::core {

/// Immutable shared model: state space + per-level solve artifacts.
///
/// The solve primitives mirror TransientSolver's private helpers; the
/// ModelOptions are fixed at construction.  Construction enumerates the
/// state space only: each level's matrices, factorization and drain vectors
/// are built on first use, exactly once, by whichever thread asks first.
class ModelArtifacts {
 public:
  ModelArtifacts(const net::NetworkSpec& spec, std::size_t workstations,
                 ModelOptions options = {});
  ModelArtifacts(const ModelArtifacts&) = delete;
  ModelArtifacts& operator=(const ModelArtifacts&) = delete;
  ModelArtifacts(ModelArtifacts&&) = delete;
  ModelArtifacts& operator=(ModelArtifacts&&) = delete;

  [[nodiscard]] const net::StateSpace& space() const noexcept { return space_; }
  [[nodiscard]] std::size_t workstations() const noexcept { return k_; }

  /// tau'_k = (I - P_k)^-1 M_k^-1 eps (built with the level on first use).
  [[nodiscard]] const la::Vector& tau(std::size_t k) const;
  /// x = pi (I - P_k)^-1 (row solve: dense LU or Neumann/BiCGSTAB/GMRES).
  [[nodiscard]] la::Vector solve_left(std::size_t k, const la::Vector& pi) const;
  /// x = (I - P_k)^-1 b (column solve).  A non-empty `start` is a guess
  /// x^ of x: an iterative level runs its ladder on the residual
  /// r = b - x^ + P_k x^ and returns x^ + (I - P_k)^-1 r, so a close guess
  /// leaves a short Neumann series.  A dense level ignores the start (its LU
  /// solve is exact either way), so dense models keep every bit.
  [[nodiscard]] la::Vector solve_right(std::size_t k, const la::Vector& b,
                                       const la::Vector& start = {}) const;
  /// Mean drain time per state of Xi_k with no admissions left:
  ///   h_k = tau'_k + (I - P_k)^-1 Q_k h_{k-1},   h_0 = 0.
  [[nodiscard]] const la::Vector& drain_mean(std::size_t k) const;
  /// Half the second moment of the drain time per state of Xi_k:
  ///   x_k = (I - P_k)^-1 (M_k^-1 h_k + Q_k x_{k-1}),   x_0 = 0.
  [[nodiscard]] const la::Vector& drain_second(std::size_t k) const;
  /// Condition number kappa_inf of level k's (I - P_k), exact on a dense
  /// level (||I - P_k||_inf ||(I - P_k)^-1 e||_inf, as the inverse is
  /// nonnegative); 0 when the level is iterative.
  [[nodiscard]] double level_condition(std::size_t k) const;
  /// Entries kept by level k's factorization of (I - P_k), its diagonal
  /// included (la::LuDecomposition::stored_entries); 0 when the level is
  /// iterative.
  [[nodiscard]] std::size_t level_factor_entries(std::size_t k) const;

 private:
  /// A level's backend and tau'_k, built together: the dense LU of
  /// (I - P_k) and its kappa_inf when D(k) <= dense_threshold, else none.
  struct Prepared {
    std::optional<la::LuDecomposition> lu;
    la::Vector tau;
    double condition = 0.0;
  };
  /// Per-level cells (non-movable, so levels_ is a fixed array of k_ + 1):
  /// the backend, the gather operators P_k^T [0] and P_k [1] (each built on
  /// the first iterative solve in its direction) and the drain vectors.
  struct Level {
    par::OnceCell<Prepared> prepared;
    std::array<par::OnceCell<la::GatherMatrix>, 2> gather;
    par::OnceCell<la::Vector> h;
    par::OnceCell<la::Vector> x;
  };

  /// The level's Prepared, built on first use.  A failed factorization
  /// throws its SolverError with the level attached, and a dense level whose
  /// kappa_inf exceeds max_condition throws SolverError(kIllConditioned,
  /// kLuFactorize); either way the level stays unbuilt.
  const Prepared& prepared_level(std::size_t k) const;
  /// Fallback-ladder solve of x (I - P_k) = b (left) or (I - P_k) x = b
  /// (right) against level k's backend `lvl`.  Two stages: the level's
  /// dense LU, or Neumann -> la::krylov_solve, which throws
  /// SolverError(kNonConvergence, kGmres) when GMRES is exhausted too.  See
  /// docs/ROBUSTNESS.md.
  la::Vector ladder_solve(const Prepared& lvl, std::size_t k,
                          const la::Vector& b, bool left) const;
  /// The operator the iterative stage applies, as a serial grouped gather
  /// (la::GatherMatrix): P_k^T for row solves, P_k for column solves, each
  /// built once, on first use, so dense levels hold neither and a level
  /// keeps only the directions it solves in.  `gather.apply(v)` is v P_k or
  /// P_k v respectively.
  const la::GatherMatrix& gather_operator(std::size_t k, bool left) const;

  net::StateSpace space_;
  std::size_t k_;
  ModelOptions opts_;
  mutable std::unique_ptr<Level[]> levels_;
};

/// Canonical byte encoding of the model inputs: a version tag, K, every
/// station (name, multiplicity, entrance vector and rate matrix of its
/// service distribution, bit-exact), the network's entry/routing/exit, and
/// every ModelOptions field.  Two models get the same key iff they are
/// structurally identical and would build identical artifacts.
[[nodiscard]] std::vector<std::uint8_t> canonical_model_key(
    const net::NetworkSpec& spec, std::size_t workstations,
    const ModelOptions& options = {});

struct ModelCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t size = 0;      ///< models currently resident
  std::size_t capacity = 0;
};

/// Bounded, thread-safe, content-addressed cache of ModelArtifacts.
class ModelCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 32;

  explicit ModelCache(std::size_t capacity = kDefaultCapacity);

  /// Return the shared model for (spec, workstations, options), building it
  /// on a miss.  Concurrent misses of one key may each build, but all of
  /// them return the model that was inserted first.  A build failure
  /// propagates to its caller and inserts nothing.
  [[nodiscard]] std::shared_ptr<const ModelArtifacts> acquire(
      const net::NetworkSpec& spec, std::size_t workstations,
      ModelOptions options = {});

  [[nodiscard]] ModelCacheStats stats() const;
  /// Drop every entry (resident models survive via outstanding shared_ptrs).
  void clear();

  /// Process-wide cache used by the sweep drivers and the CLI.
  [[nodiscard]] static ModelCache& global();

 private:
  using Key = std::vector<std::uint8_t>;
  /// Keys by length, then bytes: the total order the index needs (the
  /// vector's own operator<=> trips GCC 12's -Wstringop-overread at -O3).
  struct KeyLess {
    bool operator()(const Key& a, const Key& b) const noexcept;
  };
  struct Entry {
    Key key;
    std::shared_ptr<const ModelArtifacts> model;
  };

  mutable std::mutex mutex_;
  std::list<Entry> lru_;  // front = most recently used
  std::map<Key, std::list<Entry>::iterator, KeyLess> index_;
  std::size_t capacity_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace finwork::core
