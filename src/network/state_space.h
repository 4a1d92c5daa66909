#pragma once
// Reduced-product state space and the per-population-level matrices of the
// paper's Section 4/5: for each k in 1..K,
//   M_k : completion-rate diagonal (total event rate of each state),
//   P_k : embedded internal-transition probabilities (population stays k),
//   Q_k : exit probabilities into level k-1 (a task leaves the system),
//   R_k : entrance probabilities from level k-1 into level k.
// Row invariant: P_k eps + Q_k eps = eps (something always happens next);
// R_k is stochastic.
//
// A global state is one local code per station.  Each station's StationModel
// holds, per local code, its customers, activities and arrival moves; the
// assembly reads them from there and keeps no copy.  Each level keeps its
// states in one flat array, num_stations codes per state, in lexicographic
// order of (c_0, ..., c_{s-1}) — the order the enumeration produces them
// in.  A state's index is its lexicographic rank, computed in
// O(stations) from per-station tables N(j, r) (the ways to place r customers
// on stations j..s-1), so the level needs no index map and D(k) = N(0, k) is
// known before enumeration (docs/PERFORMANCE.md §10).  Matrices are CSR.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/sparse.h"
#include "network/network_spec.h"
#include "network/station.h"
#include "parallel/once_cell.h"

namespace finwork::net {

/// Matrices of one population level k.
struct LevelMatrices {
  std::size_t level = 0;          ///< k
  la::Vector event_rates;         ///< diag of M_k (dimension D(k))
  double max_event_rate = 0.0;    ///< max of event_rates, cached at build time
  la::CsrMatrix p;                ///< P_k, D(k) x D(k)
  la::CsrMatrix q;                ///< Q_k, D(k) x D(k-1)
  la::CsrMatrix r;                ///< R_k, D(k-1) x D(k)
};

/// The reduced-product state space of a network for populations 0..K,
/// with level matrices built lazily and cached.
class StateSpace {
 public:
  StateSpace(const NetworkSpec& spec, std::size_t max_population);

  [[nodiscard]] const NetworkSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::size_t max_population() const noexcept { return max_pop_; }
  [[nodiscard]] std::size_t num_stations() const noexcept {
    return models_.size();
  }
  [[nodiscard]] const StationModel& model(std::size_t j) const {
    return models_.at(j);
  }

  /// Number of states with exactly k customers, D(k) = N(0, k).
  [[nodiscard]] std::size_t dimension(std::size_t k) const;
  /// State i of level k: one local code per station.  Throws
  /// std::out_of_range for a level or index out of range.
  [[nodiscard]] std::span<const std::uint32_t> state(std::size_t k,
                                                     std::size_t i) const;
  /// Index of a state within level k: its lexicographic rank.  Throws
  /// std::out_of_range for a state of the wrong length, a code out of range
  /// or a population other than k.
  [[nodiscard]] std::size_t index_of(std::size_t k,
                                     std::span<const std::uint32_t> s) const;
  /// Customers at each station in state (k, idx).
  [[nodiscard]] std::vector<std::size_t> occupancy(std::size_t k,
                                                   std::size_t idx) const;
  /// Human-readable state description.
  [[nodiscard]] std::string describe(std::size_t k, std::size_t idx) const;

  /// Level matrices for population k (1 <= k <= K); built on first use.
  /// Thread-safe (par::OnceCell): concurrent callers for the same level
  /// block until one build completes.  The build is one serial pass on the
  /// calling thread, row by row into CSR.  A build that throws leaves the
  /// level unbuilt, so the next call builds it again.
  [[nodiscard]] const LevelMatrices& level(std::size_t k) const;

  /// The paper's initial vector p_K = p R_2 R_3 ... R_K: the state
  /// distribution right after the first K tasks have streamed in.
  [[nodiscard]] la::Vector initial_vector(std::size_t k) const;

  /// Closed-form reduced-product dimension C(M + k - 1, k) for M
  /// single-phase stations — the paper's D_RP; used in tests to check the
  /// enumeration, valid when every station has one phase.
  [[nodiscard]] static std::size_t reduced_product_dimension(
      std::size_t stations, std::size_t customers);

 private:
  void enumerate_level(std::size_t k);
  [[nodiscard]] LevelMatrices build_level(std::size_t k) const;
  /// N(j, r): the ways to place r customers on stations j..s-1.
  [[nodiscard]] std::size_t ways(std::size_t j, std::size_t r) const noexcept {
    return ways_[j * (max_pop_ + 1) + r];
  }
  /// How many placements of r customers on stations j..s-1 put fewer than
  /// n at station j.
  [[nodiscard]] std::size_t below(std::size_t j, std::size_t r,
                                  std::size_t n) const noexcept {
    return below_[(j * (max_pop_ + 1) + r) * (max_pop_ + 1) + n];
  }
  /// Rank of a valid state of level k within its level.
  [[nodiscard]] std::size_t rank(std::size_t k,
                                 const std::uint32_t* codes) const noexcept;

  NetworkSpec spec_;
  std::size_t max_pop_;
  std::vector<StationModel> models_;
  std::vector<std::size_t> ways_;   // (stations + 1) x (K + 1)
  std::vector<std::size_t> below_;  // stations x (K + 1) x (K + 1)
  std::vector<std::vector<std::uint32_t>> level_codes_;
  // One cell per level (index 0 unused).
  mutable std::unique_ptr<par::OnceCell<LevelMatrices>[]> levels_;
};

}  // namespace finwork::net
