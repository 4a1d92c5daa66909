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
// A global state is one local code per station (see StationModel).  States
// are enumerated per level and indexed densely; matrices are CSR.

#include <cstddef>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/sparse.h"
#include "network/network_spec.h"
#include "network/station.h"

namespace finwork::net {

/// One global state: per-station local codes.
using GlobalState = std::vector<std::uint32_t>;

struct GlobalStateHash {
  std::size_t operator()(const GlobalState& s) const noexcept {
    // FNV-1a over the code words.
    std::size_t h = 1469598103934665603ULL;
    for (std::uint32_t w : s) {
      h ^= w;
      h *= 1099511628211ULL;
    }
    return h;
  }
};

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

  /// Number of states with exactly k customers, D(k).
  [[nodiscard]] std::size_t dimension(std::size_t k) const;
  /// The states of level k in index order.
  [[nodiscard]] const std::vector<GlobalState>& states(std::size_t k) const;
  /// Index of a state within its level.
  [[nodiscard]] std::size_t index_of(std::size_t k, const GlobalState& s) const;
  /// Customers at each station in state (k, idx).
  [[nodiscard]] std::vector<std::size_t> occupancy(std::size_t k,
                                                   std::size_t idx) const;
  /// Human-readable state description.
  [[nodiscard]] std::string describe(std::size_t k, std::size_t idx) const;

  /// Level matrices for population k (1 <= k <= K); built on first use.
  /// Thread-safe: concurrent callers for the same level block until one
  /// build completes.  A level of 4096 states or more, built off a pool
  /// worker, spreads its assembly over the pool, with the same bits.  A
  /// build that throws leaves the level unbuilt, so the next call retries.
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
  void build_level(std::size_t k) const;

  NetworkSpec spec_;
  std::size_t max_pop_;
  std::vector<StationModel> models_;
  std::vector<std::vector<GlobalState>> level_states_;
  std::vector<std::unordered_map<GlobalState, std::size_t, GlobalStateHash>>
      level_index_;
  mutable std::vector<LevelMatrices> level_matrices_;
  // One flag per level: call_once both serializes concurrent builders of the
  // same level and publishes the built matrices to later readers.
  mutable std::unique_ptr<std::once_flag[]> level_once_;
};

}  // namespace finwork::net
