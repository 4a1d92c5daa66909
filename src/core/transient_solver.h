#pragma once
// The paper's transient model: mean inter-departure times and makespan of a
// finite workload of N iid tasks on a closed network holding at most K of
// them, plus the steady-state limit p_ss Y_K R_K = p_ss.
//
// Everything is computed through *actions* on row vectors — Y_k and V_k are
// never formed:
//     pi Y_k   = (pi (I - P_k)^-1) Q_k
//     pi tau'_k with tau'_k = (I - P_k)^-1 (M_k^-1 eps)
// Small levels use a cached dense LU of (I - P_k); large levels fall back to
// matrix-free iterative solves on the CSR P_k (Neumann series, then BiCGSTAB
// and GMRES if the series converges too slowly).
//
// The saturated phase is one recursion, pi_{j+1} = pi_j Y_K R_K, with a
// warm-started resolvent and a mixing test that closes the remaining epochs
// analytically (fast-forward).  solve() and makespan_grid() both run it;
// makespan_moments_grid() runs its column (remaining-time) mirror.  The
// single-N queries makespan() and makespan_moments() are one-point grids.
//
// The expensive, query-independent pieces — the StateSpace and the per-level
// factorizations — live in a shared core::ModelArtifacts (model_cache.h), so
// many solver instances (e.g. the points of a figure sweep) can evaluate the
// same model without rebuilding it.

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "linalg/lu.h"
#include "linalg/matrix.h"
#include "network/state_space.h"

namespace finwork::core {

class ModelArtifacts;

/// The four solver knobs.  Three shape the model's artifacts and take part
/// in its cache key (dense_threshold, strict, max_condition); fast_forward
/// steers each query.  Solve tolerances and iteration caps are fixed
/// constants of the solver (model_cache.cpp, transient_solver.cpp).
struct SolverOptions {
  /// Use a dense LU of (I - P_k) when D(k) is at most this; iterative above.
  std::size_t dense_threshold = 3000;
  /// Close the saturated phase analytically once the epoch iterates have
  /// mixed to the steady state (see docs/PERFORMANCE.md).  Exact to solver
  /// precision; turn off to force the full epoch-by-epoch recursion.
  bool fast_forward = true;
  /// Fail-fast mode (docs/ROBUSTNESS.md): a degradation the fallback ladder
  /// would normally absorb — a singular dense factorization, a condition
  /// estimate beyond `max_condition`, an iterative backend that needs the
  /// shifted-retry rescue — throws finwork::SolverError instead.
  bool strict = false;
  /// Condition-number ceiling for dense factorizations of (I - P_k), as
  /// estimated by LuDecomposition::rcond_estimate (0 = unlimited).  Beyond
  /// it, strict mode throws and default mode routes every solve on that
  /// level through iterative refinement.
  double max_condition = 0.0;
};

/// Per-epoch output of the transient model.
struct DepartureTimeline {
  /// Mean inter-departure time of each epoch, epoch_times[i] = E[t_{i+1} - t_i]
  /// (size N; the first entry is the mean time to the first departure).
  std::vector<double> epoch_times;
  /// Cumulative mean departure instants (size N).
  std::vector<double> cumulative;
  /// Population in the system during each epoch (size N).
  std::vector<std::size_t> population;
  /// Total mean completion time E(T) of all N tasks.
  double makespan = 0.0;
  std::size_t workstations = 0;
  std::size_t tasks = 0;
};

/// First two moments of the total completion time (extension beyond the
/// paper, which reports means only).
struct MakespanMoments {
  double mean = 0.0;
  double second_moment = 0.0;
  double variance = 0.0;
  double std_dev = 0.0;
  double scv = 0.0;  ///< squared coefficient of variation of the makespan
};

/// Steady-state (infinite-backlog) limit of the departure process.
struct SteadyStateResult {
  la::Vector distribution;      ///< p_ss over Xi_K (embedded, at departures)
  double interdeparture = 0.0;  ///< t_ss = p_ss tau'_K
  double throughput = 0.0;      ///< 1 / t_ss
  /// Squared coefficient of variation of a steady-state inter-departure
  /// gap started from p_ss — the burstiness of the output process
  /// (extension; 1 would be a Poisson-like output).
  double interdeparture_scv = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
};

/// Transient solver over a network's reduced-product state space.
///
/// A solver instance is cheap when it shares a prebuilt ModelArtifacts; it is
/// not itself thread-safe (steady-state results are memoized per instance) —
/// concurrent sweep points should each own a solver over the shared model.
class TransientSolver {
 public:
  /// `workstations` is K: the number of tasks held in service concurrently.
  /// Builds a private ModelArtifacts for the spec.
  TransientSolver(const net::NetworkSpec& spec, std::size_t workstations,
                  SolverOptions options = {});
  /// Evaluate over a shared (typically ModelCache-owned) model.  The model's
  /// options (dense_threshold, strict, max_condition) were fixed when the
  /// artifacts were built; of `options` only fast_forward takes effect.
  explicit TransientSolver(std::shared_ptr<const ModelArtifacts> model,
                           SolverOptions options = {});
  ~TransientSolver();
  TransientSolver(const TransientSolver&) = delete;
  TransientSolver& operator=(const TransientSolver&) = delete;
  TransientSolver(TransientSolver&&) = delete;
  TransientSolver& operator=(TransientSolver&&) = delete;

  [[nodiscard]] const net::StateSpace& space() const noexcept;
  [[nodiscard]] std::size_t workstations() const noexcept { return k_; }
  [[nodiscard]] const SolverOptions& options() const noexcept { return opts_; }
  /// The shared model this solver evaluates.
  [[nodiscard]] const std::shared_ptr<const ModelArtifacts>& model()
      const noexcept {
    return model_;
  }

  /// tau'_k: mean time to the next system departure from each state of Xi_k.
  [[nodiscard]] const la::Vector& tau(std::size_t k) const;
  /// Action of the departure operator: pi over Xi_k -> pi Y_k over Xi_{k-1}.
  /// Probability mass is preserved (Y_k is stochastic).
  [[nodiscard]] la::Vector apply_y(std::size_t k, const la::Vector& pi) const;
  /// Action of the entrance operator: pi over Xi_{k-1} -> pi R_k over Xi_k.
  [[nodiscard]] la::Vector apply_r(std::size_t k, const la::Vector& pi) const;
  /// Mean time to the next departure from mixed state pi at level k.
  [[nodiscard]] double mean_epoch_time(std::size_t k, const la::Vector& pi) const;
  /// Second raw moment of the time to the next departure: 2 pi V_k^2 eps.
  [[nodiscard]] double epoch_second_moment(std::size_t k,
                                           const la::Vector& pi) const;
  /// P(next departure later than t | state pi): pi exp(-t B_k) eps,
  /// computed by uniformization on the level's sparse matrices.
  [[nodiscard]] double epoch_reliability(std::size_t k, const la::Vector& pi,
                                         double t) const;

  /// The paper's p_K: state distribution after the initial fill.
  [[nodiscard]] la::Vector initial_vector() const;

  /// Full transient solution for a workload of `tasks` (N >= 1): the
  /// saturated recursion forward, then the draining levels forward.  When
  /// N < K only N tasks ever coexist, matching the paper's remark that such
  /// jobs run on an N-sized cluster.
  [[nodiscard]] DepartureTimeline solve(std::size_t tasks) const;

  /// Mean makespan E(T) only: makespan_grid({tasks})[0], with no per-epoch
  /// storage.
  [[nodiscard]] double makespan(std::size_t tasks) const;

  /// E(T) for every workload size in `tasks` from ONE pass of the saturated
  /// recursion, the same one solve() runs: workload K + j is harvested at
  /// iterate j as the mean time of the epochs already closed plus pi_j h_K,
  /// where h_K (the mean drain time per state) is the model's drain vector,
  /// cached per model.  Agrees with solve(N).makespan to solver precision
  /// and composes with fast_forward (post-mixing points close with the
  /// arithmetic-series identities).  `tasks` need not be sorted or unique;
  /// results align with the input order.
  [[nodiscard]] std::vector<double> makespan_grid(
      std::span<const std::size_t> tasks) const;

  /// Mean AND variance of the makespan: makespan_moments_grid({tasks})[0].
  [[nodiscard]] MakespanMoments makespan_moments(std::size_t tasks) const;

  /// Moments for every workload size in `tasks` from one pass of the
  /// admission recursion, treating the whole finite-workload process as one
  /// absorbing chain and back-substituting its block bidiagonal structure
  /// (extension; see DESIGN.md).  The means agree with makespan_grid to
  /// solver precision.
  [[nodiscard]] std::vector<MakespanMoments> makespan_moments_grid(
      std::span<const std::size_t> tasks) const;

  /// Full distribution of the makespan: P(T <= t) for each requested time,
  /// by uniformization of the layered absorbing chain (extension).  One
  /// discrete pass covers all time points; `times` need not be sorted.
  /// Accuracy ~1e-10 plus uniformization truncation at the largest time.
  [[nodiscard]] std::vector<double> makespan_cdf(
      std::size_t tasks, const std::vector<double>& times) const;
  /// Single-point convenience overload.
  [[nodiscard]] double makespan_cdf(std::size_t tasks, double time) const;

  /// Expected customers present and in service at each station under the
  /// mixed state `pi` over Xi_k.  With the steady-state distribution this
  /// yields the utilizations/queue lengths the product-form solvers report
  /// (exactly equal for exponential networks; tested).
  struct StationOccupancy {
    double mean_customers = 0.0;  ///< E[n_j]
    double mean_in_service = 0.0; ///< E[busy servers at j]
    double utilization = 0.0;     ///< mean_in_service / multiplicity
  };
  [[nodiscard]] std::vector<StationOccupancy> station_occupancy(
      std::size_t k, const la::Vector& pi) const;

  /// Steady-state departure process: fixed point of Y_K R_K.  Note that
  /// `distribution` is the state seen at *departure epochs* (the embedded
  /// chain), which is what the epoch recursion needs.
  [[nodiscard]] const SteadyStateResult& steady_state() const;

  /// Lag-1 autocovariance and correlation of successive steady-state
  /// inter-departure gaps: E[T1 T2] = p_ss V_K Y_K R_K tau'_K (extension).
  /// Zero for memoryless outputs (e.g. a saturated exponential server);
  /// positive when a slow shared device makes consecutive gaps drag.
  struct DepartureCorrelation {
    double covariance = 0.0;
    double correlation = 0.0;  ///< covariance / variance of a gap
  };
  [[nodiscard]] DepartureCorrelation steady_state_lag1() const;

  /// Time-stationary distribution of the saturated system (level K with
  /// instant replacement): what an outside observer sees at a random time.
  /// Differs from steady_state().distribution because departures are not
  /// Poisson; use THIS with station_occupancy for time-averaged queue
  /// lengths and utilizations (it reproduces the product-form marginals
  /// exactly for exponential networks — tested).
  [[nodiscard]] const la::Vector& time_stationary_distribution() const;

 private:
  std::shared_ptr<const ModelArtifacts> model_;
  std::size_t k_;
  SolverOptions opts_;
  mutable std::optional<SteadyStateResult> steady_;
  mutable std::optional<la::Vector> time_stationary_;
};

}  // namespace finwork::core
