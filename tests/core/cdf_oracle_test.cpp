// Independent oracle for the uniformization queries: the layered absorbing
// chain of a small central model is assembled as one dense generator G and
// exponentiated by la::expm (Padé scaling and squaring), so
//   P(T <= t) = 1 - p_0 exp(G t) eps,   R_k(t | pi) = pi exp(-B_k t) eps,
// with no uniformization, no Poisson weights and no block stepping.  The
// workloads cover N < K (drain only), N = K (no re-entry) and N > K, where
// the saturated blocks re-enter through R_K before the hand-off into the
// drain and absorption from level 1.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "cluster/experiments.h"
#include "core/transient_solver.h"
#include "linalg/expm.h"
#include "linalg/matrix.h"
#include "network/state_space.h"

namespace {

using namespace finwork;

constexpr std::size_t kK = 3;

core::TransientSolver make_solver() {
  cluster::ExperimentConfig cfg;
  cfg.workstations = kK;
  cfg.shapes.remote_disk = cluster::ServiceShape::hyperexponential(4.0);
  return core::TransientSolver(cluster::build_cluster(cfg), kK);
}

/// Adds rows(M) * a into g at (row, col): a departure or in-level rate block.
void add_scaled(la::Matrix& g, std::size_t row, std::size_t col,
                const la::Vector& rates, const la::Matrix& a) {
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      g(row + i, col + j) += rates[i] * a(i, j);
    }
  }
}

/// The in-level generator -B_k = -M_k (I - P_k), dense.
la::Matrix level_generator(const net::LevelMatrices& lm) {
  const std::size_t d = lm.event_rates.size();
  la::Matrix g(d, d, 0.0);
  add_scaled(g, 0, 0, lm.event_rates, lm.p.to_dense());
  for (std::size_t i = 0; i < d; ++i) g(i, i) -= lm.event_rates[i];
  return g;
}

/// pi exp(a t) eps.
double survival(const la::Vector& pi, const la::Matrix& a, double t) {
  la::Matrix at = a;
  at *= t;
  const la::Matrix e = la::expm(at);
  double total = 0.0;
  for (std::size_t i = 0; i < e.rows(); ++i) {
    for (std::size_t j = 0; j < e.cols(); ++j) total += pi[i] * e(i, j);
  }
  return total;
}

/// 1 - p_0 exp(G t) eps over the layered chain of `tasks` departures: block
/// b sits at level min(top, tasks - b); a departure from block b enters
/// block b + 1, through R_top while admissions remain.
std::vector<double> dense_cdf(const core::TransientSolver& solver,
                              std::size_t tasks,
                              const std::vector<double>& times) {
  const net::StateSpace& sp = solver.space();
  const std::size_t top = std::min(tasks, kK);
  std::vector<std::size_t> offset{0};
  for (std::size_t b = 0; b < tasks; ++b) {
    offset.push_back(offset.back() + sp.dimension(std::min(top, tasks - b)));
  }
  la::Matrix g(offset.back(), offset.back(), 0.0);
  const la::Matrix r_top = sp.level(top).r.to_dense();
  for (std::size_t b = 0; b < tasks; ++b) {
    const net::LevelMatrices& lm = sp.level(std::min(top, tasks - b));
    const la::Matrix in_level = level_generator(lm);
    for (std::size_t i = 0; i < in_level.rows(); ++i) {
      for (std::size_t j = 0; j < in_level.cols(); ++j) {
        g(offset[b] + i, offset[b] + j) = in_level(i, j);
      }
    }
    if (b + 1 == tasks) continue;  // level 1 departures absorb
    const la::Matrix q = lm.q.to_dense();
    add_scaled(g, offset[b], offset[b + 1], lm.event_rates,
               b < tasks - top ? q * r_top : q);
  }
  la::Vector p0(offset.back(), 0.0);
  const la::Vector start = sp.initial_vector(top);
  std::copy(start.begin(), start.end(), p0.begin());
  std::vector<double> cdf;
  for (double t : times) cdf.push_back(1.0 - survival(p0, g, t));
  return cdf;
}

TEST(CdfOracle, MakespanCdfMatchesDenseExpm) {
  const core::TransientSolver solver = make_solver();
  for (const std::size_t n : {std::size_t{2}, kK, std::size_t{5},
                              std::size_t{6}}) {
    const double mean = solver.makespan(n);
    const std::vector<double> times = {0.25 * mean, 0.6 * mean, mean,
                                       1.5 * mean, 2.5 * mean};
    const std::vector<double> got = solver.makespan_cdf(n, times);
    const std::vector<double> want = dense_cdf(solver, n, times);
    for (std::size_t i = 0; i < times.size(); ++i) {
      EXPECT_NEAR(got[i], want[i], 1e-10) << "N = " << n << ", t = " << times[i];
    }
    // The points span the body of the distribution, not just its tails.
    EXPECT_LT(want.front(), 0.5) << n;
    EXPECT_GT(want.back(), 0.5) << n;
  }
}

TEST(CdfOracle, EpochReliabilityMatchesDenseExpm) {
  const core::TransientSolver solver = make_solver();
  for (std::size_t k = 1; k <= kK; ++k) {
    const la::Vector pi = solver.space().initial_vector(k);
    const la::Matrix a = level_generator(solver.space().level(k));
    const double mean = solver.mean_epoch_time(k, pi);
    for (const double f : {0.1, 0.5, 1.0, 2.0, 6.0}) {
      EXPECT_NEAR(solver.epoch_reliability(k, pi, f * mean),
                  survival(pi, a, f * mean), 1e-10)
          << "k = " << k << ", t = " << f * mean;
    }
  }
  // From the saturated steady state, where re-entry has mixed the phases.
  const la::Vector& pss = solver.steady_state().distribution;
  const la::Matrix a = level_generator(solver.space().level(kK));
  for (const double t : {0.2, 1.0, 4.0}) {
    EXPECT_NEAR(solver.epoch_reliability(kK, pss, t), survival(pss, a, t),
                1e-10)
        << t;
  }
}

}  // namespace
