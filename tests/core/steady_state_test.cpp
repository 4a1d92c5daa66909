// Oracles for the steady state, read off one bordered Krylov solve of the
// jump chain P_K + Q_K R_K: a dense LU of the same bordered system, the
// fixed point p_ss Y_K R_K = p_ss applied through a direct level solve, and
// Buzen's product-form marginals for exponential networks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "cluster/builders.h"
#include "cluster/experiments.h"
#include "core/transient_solver.h"
#include "linalg/lu.h"
#include "linalg/matrix.h"
#include "network/state_space.h"
#include "pf/product_form.h"

namespace cluster = finwork::cluster;
namespace core = finwork::core;
namespace la = finwork::la;
namespace net = finwork::net;
namespace pf = finwork::pf;

namespace {

/// p_ss from a dense LU of B = I - P - Q R with its last column replaced by
/// ones: z B = e_D, p_ss = z (I - P), normalized.
la::Vector dense_steady_state(const net::LevelMatrices& lm) {
  const la::Matrix p = lm.p.to_dense();
  la::Matrix b = la::identity(p.rows()) - p - lm.q.to_dense() * lm.r.to_dense();
  const std::size_t last = b.cols() - 1;
  for (std::size_t i = 0; i < b.rows(); ++i) b(i, last) = 1.0;
  la::Vector e(b.rows(), 0.0);
  e[last] = 1.0;
  const la::Vector z = la::solve_left(b, e);
  la::Vector ss = z - z * p;
  ss /= ss.sum();
  return ss;
}

double max_abs_diff(const la::Vector& a, const la::Vector& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

/// Largest gap between the time-stationary station occupancy and Buzen's
/// marginals, over mean customers and utilization at every station.
double buzen_gap(const net::NetworkSpec& spec, std::size_t k) {
  const core::TransientSolver solver(spec, k);
  const auto occ =
      solver.station_occupancy(k, solver.time_stationary_distribution());
  const pf::ClosedNetworkResult conv = pf::convolution(spec, k);
  double gap = 0.0;
  for (std::size_t j = 0; j < spec.num_stations(); ++j) {
    gap = std::max(gap, std::abs(occ[j].mean_customers -
                                 conv.mean_queue_length[j]));
    gap = std::max(gap, std::abs(occ[j].utilization - conv.utilization[j]));
  }
  return gap;
}

}  // namespace

TEST(SteadyState, MatchesDenseLuOfTheBorderedJumpChain) {
  // Fig 5's model: central K = 8, both contention variants, the remote
  // disk at the ends of its C^2 range.
  for (const double scv : {1.0, 100.0}) {
    for (const cluster::Contention contention :
         {cluster::Contention::kShared, cluster::Contention::kNone}) {
      SCOPED_TRACE(testing::Message()
                   << "C2 " << scv << ", contention "
                   << (contention == cluster::Contention::kShared));
      cluster::ExperimentConfig cfg;
      cfg.workstations = 8;
      cfg.shapes.remote_disk = cluster::ServiceShape::from_scv(scv);
      cfg.contention = contention;
      const core::TransientSolver solver(cluster::build_cluster(cfg), 8);
      const core::SteadyStateResult& ss = solver.steady_state();
      ASSERT_TRUE(ss.converged);
      const la::Vector want = dense_steady_state(solver.space().level(8));
      EXPECT_LE(max_abs_diff(ss.distribution, want), 1e-12);
    }
  }
}

TEST(SteadyState, IsAFixedPointOfTheDepartureOperator) {
  // Distributed K = 6: level 6 (D = 3003) sits above the default
  // dense_threshold, so the model's own level solves are iterative.  The
  // steady state does not depend on them: T = Y_K R_K and tau'_K are taken
  // here from a direct LU of the same level, and t_ss agrees with
  // p_ss tau'_K to rounding, where the iterative tau'_K sits ~2e-11 low.
  cluster::ExperimentConfig cfg;
  cfg.architecture = cluster::Architecture::kDistributed;
  cfg.workstations = 6;
  const net::NetworkSpec spec = cluster::build_cluster(cfg);
  const core::TransientSolver solver(spec, 6);
  ASSERT_GT(solver.space().dimension(6), core::ModelOptions{}.dense_threshold);
  const core::SteadyStateResult& ss = solver.steady_state();
  ASSERT_TRUE(ss.converged);
  EXPECT_NEAR(ss.distribution.sum(), 1.0, 1e-14);

  core::ModelOptions direct;
  direct.dense_threshold = solver.space().dimension(6) + 1;
  const core::TransientSolver lu(spec, 6, direct);
  const la::Vector next = lu.apply_r(6, lu.apply_y(6, ss.distribution));
  EXPECT_LE(max_abs_diff(ss.distribution, next), 1e-12);
  const double t_ss = la::dot(ss.distribution, lu.tau(6));
  EXPECT_NEAR(ss.interdeparture, t_ss, 1e-13 * t_ss);
}

TEST(SteadyState, TimeStationaryMatchesBuzenMarginals) {
  const cluster::ApplicationModel app{};
  for (std::size_t k = 3; k <= 7; ++k) {
    SCOPED_TRACE(testing::Message() << "central K = " << k);
    EXPECT_LE(buzen_gap(cluster::central_cluster(k, app), k), 1e-12);
  }
  for (std::size_t k = 3; k <= 6; ++k) {
    SCOPED_TRACE(testing::Message() << "distributed K = " << k);
    EXPECT_LE(buzen_gap(cluster::distributed_cluster(k, app), k), 1e-12);
  }
}

// On an iterative level, tau'_K is a Neumann solve with the series' low
// bias; the second moment corrects it with one BiCGSTAB solve of its
// residual, so the inter-departure SCV agrees with a direct LU of the same
// level (the large_n model, distributed K = 6, iterative level 6).
TEST(SteadyState, InterdepartureScvMatchesDenseLuOnIterativeLevel) {
  cluster::ExperimentConfig cfg;
  cfg.architecture = cluster::Architecture::kDistributed;
  cfg.workstations = 6;
  const net::NetworkSpec spec = cluster::build_cluster(cfg);
  const core::TransientSolver iterative(spec, 6);
  ASSERT_GT(iterative.space().dimension(6),
            core::ModelOptions{}.dense_threshold);
  core::ModelOptions dense_opts;
  dense_opts.dense_threshold = 4000;
  const core::TransientSolver dense(spec, 6, dense_opts);
  const double want = dense.steady_state().interdeparture_scv;
  EXPECT_NEAR(iterative.steady_state().interdeparture_scv, want,
              1e-12 * want);
}
