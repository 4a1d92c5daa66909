// Property-based invariants swept across the whole configuration grid:
// architecture x cluster size x service shape.  These are the model's laws —
// anything here failing means a real defect, independent of calibration.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "cluster/experiments.h"
#include "core/metrics.h"
#include "core/transient_solver.h"

namespace cluster = finwork::cluster;
namespace core = finwork::core;
namespace la = finwork::la;

namespace {

using Param = std::tuple<int /*arch*/, std::size_t /*K*/, double /*cpu scv*/,
                         double /*remote scv*/>;

cluster::ExperimentConfig make_config(const Param& p) {
  cluster::ExperimentConfig cfg;
  cfg.architecture = std::get<0>(p) == 0 ? cluster::Architecture::kCentral
                                         : cluster::Architecture::kDistributed;
  cfg.workstations = std::get<1>(p);
  if (std::get<2>(p) != 1.0) {
    cfg.shapes.cpu = cluster::ServiceShape::from_scv(std::get<2>(p));
  }
  if (std::get<3>(p) != 1.0) {
    cfg.shapes.remote_disk = cluster::ServiceShape::from_scv(std::get<3>(p));
  }
  return cfg;
}

class ModelInvariants : public ::testing::TestWithParam<Param> {
 protected:
  ModelInvariants()
      : config_(make_config(GetParam())),
        solver_(cluster::build_cluster(config_), config_.workstations) {}
  cluster::ExperimentConfig config_;
  core::TransientSolver solver_;
};

}  // namespace

TEST_P(ModelInvariants, EpochTimesPositiveAndFinite) {
  const auto tl = solver_.solve(2 * config_.workstations + 3);
  for (double t : tl.epoch_times) {
    EXPECT_GT(t, 0.0);
    EXPECT_TRUE(std::isfinite(t));
  }
}

TEST_P(ModelInvariants, ProbabilityFlowsConserved) {
  la::Vector pi = solver_.initial_vector();
  EXPECT_NEAR(pi.sum(), 1.0, 1e-10);
  for (std::size_t k = config_.workstations; k >= 1; --k) {
    pi = solver_.apply_y(k, pi);
    EXPECT_NEAR(pi.sum(), 1.0, 1e-9) << "level " << k;
    for (std::size_t i = 0; i < pi.size(); ++i) EXPECT_GE(pi[i], -1e-12);
  }
}

TEST_P(ModelInvariants, MakespanMonotoneInWorkload) {
  double prev = 0.0;
  for (std::size_t n = 1; n <= 3 * config_.workstations; ++n) {
    const double m = solver_.makespan(n);
    EXPECT_GT(m, prev) << "N = " << n;
    prev = m;
  }
}

TEST_P(ModelInvariants, MakespanSuperadditiveLowerBound) {
  // E(T; N) >= N * t_ss (the saturated rate bounds every epoch below) and
  // E(T; N) <= N * E(single task) (parallelism can only help).
  const double t_ss = solver_.steady_state().interdeparture;
  const double single =
      cluster::build_cluster(config_).single_customer().mean_task_time;
  for (std::size_t n :
       {config_.workstations, 2 * config_.workstations + 1}) {
    const double m = solver_.makespan(n);
    EXPECT_GE(m, static_cast<double>(n) * t_ss - 1e-9) << n;
    EXPECT_LE(m, static_cast<double>(n) * single + 1e-9) << n;
  }
}

TEST_P(ModelInvariants, SpeedupWithinPhysicalBounds) {
  const double sp = cluster::cluster_speedup(config_, 40);
  EXPECT_GE(sp, 1.0 - 1e-9);
  EXPECT_LE(sp, static_cast<double>(config_.workstations) + 1e-9);
}

TEST_P(ModelInvariants, SteadyStateIsFixedPointWithSaneScv) {
  const core::SteadyStateResult& ss = solver_.steady_state();
  const la::Vector cycled = solver_.apply_r(
      config_.workstations, solver_.apply_y(config_.workstations,
                                            ss.distribution));
  EXPECT_TRUE(la::allclose(cycled, ss.distribution, 1e-7, 1e-9));
  EXPECT_GT(ss.interdeparture_scv, 0.0);
  EXPECT_LT(ss.interdeparture_scv, 50.0);
}

TEST_P(ModelInvariants, MomentsConsistent) {
  const std::size_t n = 2 * config_.workstations + 2;
  const core::MakespanMoments mm = solver_.makespan_moments(n);
  EXPECT_NEAR(mm.mean, solver_.makespan(n), 1e-8 * mm.mean);
  EXPECT_GE(mm.variance, 0.0);
  EXPECT_GE(mm.second_moment, mm.mean * mm.mean);
}

TEST_P(ModelInvariants, CdfBracketsTheMean) {
  const std::size_t n = config_.workstations + 2;
  const core::MakespanMoments mm = solver_.makespan_moments(n);
  // F is a genuine distribution around the mean.
  const double below = solver_.makespan_cdf(n, 0.2 * mm.mean);
  const double above = solver_.makespan_cdf(n, 3.0 * mm.mean);
  EXPECT_LT(below, 0.5);
  EXPECT_GT(above, 0.9);
}

TEST_P(ModelInvariants, OccupancySumsToPopulationEverywhere) {
  const auto check = [&](const la::Vector& pi) {
    const auto occ =
        solver_.station_occupancy(config_.workstations, pi);
    double total = 0.0, busy = 0.0;
    for (const auto& o : occ) {
      total += o.mean_customers;
      busy += o.mean_in_service;
      EXPECT_GE(o.utilization, -1e-12);
      EXPECT_LE(o.utilization, 1.0 + 1e-9);
    }
    EXPECT_NEAR(total, static_cast<double>(config_.workstations), 1e-8);
    EXPECT_LE(busy, total + 1e-9);
  };
  check(solver_.initial_vector());
  check(solver_.steady_state().distribution);
  check(solver_.time_stationary_distribution());
}

TEST_P(ModelInvariants, RegionsPartitionTheRun) {
  const std::size_t n = 3 * config_.workstations;
  const auto tl = solver_.solve(n);
  const auto ra =
      core::classify_regions(tl, solver_.steady_state().interdeparture);
  EXPECT_NEAR(
      ra.transient_fraction + ra.steady_fraction + ra.draining_fraction, 1.0,
      1e-10);
  EXPECT_LE(ra.steady_begin, ra.drain_begin);
  EXPECT_EQ(ra.regions.size(), n);
}

namespace {

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  const int arch = std::get<0>(info.param);
  const std::size_t k = std::get<1>(info.param);
  const double cpu = std::get<2>(info.param);
  const double remote = std::get<3>(info.param);
  return std::string(arch == 0 ? "central" : "dist") + "_K" +
         std::to_string(k) + "_cpu" +
         std::to_string(static_cast<int>(cpu * 10)) + "_rd" +
         std::to_string(static_cast<int>(remote * 10));
}

}  // namespace

INSTANTIATE_TEST_SUITE_P(
    Grid, ModelInvariants,
    ::testing::Combine(::testing::Values(0, 1),          // central/distributed
                       ::testing::Values<std::size_t>(2, 4),
                       ::testing::Values(1.0, 0.5),      // CPU scv
                       ::testing::Values(1.0, 10.0)),    // remote scv
    param_name);
