// Tests for the transient solver: epoch structure, probability preservation,
// steady state, dense/iterative agreement, Erlang-1 == exponential.

#include "core/transient_solver.h"

#include <gtest/gtest.h>

#include "cluster/experiments.h"
#include "ph/fitting.h"

namespace core = finwork::core;
namespace net = finwork::net;
namespace ph = finwork::ph;
namespace la = finwork::la;
namespace cluster = finwork::cluster;

namespace {

net::NetworkSpec single_exponential_station(double rate) {
  std::vector<net::Station> st{{"S", ph::PhaseType::exponential(rate), 1}};
  return net::NetworkSpec(std::move(st), la::Vector{1.0}, la::Matrix(1, 1, 0.0),
                          la::Vector{1.0});
}

cluster::ExperimentConfig central_config(std::size_t k) {
  cluster::ExperimentConfig cfg;
  cfg.workstations = k;
  return cfg;
}

}  // namespace

TEST(TransientSolver, SingleStationSingleTask) {
  // One M/M/1-like station with rate 2, one task: E(T) = 0.5.
  const core::TransientSolver solver(single_exponential_station(2.0), 1);
  EXPECT_NEAR(solver.makespan(1), 0.5, 1e-12);
}

TEST(TransientSolver, SingleStationManyTasksIsRenewal) {
  // K = 1: tasks run one at a time; E(T) = N / rate.
  const core::TransientSolver solver(single_exponential_station(2.0), 1);
  const core::DepartureTimeline tl = solver.solve(10);
  EXPECT_NEAR(tl.makespan, 5.0, 1e-10);
  for (double t : tl.epoch_times) EXPECT_NEAR(t, 0.5, 1e-12);
}

TEST(TransientSolver, SingleSharedStationKTasks) {
  // One shared exponential server holding K tasks: every epoch is an M/M/1
  // departure, E per epoch = 1/rate regardless of queue length.
  const core::TransientSolver solver(single_exponential_station(4.0), 3);
  const core::DepartureTimeline tl = solver.solve(7);
  for (double t : tl.epoch_times) EXPECT_NEAR(t, 0.25, 1e-12);
  EXPECT_NEAR(tl.makespan, 7.0 / 4.0, 1e-10);
}

TEST(TransientSolver, TimelineStructure) {
  const core::TransientSolver solver(
      cluster::build_cluster(central_config(5)), 5);
  const core::DepartureTimeline tl = solver.solve(30);
  ASSERT_EQ(tl.epoch_times.size(), 30u);
  ASSERT_EQ(tl.population.size(), 30u);
  ASSERT_EQ(tl.cumulative.size(), 30u);
  // Saturated for the first N-K+1 epochs, then draining K-1 .. 1.
  for (std::size_t i = 0; i < 26; ++i) EXPECT_EQ(tl.population[i], 5u);
  EXPECT_EQ(tl.population[26], 4u);
  EXPECT_EQ(tl.population[29], 1u);
  // Cumulative is the prefix sum.
  double acc = 0.0;
  for (std::size_t i = 0; i < 30; ++i) {
    acc += tl.epoch_times[i];
    EXPECT_NEAR(tl.cumulative[i], acc, 1e-12);
  }
  EXPECT_NEAR(tl.makespan, acc, 1e-12);
}

TEST(TransientSolver, TasksFewerThanWorkstations) {
  // N < K behaves like an N-sized cluster (paper's remark).
  const net::NetworkSpec spec = cluster::build_cluster(central_config(8));
  const core::TransientSolver big(spec, 8);
  const core::TransientSolver small(spec, 3);
  EXPECT_NEAR(big.makespan(3), small.makespan(3), 1e-9);
}

TEST(TransientSolver, MakespanGrowsWithTasks) {
  const core::TransientSolver solver(
      cluster::build_cluster(central_config(4)), 4);
  double prev = 0.0;
  for (std::size_t n : {4u, 8u, 16u, 32u}) {
    const double m = solver.makespan(n);
    EXPECT_GT(m, prev);
    prev = m;
  }
}

TEST(TransientSolver, ApplyYPreservesProbability) {
  const core::TransientSolver solver(
      cluster::build_cluster(central_config(4)), 4);
  la::Vector pi = solver.initial_vector();
  for (std::size_t k = 4; k >= 1; --k) {
    EXPECT_NEAR(pi.sum(), 1.0, 1e-10) << "level " << k;
    pi = solver.apply_y(k, pi);
  }
  EXPECT_NEAR(pi.sum(), 1.0, 1e-10);  // level 0: the empty state
}

TEST(TransientSolver, ApplyRPreservesProbability) {
  const core::TransientSolver solver(
      cluster::build_cluster(central_config(4)), 4);
  la::Vector pi(1, 1.0);
  for (std::size_t k = 1; k <= 4; ++k) {
    pi = solver.apply_r(k, pi);
    EXPECT_NEAR(pi.sum(), 1.0, 1e-12);
  }
}

TEST(TransientSolver, TauPositive) {
  const core::TransientSolver solver(
      cluster::build_cluster(central_config(3)), 3);
  for (std::size_t k = 1; k <= 3; ++k) {
    const la::Vector& tau = solver.tau(k);
    for (std::size_t i = 0; i < tau.size(); ++i) EXPECT_GT(tau[i], 0.0);
  }
}

TEST(TransientSolver, Erlang1MatchesExponentialEverywhere) {
  cluster::ExperimentConfig e1 = central_config(4);
  e1.shapes.cpu = cluster::ServiceShape::erlang(1);
  e1.shapes.remote_disk = cluster::ServiceShape::erlang(1);
  const core::TransientSolver s_e1(cluster::build_cluster(e1), 4);
  const core::TransientSolver s_exp(
      cluster::build_cluster(central_config(4)), 4);
  const auto tl_e1 = s_e1.solve(12);
  const auto tl_exp = s_exp.solve(12);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_NEAR(tl_e1.epoch_times[i], tl_exp.epoch_times[i], 1e-9);
  }
}

TEST(TransientSolver, SteadyStateIsFixedPoint) {
  const core::TransientSolver solver(
      cluster::build_cluster(central_config(5)), 5);
  const core::SteadyStateResult& ss = solver.steady_state();
  const la::Vector cycled = solver.apply_r(5, solver.apply_y(5, ss.distribution));
  EXPECT_TRUE(la::allclose(cycled, ss.distribution, 1e-8, 1e-10));
  EXPECT_NEAR(ss.distribution.sum(), 1.0, 1e-10);
  EXPECT_NEAR(ss.throughput * ss.interdeparture, 1.0, 1e-12);
}

TEST(TransientSolver, EpochTimesConvergeToSteadyState) {
  const core::TransientSolver solver(
      cluster::build_cluster(central_config(5)), 5);
  const double t_ss = solver.steady_state().interdeparture;
  const core::DepartureTimeline tl = solver.solve(60);
  // Middle epochs (well past warm-up, well before draining) sit at t_ss.
  for (std::size_t i = 30; i < 50; ++i) {
    EXPECT_NEAR(tl.epoch_times[i], t_ss, 1e-6 * t_ss) << "epoch " << i;
  }
}

TEST(TransientSolver, DrainingEpochsSlowDown) {
  // With dedicated CPUs dominating, fewer tasks in the system means less
  // parallelism: the last epochs take longer than the steady ones.
  const core::TransientSolver solver(
      cluster::build_cluster(central_config(6)), 6);
  const core::DepartureTimeline tl = solver.solve(30);
  const double steady = tl.epoch_times[20];
  EXPECT_GT(tl.epoch_times[29], 2.0 * steady);  // population 1 vs 6
}

TEST(TransientSolver, DenseAndIterativeAgree) {
  cluster::ExperimentConfig cfg = central_config(4);
  cfg.shapes.remote_disk = cluster::ServiceShape::hyperexponential(8.0);
  const net::NetworkSpec spec = cluster::build_cluster(cfg);
  core::ModelOptions dense_opts;
  core::ModelOptions iter_opts;
  iter_opts.dense_threshold = 0;  // force the sparse iterative path
  const core::TransientSolver dense(spec, 4, dense_opts);
  const core::TransientSolver iterative(spec, 4, iter_opts);
  const auto tl_d = dense.solve(15);
  const auto tl_i = iterative.solve(15);
  for (std::size_t i = 0; i < 15; ++i) {
    EXPECT_NEAR(tl_d.epoch_times[i], tl_i.epoch_times[i],
                1e-7 * tl_d.epoch_times[i])
        << "epoch " << i;
  }
  EXPECT_NEAR(dense.steady_state().interdeparture,
              iterative.steady_state().interdeparture, 1e-7);
}

TEST(TransientSolver, GuardsBadArguments) {
  const core::TransientSolver solver(single_exponential_station(1.0), 2);
  EXPECT_THROW((void)solver.solve(0), std::invalid_argument);
  EXPECT_THROW((void)solver.tau(0), std::out_of_range);
  EXPECT_THROW((void)solver.tau(3), std::out_of_range);
}

// Property: the total makespan equals the paper's two-term decomposition
// (saturated sum + draining sum) for several N.
class EpochDecomposition : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EpochDecomposition, SumsMatchDirectFormula) {
  const std::size_t n = GetParam();
  const core::TransientSolver solver(
      cluster::build_cluster(central_config(3)), 3);
  const core::DepartureTimeline tl = solver.solve(n);
  // Recompute via the raw operators.
  la::Vector pi = solver.initial_vector();
  double total = 0.0;
  const std::size_t sat = n - 3 + 1;
  for (std::size_t i = 0; i < sat; ++i) {
    total += solver.mean_epoch_time(3, pi);
    if (i + 1 < sat) pi = solver.apply_r(3, solver.apply_y(3, pi));
  }
  pi = solver.apply_y(3, pi);
  total += solver.mean_epoch_time(2, pi);
  pi = solver.apply_y(2, pi);
  total += solver.mean_epoch_time(1, pi);
  EXPECT_NEAR(tl.makespan, total, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Workloads, EpochDecomposition,
                         ::testing::Values(3, 4, 5, 10, 30));
