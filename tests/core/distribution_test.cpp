// Tests for the makespan distribution (uniformization over the layered
// absorbing chain) and the station-occupancy metrics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "cluster/experiments.h"
#include "core/transient_solver.h"
#include "pf/product_form.h"
#include "ph/phase_type.h"
#include "sim/simulator.h"

namespace core = finwork::core;
namespace net = finwork::net;
namespace ph = finwork::ph;
namespace la = finwork::la;
namespace pf = finwork::pf;
namespace cluster = finwork::cluster;

namespace {

net::NetworkSpec one_station(ph::PhaseType svc, std::size_t mult) {
  std::vector<net::Station> st{{"S", std::move(svc), mult}};
  return net::NetworkSpec(std::move(st), la::Vector{1.0}, la::Matrix(1, 1, 0.0),
                          la::Vector{1.0});
}

}  // namespace

TEST(MakespanCdf, SerialWorkIsErlangCdf) {
  // K = 1, N services of Exp(lambda): T ~ Erlang(N, lambda); compare to the
  // PH library's independent CDF implementation.
  const double lambda = 2.0;
  const std::size_t n = 6;
  const core::TransientSolver solver(
      one_station(ph::PhaseType::exponential(lambda), 1), 1);
  const ph::PhaseType erlang =
      ph::PhaseType::erlang(n, static_cast<double>(n) / lambda);
  for (double t : {0.5, 1.5, 3.0, 6.0}) {
    EXPECT_NEAR(solver.makespan_cdf(n, t), erlang.cdf(t), 1e-8) << t;
  }
}

TEST(MakespanCdf, ForkJoinIsMaxOfExponentials) {
  // N = K on private servers: F(t) = (1 - e^{-lambda t})^K.
  const double lambda = 1.0;
  const std::size_t k = 4;
  const core::TransientSolver solver(
      one_station(ph::PhaseType::exponential(lambda), k), k);
  for (double t : {0.5, 1.0, 2.0, 4.0}) {
    const double expected = std::pow(1.0 - std::exp(-lambda * t),
                                     static_cast<double>(k));
    EXPECT_NEAR(solver.makespan_cdf(k, t), expected, 1e-8) << t;
  }
}

TEST(MakespanCdf, BoundaryBehaviour) {
  const core::TransientSolver solver(
      one_station(ph::PhaseType::exponential(1.0), 1), 1);
  EXPECT_DOUBLE_EQ(solver.makespan_cdf(3, 0.0), 0.0);
  EXPECT_NEAR(solver.makespan_cdf(3, 100.0), 1.0, 1e-9);
  // The chain absorbs long before qt = 1e12 steps, so a huge time costs
  // about what absorption does.
  EXPECT_NEAR(solver.makespan_cdf(3, 1e12), 1.0, 1e-9);
  EXPECT_THROW((void)solver.makespan_cdf(0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)solver.makespan_cdf(3, -1.0), std::invalid_argument);
  EXPECT_TRUE(solver.makespan_cdf(3, std::vector<double>{}).empty());
}

TEST(MakespanCdf, HugeFiniteTimesCloseAtTheLimit) {
  // Once the chain has absorbed, P(T <= t) is its limit however far t is:
  // q t past 2^64 (t = 1e20), or overflowing to +inf (t = DBL_MAX), costs
  // one absorption pass and casts no q t to an index.
  cluster::ExperimentConfig cfg;
  cfg.architecture = cluster::Architecture::kCentral;
  cfg.workstations = 3;
  const core::TransientSolver solver(cluster::build_cluster(cfg), 3);
  const double at_1e9 = solver.makespan_cdf(5, 1e9);
  EXPECT_NEAR(at_1e9, 1.0, 1e-12);
  for (const double t : {1e12, 1e17, 1e20, std::numeric_limits<double>::max()}) {
    EXPECT_EQ(solver.makespan_cdf(5, t), at_1e9) << t;
  }
  const double mean = solver.makespan(5);
  const std::vector<double> cdf =
      solver.makespan_cdf(5, std::vector<double>{mean, 1e17, 1e20});
  EXPECT_GT(cdf[0], 0.1);
  EXPECT_LT(cdf[0], 0.9);
  EXPECT_NEAR(cdf[0], solver.makespan_cdf(5, mean), 1e-10);
  EXPECT_EQ(cdf[1], at_1e9);
  EXPECT_EQ(cdf[2], at_1e9);
}

TEST(MakespanCdf, RejectsNonFiniteTimes) {
  // Non-finite times are bad input: NaN has no step count and +inf no
  // Poisson mixture, so both are rejected before any step.
  const core::TransientSolver solver(
      one_station(ph::PhaseType::exponential(1.0), 2), 2);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW((void)solver.makespan_cdf(3, bad), std::invalid_argument)
        << bad;
    EXPECT_THROW((void)solver.makespan_cdf(3, std::vector<double>{1.0, bad}),
                 std::invalid_argument)
        << bad;
  }
}

TEST(MakespanCdf, MonotoneInTime) {
  cluster::ExperimentConfig cfg;
  cfg.workstations = 4;
  cfg.shapes.remote_disk = cluster::ServiceShape::hyperexponential(8.0);
  const core::TransientSolver solver(cluster::build_cluster(cfg), 4);
  const core::MakespanMoments mm = solver.makespan_moments(15);
  std::vector<double> times;
  for (int i = 0; i <= 16; ++i) {
    times.push_back(mm.mean * 0.125 * static_cast<double>(i));
  }
  const std::vector<double> cdf = solver.makespan_cdf(15, times);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i], cdf[i - 1] - 1e-10);
  }
  // Roughly half the mass sits below/above the mean-ish region.
  EXPECT_GT(cdf.back(), 0.95);
}

TEST(MakespanCdf, ConsistentWithMomentsViaTailIntegral) {
  // E[T] = int (1 - F(t)) dt; coarse trapezoid against the block solve.
  cluster::ExperimentConfig cfg;
  cfg.workstations = 3;
  const core::TransientSolver solver(cluster::build_cluster(cfg), 3);
  const double mean = solver.makespan_moments(9).mean;
  const int steps = 300;
  const double upto = 4.0 * mean;
  std::vector<double> times(steps + 1);
  for (int i = 0; i <= steps; ++i) times[i] = upto * i / steps;
  const std::vector<double> cdf = solver.makespan_cdf(9, times);
  double integral = 0.0;
  for (int i = 0; i < steps; ++i) {
    integral += (upto / steps) * 0.5 * ((1.0 - cdf[i]) + (1.0 - cdf[i + 1]));
  }
  EXPECT_NEAR(integral, mean, 0.01 * mean);
}

TEST(MakespanCdf, MatchesSimulationQuantiles) {
  cluster::ExperimentConfig cfg;
  cfg.workstations = 4;
  cfg.shapes.remote_disk = cluster::ServiceShape::hyperexponential(6.0);
  const net::NetworkSpec spec = cluster::build_cluster(cfg);
  const core::TransientSolver solver(spec, 4);

  finwork::sim::NetworkSimulator simulator(spec, 4);
  finwork::rng::Xoshiro256 root(77);
  const std::size_t reps = 6000;
  std::vector<double> samples(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    finwork::rng::Xoshiro256 g = root.split(r);
    samples[r] = simulator.run_once(16, g).back();
  }
  std::sort(samples.begin(), samples.end());
  for (double p : {0.25, 0.5, 0.75, 0.9}) {
    const double xq = samples[static_cast<std::size_t>(p * (reps - 1))];
    EXPECT_NEAR(solver.makespan_cdf(16, xq), p, 0.03) << p;
  }
}

TEST(StationOccupancy, SumsToPopulation) {
  cluster::ExperimentConfig cfg;
  cfg.workstations = 5;
  cfg.shapes.remote_disk = cluster::ServiceShape::hyperexponential(10.0);
  const core::TransientSolver solver(cluster::build_cluster(cfg), 5);
  const auto occ = solver.station_occupancy(5, solver.initial_vector());
  double total = 0.0;
  for (const auto& o : occ) total += o.mean_customers;
  EXPECT_NEAR(total, 5.0, 1e-10);
}

TEST(StationOccupancy, InitialStateAllAtCpu) {
  cluster::ExperimentConfig cfg;
  cfg.workstations = 4;
  const core::TransientSolver solver(cluster::build_cluster(cfg), 4);
  const auto occ = solver.station_occupancy(4, solver.initial_vector());
  EXPECT_NEAR(occ[0].mean_customers, 4.0, 1e-12);
  EXPECT_NEAR(occ[0].utilization, 1.0, 1e-12);
  EXPECT_NEAR(occ[1].mean_customers, 0.0, 1e-12);
}

TEST(StationOccupancy, SteadyStateMatchesConvolutionExactly) {
  // Exponential network: the time-stationary occupancy must equal Buzen's
  // marginals.  It is read off the steady state's jump-chain solve, so it
  // agrees to rounding (8e-14 here).
  cluster::ApplicationModel app;
  const net::NetworkSpec spec = cluster::central_cluster(5, app);
  const core::TransientSolver solver(spec, 5);
  const auto occ =
      solver.station_occupancy(5, solver.time_stationary_distribution());
  const pf::ClosedNetworkResult conv = pf::convolution(spec, 5);
  for (std::size_t j = 0; j < spec.num_stations(); ++j) {
    EXPECT_NEAR(occ[j].mean_customers, conv.mean_queue_length[j], 1e-10) << j;
    EXPECT_NEAR(occ[j].utilization, conv.utilization[j], 1e-10) << j;
  }
}

TEST(StationOccupancy, HighVarianceInflatesSharedQueue) {
  cluster::ExperimentConfig exp_cfg;
  exp_cfg.workstations = 5;
  cluster::ExperimentConfig h2_cfg = exp_cfg;
  h2_cfg.shapes.remote_disk = cluster::ServiceShape::hyperexponential(30.0);
  const core::TransientSolver s_exp(cluster::build_cluster(exp_cfg), 5);
  const core::TransientSolver s_h2(cluster::build_cluster(h2_cfg), 5);
  const auto occ_exp =
      s_exp.station_occupancy(5, s_exp.time_stationary_distribution());
  const auto occ_h2 =
      s_h2.station_occupancy(5, s_h2.time_stationary_distribution());
  EXPECT_GT(occ_h2[3].mean_customers, occ_exp[3].mean_customers);
}

TEST(StationOccupancy, Guards) {
  cluster::ExperimentConfig cfg;
  cfg.workstations = 2;
  const core::TransientSolver solver(cluster::build_cluster(cfg), 2);
  EXPECT_THROW((void)solver.station_occupancy(0, la::Vector{1.0}),
               std::out_of_range);
  EXPECT_THROW((void)solver.station_occupancy(2, la::Vector{1.0}),
               std::invalid_argument);
}

TEST(Connectivity, RejectsTrappedTasks) {
  // Station B routes only to itself-ish loop with no exit anywhere.
  std::vector<net::Station> st;
  st.push_back({"A", ph::PhaseType::exponential(1.0), 1});
  st.push_back({"B", ph::PhaseType::exponential(1.0), 1});
  la::Vector entry{1.0, 0.0};
  la::Matrix routing(2, 2, 0.0);
  routing(0, 1) = 1.0;
  routing(1, 0) = 1.0;
  la::Vector exit{0.0, 0.0};
  // Row sums: A: 1.0, B: 1.0 — structurally valid, but no exit at all.
  const net::NetworkSpec spec(std::move(st), std::move(entry),
                              std::move(routing), std::move(exit));
  EXPECT_THROW((void)spec.validate_connectivity(), std::invalid_argument);
  EXPECT_THROW((void)core::TransientSolver(spec, 2), std::invalid_argument);
}

TEST(Connectivity, UnreachableDeadBranchIsHarmless) {
  // Station C is never entered; its lack of an exit path must not trip the
  // validator (it is dead weight, not a trap).
  std::vector<net::Station> st;
  st.push_back({"A", ph::PhaseType::exponential(1.0), 1});
  st.push_back({"C", ph::PhaseType::exponential(1.0), 1});
  la::Vector entry{1.0, 0.0};
  la::Matrix routing(2, 2, 0.0);
  routing(1, 1) = 1.0;  // C loops forever — but nothing reaches C
  la::Vector exit{1.0, 0.0};
  const net::NetworkSpec spec(std::move(st), std::move(entry),
                              std::move(routing), std::move(exit));
  EXPECT_NO_THROW(spec.validate_connectivity());
}

TEST(Connectivity, ValidClustersPass) {
  cluster::ApplicationModel app;
  EXPECT_NO_THROW(cluster::central_cluster(4, app).validate_connectivity());
  EXPECT_NO_THROW(
      cluster::distributed_cluster(3, app).validate_connectivity());
}
