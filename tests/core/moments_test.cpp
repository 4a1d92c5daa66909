// Tests for the variance extension: epoch second moments, epoch-duration
// reliability, and full makespan moments, against closed forms and the
// simulator.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cluster/experiments.h"
#include "core/model_cache.h"
#include "core/transient_solver.h"
#include "obs/counters.h"
#include "sim/simulator.h"

namespace core = finwork::core;
namespace net = finwork::net;
namespace ph = finwork::ph;
namespace la = finwork::la;
namespace obs = finwork::obs;
namespace cluster = finwork::cluster;

namespace {

net::NetworkSpec one_station(ph::PhaseType svc, std::size_t mult) {
  std::vector<net::Station> st{{"S", std::move(svc), mult}};
  return net::NetworkSpec(std::move(st), la::Vector{1.0}, la::Matrix(1, 1, 0.0),
                          la::Vector{1.0});
}

}  // namespace

TEST(EpochMoments, SharedExponentialSecondMoment) {
  // First passage to a departure from a busy M server is Exp(rate):
  // E[T^2] = 2 / rate^2 at every population.
  const core::TransientSolver solver(
      one_station(ph::PhaseType::exponential(4.0), 1), 3);
  for (std::size_t k = 1; k <= 3; ++k) {
    la::Vector pi(solver.space().dimension(k), 0.0);
    pi[0] = 1.0;
    EXPECT_NEAR(solver.epoch_second_moment(k, pi), 2.0 / 16.0, 1e-12) << k;
  }
}

TEST(EpochMoments, ForkJoinFirstDepartureIsExponentialMin) {
  // K ample exponential servers: first departure ~ Exp(K lambda):
  // E[T^2] = 2/(K lambda)^2, R(t) = exp(-K lambda t).
  const double lambda = 1.5;
  const std::size_t k = 4;
  const core::TransientSolver solver(
      one_station(ph::PhaseType::exponential(lambda), k), k);
  const la::Vector pi = solver.initial_vector();
  const double rate = static_cast<double>(k) * lambda;
  EXPECT_NEAR(solver.epoch_second_moment(k, pi), 2.0 / (rate * rate), 1e-10);
  for (double t : {0.05, 0.2, 0.5}) {
    EXPECT_NEAR(solver.epoch_reliability(k, pi, t), std::exp(-rate * t), 1e-8)
        << t;
  }
}

TEST(EpochMoments, ReliabilityIntegratesToMean) {
  cluster::ExperimentConfig cfg;
  cfg.workstations = 4;
  cfg.shapes.remote_disk = cluster::ServiceShape::hyperexponential(5.0);
  const core::TransientSolver solver(cluster::build_cluster(cfg), 4);
  const la::Vector pi = solver.initial_vector();
  const double mean = solver.mean_epoch_time(4, pi);
  // Trapezoid of R(t) over [0, 30*mean].
  const int steps = 600;
  const double h = 30.0 * mean / steps;
  double integral = 0.0;
  double prev = solver.epoch_reliability(4, pi, 0.0);
  for (int i = 1; i <= steps; ++i) {
    const double cur = solver.epoch_reliability(4, pi, i * h);
    integral += 0.5 * h * (prev + cur);
    prev = cur;
  }
  EXPECT_NEAR(integral, mean, 0.01 * mean);
}

TEST(EpochMoments, ReliabilityMonotoneAndBounded) {
  cluster::ExperimentConfig cfg;
  cfg.workstations = 3;
  const core::TransientSolver solver(cluster::build_cluster(cfg), 3);
  const la::Vector pi = solver.initial_vector();
  double prev = 1.0;
  for (double t = 0.0; t <= 10.0; t += 0.5) {
    const double r = solver.epoch_reliability(3, pi, t);
    EXPECT_LE(r, prev + 1e-9);
    EXPECT_GE(r, 0.0);
    prev = r;
  }
  EXPECT_THROW((void)solver.epoch_reliability(3, pi, -1.0),
               std::invalid_argument);
}

TEST(EpochMoments, ReliabilityRejectsNonFiniteTime) {
  // A non-finite time has no Poisson mixture; it is rejected up front.
  cluster::ExperimentConfig cfg;
  cfg.workstations = 3;
  const core::TransientSolver solver(cluster::build_cluster(cfg), 3);
  const la::Vector pi = solver.initial_vector();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW((void)solver.epoch_reliability(3, pi, bad),
                 std::invalid_argument)
        << bad;
  }
}

TEST(EpochMoments, ReliabilityAtHugeTimesIsZero) {
  // The survival mass settles after a number of uniformized steps that does
  // not grow with t, so t = 1e12 (q t ~ 1e12 steps at one step per Poisson
  // index), q t past 2^64 and q t overflowing to +inf all return at once.
  cluster::ExperimentConfig cfg;
  cfg.architecture = cluster::Architecture::kCentral;
  cfg.workstations = 3;
  const core::TransientSolver solver(cluster::build_cluster(cfg), 3);
  const la::Vector pi = solver.initial_vector();
  for (const double t : {1e12, 1e17, 1e20, std::numeric_limits<double>::max()}) {
    EXPECT_EQ(solver.epoch_reliability(3, pi, t), 0.0) << t;
  }
  // Times on the epoch's own scale keep their mass.
  const double mean = solver.mean_epoch_time(3, pi);
  EXPECT_GT(solver.epoch_reliability(3, pi, mean), 0.05);
  EXPECT_GT(solver.epoch_reliability(3, pi, 20.0 * mean), 0.0);
}

TEST(EpochMoments, ReliabilityMatchesCdfAtLongHorizons) {
  // N = 1 on a K = 2 cluster: the run is one level-1 epoch, so its
  // reliability is 1 - makespan_cdf(1, t), and both uniformize with the same
  // rate q.  Past qt ~ 745 the Poisson weight exp(-qt) underflows; the
  // mode-centred log-space weights must keep the tail.
  cluster::ExperimentConfig cfg;
  cfg.architecture = cluster::Architecture::kDistributed;
  cfg.workstations = 2;
  cfg.shapes.remote_disk = cluster::ServiceShape::hyperexponential(90.0);
  const core::TransientSolver solver(cluster::build_cluster(cfg), 2);
  const la::Vector pi = solver.space().initial_vector(1);
  const double q = solver.space().level(1).max_event_rate * 1.0001;
  for (const double qt : {100.0, 740.0, 750.0, 3000.0}) {
    const double t = qt / q;
    const double r = solver.epoch_reliability(1, pi, t);
    const double survival = 1.0 - solver.makespan_cdf(1, t);
    EXPECT_GT(r, 1e-5) << qt;
    EXPECT_NEAR(r, survival, 1e-10) << qt;
  }
}

TEST(MakespanMoments, SerialWorkIsErlangSum) {
  // K = 1, N tasks on Exp(lambda): T ~ Erlang(N, lambda).
  const double lambda = 2.0;
  const core::TransientSolver solver(
      one_station(ph::PhaseType::exponential(lambda), 1), 1);
  const core::MakespanMoments mm = solver.makespan_moments(10);
  EXPECT_NEAR(mm.mean, 10.0 / lambda, 1e-10);
  EXPECT_NEAR(mm.variance, 10.0 / (lambda * lambda), 1e-9);
  EXPECT_NEAR(mm.scv, 0.1, 1e-9);
}

TEST(MakespanMoments, SharedServerIsErlangToo) {
  // One shared server, any K: N exponential services back to back.
  const core::TransientSolver solver(
      one_station(ph::PhaseType::exponential(1.0), 1), 4);
  const core::MakespanMoments mm = solver.makespan_moments(9);
  EXPECT_NEAR(mm.mean, 9.0, 1e-9);
  EXPECT_NEAR(mm.variance, 9.0, 1e-8);
}

TEST(MakespanMoments, ForkJoinMaxOfExponentials) {
  // N = K on private servers: T = max of K Exp(lambda);
  // Var = sum 1/(i lambda)^2.
  const double lambda = 0.8;
  const std::size_t k = 5;
  const core::TransientSolver solver(
      one_station(ph::PhaseType::exponential(lambda), k), k);
  const core::MakespanMoments mm = solver.makespan_moments(k);
  double mean = 0.0, var = 0.0;
  for (std::size_t i = 1; i <= k; ++i) {
    mean += 1.0 / (lambda * static_cast<double>(i));
    var += 1.0 / std::pow(lambda * static_cast<double>(i), 2);
  }
  EXPECT_NEAR(mm.mean, mean, 1e-10);
  EXPECT_NEAR(mm.variance, var, 1e-9);
}

TEST(MakespanMoments, MeanMatchesEpochRecursion) {
  cluster::ExperimentConfig cfg;
  cfg.workstations = 5;
  cfg.shapes.remote_disk = cluster::ServiceShape::hyperexponential(10.0);
  const core::TransientSolver solver(cluster::build_cluster(cfg), 5);
  for (std::size_t n : {3u, 5u, 12u, 40u}) {
    const double e_t = solver.solve(n).makespan;  // forward timeline
    EXPECT_NEAR(solver.makespan_moments(n).mean, e_t, 1e-9 * e_t) << n;
  }
}

TEST(MakespanMoments, IterativeLevelMatchesGridAndDenseOracle) {
  // Distributed K = 6: D(6) = 3003 is above the default dense threshold, so
  // both moments recursions run their level-6 solves through Neumann.  The
  // mean must agree with the makespan grid, and the variance with the same
  // model on the dense-LU backend throughout.
  cluster::ExperimentConfig cfg;
  cfg.architecture = cluster::Architecture::kDistributed;
  cfg.workstations = 6;
  const net::NetworkSpec spec = cluster::build_cluster(cfg);
  const std::size_t n = 1000;
  const core::TransientSolver iterative(spec, 6);
  ASSERT_GT(iterative.space().dimension(6),
            core::ModelOptions{}.dense_threshold);
  const core::MakespanMoments mm = iterative.makespan_moments(n);
  const std::vector<std::size_t> grid{n};
  const double e_t = iterative.makespan_grid(grid)[0];
  EXPECT_NEAR(mm.mean, e_t, 1e-9 * e_t);
  const core::MakespanMoments mm_grid =
      iterative.makespan_moments_grid(grid)[0];
  EXPECT_NEAR(mm_grid.mean, mm.mean, 1e-12 * mm.mean);
  EXPECT_NEAR(mm_grid.variance, mm.variance, 1e-9 * mm.variance);

  core::ModelOptions dense_opts;
  dense_opts.dense_threshold = iterative.space().dimension(6);
  const core::TransientSolver dense(spec, 6, dense_opts);
  const core::MakespanMoments oracle = dense.makespan_moments(n);
  EXPECT_NEAR(mm.mean, oracle.mean, 1e-9 * oracle.mean);
  EXPECT_NEAR(mm.variance, oracle.variance, 5e-8 * oracle.variance);
}

namespace {

/// The moments back-substitution with one solve_right per column and no
/// fast-forward: h_k and x_k level by level up to K, then one m1 solve and
/// one x solve per admission, each warm-started from the same extrapolation
/// as the admission loop's (m1_j + d_j and x_j + e_j + f_j), harvesting
/// (mean, second moment) for every workload in `tasks` (each >= K).
std::vector<std::pair<double, double>> single_column_moments(
    const core::ModelArtifacts& model, const std::vector<std::size_t>& tasks) {
  const net::StateSpace& sp = model.space();
  const std::size_t k = model.workstations();
  const auto x_flow = [&](std::size_t level, const la::Vector& m1,
                          la::Vector flow) {
    const la::Vector& rates = sp.level(level).event_rates;
    for (std::size_t i = 0; i < flow.size(); ++i) flow[i] += m1[i] / rates[i];
    return flow;
  };
  la::Vector m1(1, 0.0);
  la::Vector x(1, 0.0);
  for (std::size_t level = 1; level <= k; ++level) {
    const net::LevelMatrices& lm = sp.level(level);
    m1 = model.tau(level) + model.solve_right(level, lm.q.apply(m1));
    x = model.solve_right(level, x_flow(level, m1, lm.q.apply(x)));
  }
  const net::LevelMatrices& lt = sp.level(k);
  const la::Vector& tau = model.tau(k);
  const la::Vector p0 = sp.initial_vector(k);
  const std::size_t j_max = *std::max_element(tasks.begin(), tasks.end()) - k;
  std::vector<std::pair<double, double>> out(tasks.size());
  la::Vector d;  // m1_j - m1_{j-1}
  la::Vector e;  // x_j - x_{j-1}
  la::Vector f;  // e_j - e_{j-1}
  for (std::size_t j = 0;; ++j) {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (tasks[i] == k + j) out[i] = {la::dot(p0, m1), 2.0 * la::dot(p0, x)};
    }
    if (j == j_max) return out;
    la::Vector m1_start = m1;
    if (!d.empty()) m1_start += d;
    m1_start -= tau;
    la::Vector m1_next =
        tau + model.solve_right(k, lt.q.apply(lt.r.apply(m1)), m1_start);
    d = m1_next - m1;
    m1 = std::move(m1_next);
    la::Vector x_start = x;
    if (!e.empty()) x_start += e;
    if (!f.empty()) x_start += f;
    la::Vector x_next = model.solve_right(
        k, x_flow(k, m1, lt.q.apply(lt.r.apply(x))), x_start);
    la::Vector e_next = x_next - x;
    if (!e.empty()) f = e_next - e;
    e = std::move(e_next);
    x = std::move(x_next);
  }
}

/// Distributed K = 6 with its levels prepared: D(6) = 3003 is above the
/// default dense threshold, so every admission solve is iterative.
std::shared_ptr<const core::ModelArtifacts> prepared_k6() {
  cluster::ExperimentConfig cfg;
  cfg.architecture = cluster::Architecture::kDistributed;
  cfg.workstations = 6;
  auto model = std::make_shared<const core::ModelArtifacts>(
      cluster::build_cluster(cfg), 6);
  (void)model->drain_second(6);
  return model;
}

}  // namespace

TEST(MakespanMoments, AdmissionLoopMatchesSingleColumnOracle) {
  // Distributed K = 6: level 6 is iterative, so every admission solve is a
  // warm-started Neumann series.  The admission loop, with its fast-forward
  // bookkeeping and the memo, must not move a bit of either moment against
  // a plain loop of the same solves.
  const auto model = prepared_k6();
  ASSERT_GT(model->space().dimension(6),
            core::ModelOptions{}.dense_threshold);
  core::QueryOptions opts;
  opts.fast_forward = false;
  const core::TransientSolver solver(model, opts);
  const std::vector<std::size_t> tasks{6, 7, 11, 40};
  const auto oracle = single_column_moments(*model, tasks);
  const std::vector<core::MakespanMoments> grid =
      solver.makespan_moments_grid(tasks);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(grid[i].mean, oracle[i].first) << tasks[i];
    EXPECT_EQ(grid[i].second_moment, oracle[i].second) << tasks[i];
    if (tasks[i] == 40) continue;  // the grid pass covers the long run
    const core::MakespanMoments single = solver.makespan_moments(tasks[i]);
    EXPECT_EQ(single.mean, oracle[i].first) << tasks[i];
    EXPECT_EQ(single.second_moment, oracle[i].second) << tasks[i];
  }
}

TEST(MakespanMoments, WarmStartBoundsNeumannWorkWithFastForward) {
  // The admission solves start from the trajectory's extrapolation, so
  // their Neumann series shrink as the pass mixes: 35 702 terms without
  // warm starts, about 11 000 with.  The pass closes where it did.
  const auto model = prepared_k6();
  const core::TransientSolver solver(model);
  const std::uint64_t terms =
      obs::counter_value(obs::Counter::kNeumannIterations);
  const std::uint64_t skipped = obs::counter_value(obs::Counter::kEpochsSkipped);
  (void)solver.makespan_moments(100000);
  EXPECT_LE(obs::counter_value(obs::Counter::kNeumannIterations) - terms,
            16000u);
  EXPECT_EQ(obs::counter_value(obs::Counter::kEpochsSkipped) - skipped,
            99981u);
}

TEST(MakespanMoments, WarmStartBoundsNeumannWorkWithoutFastForward) {
  // All 294 admissions of N = 300: 881 678 terms without warm starts,
  // about 20 000 with.
  const auto model = prepared_k6();
  core::QueryOptions opts;
  opts.fast_forward = false;
  const core::TransientSolver solver(model, opts);
  const std::uint64_t terms =
      obs::counter_value(obs::Counter::kNeumannIterations);
  (void)solver.makespan_moments(300);
  EXPECT_LE(obs::counter_value(obs::Counter::kNeumannIterations) - terms,
            30000u);
}

TEST(MakespanMoments, VarianceMatchesSimulation) {
  cluster::ExperimentConfig cfg;
  cfg.workstations = 4;
  cfg.shapes.remote_disk = cluster::ServiceShape::hyperexponential(8.0);
  const net::NetworkSpec spec = cluster::build_cluster(cfg);
  const core::TransientSolver solver(spec, 4);
  const core::MakespanMoments mm = solver.makespan_moments(20);

  finwork::sim::NetworkSimulator simulator(spec, 4);
  finwork::sim::SimulationOptions opts;
  opts.replications = 20000;
  const auto sr = simulator.run(20, opts);
  EXPECT_NEAR(sr.makespan.mean(), mm.mean, 4.0 * sr.makespan.std_error());
  // Sample variance of 20k reps is within ~6% of truth w.h.p.
  EXPECT_NEAR(sr.makespan.variance(), mm.variance, 0.08 * mm.variance);
}

TEST(MakespanMoments, VarianceGrowsWithServiceVariance) {
  cluster::ExperimentConfig exp_cfg;
  exp_cfg.workstations = 4;
  cluster::ExperimentConfig h2_cfg = exp_cfg;
  h2_cfg.shapes.remote_disk = cluster::ServiceShape::hyperexponential(20.0);
  const core::TransientSolver s_exp(cluster::build_cluster(exp_cfg), 4);
  const core::TransientSolver s_h2(cluster::build_cluster(h2_cfg), 4);
  EXPECT_GT(s_h2.makespan_moments(20).variance,
            s_exp.makespan_moments(20).variance);
}

TEST(MakespanMoments, RelativeVariabilityShrinksWithWorkload) {
  // Averaging over more tasks concentrates the makespan: scv decreases in N.
  cluster::ExperimentConfig cfg;
  cfg.workstations = 3;
  const core::TransientSolver solver(cluster::build_cluster(cfg), 3);
  const double scv10 = solver.makespan_moments(10).scv;
  const double scv80 = solver.makespan_moments(80).scv;
  EXPECT_LT(scv80, scv10);
}

TEST(MakespanMoments, Guards) {
  const core::TransientSolver solver(
      one_station(ph::PhaseType::exponential(1.0), 1), 1);
  EXPECT_THROW((void)solver.makespan_moments(0), std::invalid_argument);
}
