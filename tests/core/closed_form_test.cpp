// Cross-checks of the transient solver against classical closed-form
// queueing results: order statistics of exponentials, the machine-repairman
// (M/M/1//K) model, and Erlang draining.

#include <gtest/gtest.h>

#include <cmath>

#include "core/transient_solver.h"
#include "pf/order_statistics.h"
#include "ph/phase_type.h"

namespace core = finwork::core;
namespace net = finwork::net;
namespace ph = finwork::ph;
namespace la = finwork::la;
namespace pf = finwork::pf;

namespace {

/// A single ample exponential station with direct exit: K independent
/// servers, pure fork/join.
net::NetworkSpec ample_station(double rate, std::size_t k) {
  std::vector<net::Station> st{{"S", ph::PhaseType::exponential(rate), k}};
  return net::NetworkSpec(std::move(st), la::Vector{1.0}, la::Matrix(1, 1, 0.0),
                          la::Vector{1.0});
}

/// Machine repairman: ample think station (rate lambda per task) feeding a
/// single repair server (rate mu); a repaired task exits and is replaced.
net::NetworkSpec machine_repairman(double lambda, double mu, std::size_t k) {
  std::vector<net::Station> st;
  st.push_back({"Think", ph::PhaseType::exponential(lambda), k});
  st.push_back({"Server", ph::PhaseType::exponential(mu), 1});
  la::Vector entry{1.0, 0.0};
  la::Matrix routing(2, 2, 0.0);
  routing(0, 1) = 1.0;
  la::Vector exit{0.0, 1.0};
  return net::NetworkSpec(std::move(st), std::move(entry), std::move(routing),
                          std::move(exit));
}

}  // namespace

TEST(ClosedForm, ForkJoinDrainingIsExponentialOrderStatistics) {
  // N = K iid Exp(lambda) tasks on private servers: the i-th epoch is the
  // minimum of K-i+1 exponentials, and the makespan is the harmonic sum.
  const double lambda = 0.5;
  const std::size_t k = 6;
  const core::TransientSolver solver(ample_station(lambda, k), k);
  const core::DepartureTimeline tl = solver.solve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const double remaining = static_cast<double>(k - i);
    EXPECT_NEAR(tl.epoch_times[i], 1.0 / (lambda * remaining), 1e-10);
  }
  double harmonic = 0.0;
  for (std::size_t j = 1; j <= k; ++j) harmonic += 1.0 / static_cast<double>(j);
  EXPECT_NEAR(tl.makespan, harmonic / lambda, 1e-10);
}

TEST(ClosedForm, ForkJoinMakespanMatchesOrderStatisticsModule) {
  // The same quantity through the independent order-statistics module:
  // E[max of K Exp] must equal the transient solver's N = K makespan.
  const double lambda = 1.25;
  const std::size_t k = 5;
  const core::TransientSolver solver(ample_station(lambda, k), k);
  const double analytic = solver.makespan(k);
  const double orderstat =
      pf::expected_maximum(ph::PhaseType::exponential(lambda), k);
  EXPECT_NEAR(analytic, orderstat, 1e-6);
}

TEST(ClosedForm, ForkJoinSaturatedEpochs) {
  // With N > K and ample servers the saturated epochs are waits for the
  // first of K exponentials *after* a renewal: exactly 1/(K lambda).
  const double lambda = 2.0;
  const std::size_t k = 4;
  const core::TransientSolver solver(ample_station(lambda, k), k);
  const core::DepartureTimeline tl = solver.solve(12);
  for (std::size_t i = 0; i < 12 - k + 1; ++i) {
    EXPECT_NEAR(tl.epoch_times[i], 1.0 / (lambda * 4.0), 1e-10);
  }
}

TEST(ClosedForm, MachineRepairmanSteadyStateThroughput) {
  // M/M/1//K: p_n = p_0 K!/(K-n)! (lambda/mu)^n, throughput = mu (1 - p_0).
  const double lambda = 1.0, mu = 3.0;
  const std::size_t k = 4;
  double weight = 1.0, norm = 1.0;
  for (std::size_t n = 1; n <= k; ++n) {
    weight *= static_cast<double>(k - n + 1) * lambda / mu;
    norm += weight;
  }
  const double p0 = 1.0 / norm;
  const double throughput = mu * (1.0 - p0);

  const core::TransientSolver solver(machine_repairman(lambda, mu, k), k);
  const core::SteadyStateResult& ss = solver.steady_state();
  EXPECT_NEAR(ss.throughput, throughput, 1e-9);
}

TEST(ClosedForm, MachineRepairmanServerHeavySaturates) {
  // When mu << K lambda the single server saturates: t_ss -> 1/mu.
  const double lambda = 10.0, mu = 1.0;
  const std::size_t k = 6;
  const core::TransientSolver solver(machine_repairman(lambda, mu, k), k);
  EXPECT_NEAR(solver.steady_state().interdeparture, 1.0 / mu, 0.01);
}

TEST(ClosedForm, MachineRepairmanThinkHeavyIsAmple) {
  // When mu >> K lambda there is no queueing: throughput ~= K lambda
  // (slightly less; each task also spends 1/mu in service).
  const double lambda = 1.0, mu = 500.0;
  const std::size_t k = 5;
  const core::TransientSolver solver(machine_repairman(lambda, mu, k), k);
  const double cycle = 1.0 / lambda + 1.0 / mu;
  EXPECT_NEAR(solver.steady_state().interdeparture,
              cycle / static_cast<double>(k), 1e-4);
}

TEST(ClosedForm, TwoTaskTandemFirstDeparture) {
  // Hand-computable case: two single-server exponential stations in series
  // (rates a and b), exit after the second; one task in the system.
  // tau = 1/a + 1/b from the first station.
  const double a = 2.0, b = 5.0;
  std::vector<net::Station> st;
  st.push_back({"A", ph::PhaseType::exponential(a), 1});
  st.push_back({"B", ph::PhaseType::exponential(b), 1});
  la::Vector entry{1.0, 0.0};
  la::Matrix routing(2, 2, 0.0);
  routing(0, 1) = 1.0;
  la::Vector exit{0.0, 1.0};
  const net::NetworkSpec spec(std::move(st), std::move(entry),
                              std::move(routing), std::move(exit));
  const core::TransientSolver solver(spec, 1);
  EXPECT_NEAR(solver.makespan(1), 1.0 / a + 1.0 / b, 1e-12);
  // N tasks with K = 1: pure renewal.
  EXPECT_NEAR(solver.makespan(6), 6.0 * (1.0 / a + 1.0 / b), 1e-10);
}

TEST(ClosedForm, ErlangServiceSingleTask) {
  // A task through one station with Erlang-3 service, mean 2: E(T) = 2 and
  // the first-departure time from the transient machinery agrees.
  std::vector<net::Station> st{{"S", ph::PhaseType::erlang(3, 2.0), 1}};
  const net::NetworkSpec spec(std::move(st), la::Vector{1.0},
                              la::Matrix(1, 1, 0.0), la::Vector{1.0});
  const core::TransientSolver solver(spec, 1);
  EXPECT_NEAR(solver.makespan(1), 2.0, 1e-12);
}

TEST(ClosedForm, HyperexponentialSharedServerQueueing) {
  // Single shared H2 server holding 2 tasks: the first departure is NOT the
  // naive mean because the epoch starts from the entrance mixture.  With
  // FCFS only the head is in service; time to first departure = mean of the
  // in-service H2 = its mean.  Second task then serves to completion.
  const ph::PhaseType h2 = finwork::ph::PhaseType::hyperexponential(
      {0.5, 0.5}, {2.0, 0.4});
  const double mean = h2.mean();
  std::vector<net::Station> st{{"S", h2, 1}};
  const net::NetworkSpec spec(std::move(st), la::Vector{1.0},
                              la::Matrix(1, 1, 0.0), la::Vector{1.0});
  const core::TransientSolver solver(spec, 2);
  const core::DepartureTimeline tl = solver.solve(2);
  EXPECT_NEAR(tl.epoch_times[0], mean, 1e-12);
  EXPECT_NEAR(tl.epoch_times[1], mean, 1e-12);
  EXPECT_NEAR(tl.makespan, 2.0 * mean, 1e-12);
}
