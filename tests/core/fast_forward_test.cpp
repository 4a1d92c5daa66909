// Quasi-steady-state fast-forward: closing the saturated phase analytically
// must agree with the exact epoch-by-epoch recursion to high relative
// precision for every workload size, architecture and service shape — the
// optimisation is a short-cut, not an approximation knob.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "cluster/builders.h"
#include "cluster/experiments.h"
#include "core/transient_solver.h"
#include "obs/counters.h"

namespace {

using namespace finwork;

struct Config {
  const char* name;
  cluster::Architecture architecture;
  std::size_t workstations;
  cluster::ServiceShape remote_disk;
};

std::vector<Config> configs() {
  return {
      {"central-k5-erlang", cluster::Architecture::kCentral, 5,
       cluster::ServiceShape::from_scv(0.5)},
      {"central-k5-hyper", cluster::Architecture::kCentral, 5,
       cluster::ServiceShape::hyperexponential(10.0)},
      {"distributed-k3-erlang", cluster::Architecture::kDistributed, 3,
       cluster::ServiceShape::from_scv(0.5)},
      {"distributed-k4-hyper", cluster::Architecture::kDistributed, 4,
       cluster::ServiceShape::hyperexponential(10.0)},
  };
}

net::NetworkSpec make_spec(const Config& c) {
  cluster::ExperimentConfig cfg;
  cfg.architecture = c.architecture;
  cfg.workstations = c.workstations;
  cfg.shapes.remote_disk = c.remote_disk;
  return cluster::build_cluster(cfg);
}

double rel_diff(double a, double b) {
  return std::abs(a - b) / std::max(std::abs(b), 1e-300);
}

TEST(FastForwardTest, MakespanMatchesExactRecursion) {
  for (const Config& c : configs()) {
    SCOPED_TRACE(c.name);
    const net::NetworkSpec spec = make_spec(c);
    const core::TransientSolver on(spec, c.workstations);
    core::QueryOptions exact;
    exact.fast_forward = false;
    const core::TransientSolver off(spec, c.workstations, {}, exact);

    const std::size_t k = c.workstations;
    for (std::size_t n : {k, 2 * k, std::size_t{100}, std::size_t{5000}}) {
      SCOPED_TRACE("N=" + std::to_string(n));
      const double a = on.makespan(n);
      const double b = off.makespan(n);
      EXPECT_GT(b, 0.0);
      EXPECT_LE(rel_diff(a, b), 1e-8);
    }
  }
}

TEST(FastForwardTest, TimelineMatchesEpochByEpoch) {
  // Not just the total: every per-epoch mean must agree, including the
  // analytically closed block and the draining tail it hands into.
  const Config c = configs()[1];  // central K=5, hyperexponential
  const net::NetworkSpec spec = make_spec(c);
  const core::TransientSolver on(spec, c.workstations);
  core::QueryOptions exact;
  exact.fast_forward = false;
  const core::TransientSolver off(spec, c.workstations, {}, exact);

  const core::DepartureTimeline ta = on.solve(400);
  const core::DepartureTimeline tb = off.solve(400);
  ASSERT_EQ(ta.epoch_times.size(), tb.epoch_times.size());
  ASSERT_EQ(ta.population, tb.population);
  for (std::size_t i = 0; i < ta.epoch_times.size(); ++i) {
    EXPECT_LE(rel_diff(ta.epoch_times[i], tb.epoch_times[i]), 1e-8)
        << "epoch " << i;
  }
}

TEST(FastForwardTest, MomentsMatchExactRecursion) {
  for (const Config& c : configs()) {
    SCOPED_TRACE(c.name);
    const net::NetworkSpec spec = make_spec(c);
    const core::TransientSolver on(spec, c.workstations);
    core::QueryOptions exact;
    exact.fast_forward = false;
    const core::TransientSolver off(spec, c.workstations, {}, exact);

    const std::size_t k = c.workstations;
    for (std::size_t n : {k, 2 * k, std::size_t{100}, std::size_t{5000}}) {
      SCOPED_TRACE("N=" + std::to_string(n));
      const core::MakespanMoments a = on.makespan_moments(n);
      const core::MakespanMoments b = off.makespan_moments(n);
      EXPECT_LE(rel_diff(a.mean, b.mean), 1e-8);
      EXPECT_LE(rel_diff(a.second_moment, b.second_moment), 1e-8);
      // The variance differences two near-equal quantities; bound it by the
      // scale of the moments it came from rather than by itself.
      EXPECT_LE(std::abs(a.variance - b.variance),
                1e-7 * std::max(b.second_moment, 1.0));
    }
  }
}

TEST(FastForwardTest, ActivatesAndSkipsEpochsOnLongRuns) {
  const Config c = configs()[0];
  const net::NetworkSpec spec = make_spec(c);
  const core::TransientSolver solver(spec, c.workstations);
  obs::counters_reset();
  (void)solver.makespan(5000);
  EXPECT_GE(obs::counter_value(obs::Counter::kFastForwardActivations), 1u);
  // Mixing takes far fewer than 5000 epochs on this network; nearly all of
  // the saturated phase must be closed analytically.
  EXPECT_GE(obs::counter_value(obs::Counter::kEpochsSkipped), 4000u);
  const std::uint64_t live =
      obs::counter_value(obs::Counter::kEpochRecursions);
  EXPECT_LT(live, 1000u);

  // Turned off, every saturated epoch runs: makespan(N) advances the
  // recursion N - K times (the drain is column solves, not epochs).
  core::QueryOptions exact;
  exact.fast_forward = false;
  const core::TransientSolver off(spec, c.workstations, {}, exact);
  obs::counters_reset();
  (void)off.makespan(5000);
  EXPECT_EQ(obs::counter_value(obs::Counter::kFastForwardActivations), 0u);
  EXPECT_EQ(obs::counter_value(obs::Counter::kEpochsSkipped), 0u);
  EXPECT_EQ(obs::counter_value(obs::Counter::kEpochRecursions),
            5000u - c.workstations);
}

}  // namespace
