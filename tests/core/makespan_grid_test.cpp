// Single-pass N-grid evaluation: makespan_grid / makespan_moments_grid must
// agree with the per-N recursion to solver precision on every config, with
// fast-forward both on and off — the grid is a prefix harvest of the same
// recursion, not an approximation.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <thread>
#include <vector>

#include "cluster/builders.h"
#include "cluster/experiments.h"
#include "core/model_cache.h"
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

TEST(MakespanGridTest, MatchesPerNMakespanAllConfigs) {
  for (const bool fast_forward : {true, false}) {
    for (const Config& c : configs()) {
      SCOPED_TRACE(std::string(c.name) +
                   (fast_forward ? " ff=on" : " ff=off"));
      const net::NetworkSpec spec = make_spec(c);
      core::QueryOptions opts;
      opts.fast_forward = fast_forward;
      const core::TransientSolver solver(spec, c.workstations, {}, opts);

      const std::size_t k = c.workstations;
      const std::vector<std::size_t> grid{k, 2 * k, 100, 5000};
      const std::vector<double> batch = solver.makespan_grid(grid);
      ASSERT_EQ(batch.size(), grid.size());
      for (std::size_t i = 0; i < grid.size(); ++i) {
        SCOPED_TRACE("N=" + std::to_string(grid[i]));
        // The forward timeline, an independent path: makespan() is itself
        // a one-point grid.
        const double per_n = solver.solve(grid[i]).makespan;
        EXPECT_GT(batch[i], 0.0);
        EXPECT_LE(rel_diff(batch[i], per_n), 1e-10);
      }
    }
  }
}

TEST(MakespanGridTest, HandlesSubKWorkloads) {
  // N < K never saturates: the grid harvests those points from the drain
  // recursion alone, matching solve()'s "cluster of size N" semantics.
  const Config c = configs()[0];
  const core::TransientSolver solver(make_spec(c), c.workstations);
  std::vector<std::size_t> grid;
  for (std::size_t n = 1; n <= c.workstations; ++n) grid.push_back(n);
  const std::vector<double> batch = solver.makespan_grid(grid);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    SCOPED_TRACE("N=" + std::to_string(grid[i]));
    EXPECT_LE(rel_diff(batch[i], solver.makespan(grid[i])), 1e-10);
  }
}

TEST(MakespanGridTest, PreservesInputOrderWithDuplicates) {
  const Config c = configs()[2];
  const core::TransientSolver solver(make_spec(c), c.workstations);
  const std::vector<std::size_t> grid{200, 2, 200, 7, 40, 2};
  const std::vector<double> batch = solver.makespan_grid(grid);
  ASSERT_EQ(batch.size(), grid.size());
  EXPECT_EQ(batch[0], batch[2]);
  EXPECT_EQ(batch[1], batch[5]);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_LE(rel_diff(batch[i], solver.makespan(grid[i])), 1e-10);
  }
}

TEST(MakespanGridTest, ValidatesInput) {
  const Config c = configs()[0];
  const core::TransientSolver solver(make_spec(c), c.workstations);
  EXPECT_TRUE(solver.makespan_grid({}).empty());
  const std::vector<std::size_t> bad{10, 0};
  EXPECT_THROW((void)solver.makespan_grid(bad), std::invalid_argument);
}

TEST(MakespanGridTest, CountsGridPointsPerPass) {
  const Config c = configs()[0];
  const core::TransientSolver solver(make_spec(c), c.workstations);
  const std::uint64_t before =
      obs::counter_value(obs::Counter::kGridPointsPerPass);
  const std::vector<std::size_t> grid{5, 50, 500};
  (void)solver.makespan_grid(grid);
  EXPECT_EQ(obs::counter_value(obs::Counter::kGridPointsPerPass),
            before + grid.size());
}

TEST(MakespanMomentsGridTest, MatchesPerNMomentsAllConfigs) {
  for (const bool fast_forward : {true, false}) {
    for (const Config& c : configs()) {
      SCOPED_TRACE(std::string(c.name) +
                   (fast_forward ? " ff=on" : " ff=off"));
      const net::NetworkSpec spec = make_spec(c);
      core::QueryOptions opts;
      opts.fast_forward = fast_forward;
      const core::TransientSolver solver(spec, c.workstations, {}, opts);

      const std::size_t k = c.workstations;
      // 2000 keeps the ff=off double-pass affordable; ff=on covers the
      // closed-form tail the same way makespan_moments does.
      const std::vector<std::size_t> grid{1, k, 2 * k, 100, 2000};
      const auto batch = solver.makespan_moments_grid(grid);
      ASSERT_EQ(batch.size(), grid.size());
      for (std::size_t i = 0; i < grid.size(); ++i) {
        SCOPED_TRACE("N=" + std::to_string(grid[i]));
        const core::MakespanMoments per_n = solver.makespan_moments(grid[i]);
        EXPECT_LE(rel_diff(batch[i].mean, per_n.mean), 1e-10);
        EXPECT_LE(rel_diff(batch[i].second_moment, per_n.second_moment),
                  1e-10);
      }
    }
  }
}

TEST(MakespanGridTest, ConcurrentSweepPointsShareOneCachedModel) {
  // The figure-sweep shape: many threads, same cluster, different N — every
  // solver over the same cached artifacts, identical results.  This is the
  // TSan target for the concurrent cache paths.
  const Config c = configs()[1];
  const net::NetworkSpec spec = make_spec(c);
  core::ModelCache cache(4);
  const std::vector<std::size_t> grid{c.workstations, 25, 60, 300};

  constexpr std::size_t kThreads = 8;
  std::vector<std::vector<double>> results(kThreads);
  std::vector<const core::ModelArtifacts*> models(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const auto model = cache.acquire(spec, c.workstations);
        models[t] = model.get();
        const core::TransientSolver solver(model);
        results[t] = solver.makespan_grid(grid);
      });
    }
    for (std::thread& th : threads) th.join();
  }
  EXPECT_EQ(cache.stats().size, 1U);
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(models[t], models[0]) << "thread " << t;
    ASSERT_EQ(results[t].size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      // Same artifacts, same deterministic recursion: bit-identical.
      EXPECT_EQ(results[t][i], results[0][i]) << "thread " << t << " N index "
                                              << i;
    }
  }
}

TEST(MakespanGridTest, GridSweepMatchesPerPointSweep) {
  // End-to-end through the experiments layer: the ported grid-based
  // prediction-error sweep must reproduce the per-point computation.
  cluster::ExperimentConfig cfg;
  cfg.architecture = cluster::Architecture::kCentral;
  cfg.workstations = 3;
  cfg.shapes.remote_disk = cluster::ServiceShape::hyperexponential(10.0);
  const std::vector<std::size_t> task_counts{3, 30, 120};
  const std::vector<double> grid =
      cluster::cluster_prediction_error_grid(cfg, task_counts);
  ASSERT_EQ(grid.size(), task_counts.size());
  for (std::size_t i = 0; i < task_counts.size(); ++i) {
    EXPECT_NEAR(grid[i], cluster::cluster_prediction_error(cfg, task_counts[i]),
                1e-8);
  }
}

}  // namespace
