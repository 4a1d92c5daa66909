// The per-solver saturated memo: a fast-forward pass that closes keeps its
// N-independent trajectory, and every later fast-forward query on the same
// solver is answered from it — bit for bit what a fresh solver computes, in
// any query order, with no further epoch recursion.  Passes that never mix
// and exact (fast_forward off) queries keep no memo.

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "cluster/builders.h"
#include "cluster/experiments.h"
#include "core/model_cache.h"
#include "core/transient_solver.h"
#include "obs/counters.h"

namespace {

using namespace finwork;

struct Case {
  const char* name;
  std::shared_ptr<const core::ModelArtifacts> model;
  // Unsorted, with sub-K and repeated points; grid[0] is far past mixing.
  std::vector<std::size_t> grid;
};

std::shared_ptr<const core::ModelArtifacts> build(
    const cluster::ExperimentConfig& cfg) {
  return std::make_shared<const core::ModelArtifacts>(
      cluster::build_cluster(cfg), cfg.workstations, core::ModelOptions{});
}

// The large-N what-if model (distributed K = 6: D(6) = 3003, so level 6 is
// iterative) and central K = 4 with a C^2 = 10 remote disk (dense levels).
const std::vector<Case>& cases() {
  static const std::vector<Case> all = [] {
    cluster::ExperimentConfig distributed;
    distributed.architecture = cluster::Architecture::kDistributed;
    distributed.workstations = 6;
    cluster::ExperimentConfig central;
    central.architecture = cluster::Architecture::kCentral;
    central.workstations = 4;
    central.shapes.remote_disk = cluster::ServiceShape::hyperexponential(10.0);
    return std::vector<Case>{
        {"distributed-k6", build(distributed), {566938, 3, 9, 100, 6, 9}},
        {"central-k4-c2-10", build(central),
         {1000000, 1, 5, 4, 20000, 2000, 2, 60, 5}},
    };
  }();
  return all;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::uint64_t count(obs::Counter c) { return obs::counter_value(c); }

void expect_same_bits(const core::MakespanMoments& got,
                      const core::MakespanMoments& want) {
  EXPECT_EQ(bits(got.mean), bits(want.mean));
  EXPECT_EQ(bits(got.second_moment), bits(want.second_moment));
  EXPECT_EQ(bits(got.variance), bits(want.variance));
  EXPECT_EQ(bits(got.std_dev), bits(want.std_dev));
  EXPECT_EQ(bits(got.scv), bits(want.scv));
}

// What a solver with no memo returns: one fresh solver per point.
std::vector<double> fresh_makespans(const Case& c) {
  std::vector<double> out;
  for (std::size_t n : c.grid) {
    out.push_back(core::TransientSolver(c.model).makespan(n));
  }
  return out;
}

std::vector<core::MakespanMoments> fresh_moments(const Case& c) {
  std::vector<core::MakespanMoments> out;
  for (std::size_t n : c.grid) {
    out.push_back(core::TransientSolver(c.model).makespan_moments(n));
  }
  return out;
}

TEST(SaturatedMemo, MeanHitsMatchFreshPassesInEitherOrder) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    const std::vector<double> fresh = fresh_makespans(c);

    // Grid first: the grid pass mixes and keeps its trajectory; every
    // single-N query after it is a memo hit.
    {
      const core::TransientSolver solver(c.model);
      const std::vector<double> grid = solver.makespan_grid(c.grid);
      obs::counters_reset();
      for (std::size_t i = 0; i < c.grid.size(); ++i) {
        EXPECT_EQ(bits(grid[i]), bits(fresh[i])) << "N = " << c.grid[i];
        EXPECT_EQ(bits(solver.makespan(c.grid[i])), bits(fresh[i]))
            << "N = " << c.grid[i];
      }
      EXPECT_EQ(count(obs::Counter::kEpochRecursions), 0u);
      EXPECT_EQ(count(obs::Counter::kEpochsSkipped), 0u);
      EXPECT_EQ(count(obs::Counter::kFastForwardActivations), 0u);
      EXPECT_GE(count(obs::Counter::kTrajectoryReuses), 1u);
    }
    // Single-N first: its pass keeps the trajectory the grid then reads.
    {
      const core::TransientSolver solver(c.model);
      EXPECT_EQ(bits(solver.makespan(c.grid[0])), bits(fresh[0]));
      obs::counters_reset();
      const std::vector<double> grid = solver.makespan_grid(c.grid);
      for (std::size_t i = 0; i < c.grid.size(); ++i) {
        EXPECT_EQ(bits(grid[i]), bits(fresh[i])) << "N = " << c.grid[i];
      }
      EXPECT_EQ(count(obs::Counter::kEpochRecursions), 0u);
      EXPECT_EQ(count(obs::Counter::kEpochsSkipped), 0u);
      EXPECT_EQ(count(obs::Counter::kTrajectoryReuses), 1u);
    }
  }
}

TEST(SaturatedMemo, MomentsHitsMatchFreshPassesInEitherOrder) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    const std::vector<core::MakespanMoments> fresh = fresh_moments(c);

    {
      const core::TransientSolver solver(c.model);
      const std::vector<core::MakespanMoments> grid =
          solver.makespan_moments_grid(c.grid);
      obs::counters_reset();
      for (std::size_t i = 0; i < c.grid.size(); ++i) {
        SCOPED_TRACE(c.grid[i]);
        expect_same_bits(grid[i], fresh[i]);
        expect_same_bits(solver.makespan_moments(c.grid[i]), fresh[i]);
      }
      EXPECT_EQ(count(obs::Counter::kEpochsSkipped), 0u);
      EXPECT_EQ(count(obs::Counter::kFastForwardActivations), 0u);
      EXPECT_EQ(count(obs::Counter::kIterativeSolves) +
                    count(obs::Counter::kDenseSolves),
                0u);
      EXPECT_GE(count(obs::Counter::kTrajectoryReuses), 1u);
    }
    {
      const core::TransientSolver solver(c.model);
      expect_same_bits(solver.makespan_moments(c.grid[0]), fresh[0]);
      obs::counters_reset();
      const std::vector<core::MakespanMoments> grid =
          solver.makespan_moments_grid(c.grid);
      for (std::size_t i = 0; i < c.grid.size(); ++i) {
        SCOPED_TRACE(c.grid[i]);
        expect_same_bits(grid[i], fresh[i]);
      }
      EXPECT_EQ(count(obs::Counter::kIterativeSolves) +
                    count(obs::Counter::kDenseSolves),
                0u);
      EXPECT_EQ(count(obs::Counter::kTrajectoryReuses), 1u);
    }
  }
}

TEST(SaturatedMemo, MeanAndMomentsMemosAreIndependent) {
  const Case& c = cases()[1];
  const core::TransientSolver solver(c.model);
  (void)solver.makespan_moments(c.grid[0]);
  // A moments memo does not serve the mean: the first mean query still runs
  // its own recursion, the second reads the mean memo.
  obs::counters_reset();
  const double first = solver.makespan(c.grid[0]);
  EXPECT_GT(count(obs::Counter::kEpochRecursions), 0u);
  EXPECT_EQ(count(obs::Counter::kTrajectoryReuses), 0u);
  obs::counters_reset();
  EXPECT_EQ(bits(solver.makespan(c.grid[0])), bits(first));
  EXPECT_EQ(count(obs::Counter::kEpochRecursions), 0u);
  EXPECT_EQ(count(obs::Counter::kTrajectoryReuses), 1u);
}

TEST(SaturatedMemo, MixedSubKAndSaturatingGrids) {
  const Case& c = cases()[1];  // K = 4
  const core::TransientSolver solver(c.model);
  (void)solver.makespan_grid(c.grid);  // keeps the mean memo
  (void)solver.makespan_moments_grid(c.grid);  // keeps the moments memo
  // Only sub-K points: answered by the drain vectors, memo untouched.
  const std::vector<std::size_t> sub_k = {3, 1, 2, 3};
  const std::vector<double> means = solver.makespan_grid(sub_k);
  const std::vector<core::MakespanMoments> moments =
      solver.makespan_moments_grid(sub_k);
  // Mixed: sub-K, exactly K, below mixing and far past it.
  const std::vector<std::size_t> mixed = {7, 3, 4, 250000, 1, 5, 4};
  const std::vector<double> mixed_means = solver.makespan_grid(mixed);
  const std::vector<core::MakespanMoments> mixed_moments =
      solver.makespan_moments_grid(mixed);
  for (std::size_t i = 0; i < sub_k.size(); ++i) {
    const core::TransientSolver fresh(c.model);
    EXPECT_EQ(bits(means[i]), bits(fresh.makespan(sub_k[i])));
    expect_same_bits(moments[i], fresh.makespan_moments(sub_k[i]));
  }
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    SCOPED_TRACE(mixed[i]);
    const core::TransientSolver fresh(c.model);
    EXPECT_EQ(bits(mixed_means[i]), bits(fresh.makespan(mixed[i])));
    expect_same_bits(mixed_moments[i], fresh.makespan_moments(mixed[i]));
  }
  EXPECT_TRUE(solver.makespan_grid({}).empty());
  EXPECT_THROW((void)solver.makespan_grid(std::vector<std::size_t>{5, 0}),
               std::invalid_argument);
}

TEST(SaturatedMemo, MemoHitsAgreeWithExactRecursion) {
  // The fresh-solver comparisons above share the closed-form tail with the
  // memo; the exact epoch-by-epoch recursion is independent of both.
  const Case& c = cases()[1];  // K = 4
  const core::TransientSolver solver(c.model);
  (void)solver.makespan_grid(c.grid);
  (void)solver.makespan_moments_grid(c.grid);
  core::QueryOptions exact_opts;
  exact_opts.fast_forward = false;
  const core::TransientSolver exact(c.model, exact_opts);
  for (std::size_t n : {9u, 60u, 2000u}) {
    SCOPED_TRACE(n);
    const double want = exact.makespan(n);
    EXPECT_NEAR(solver.makespan(n), want, 1e-9 * want);
    const core::MakespanMoments got_m = solver.makespan_moments(n);
    const core::MakespanMoments want_m = exact.makespan_moments(n);
    EXPECT_NEAR(got_m.mean, want_m.mean, 1e-9 * want_m.mean);
    EXPECT_NEAR(got_m.variance, want_m.variance, 1e-8 * want_m.variance);
  }
}

TEST(SaturatedMemo, PassThatDoesNotMixKeepsNoMemo) {
  const Case& c = cases()[1];  // K = 4
  const core::TransientSolver solver(c.model);
  const std::vector<std::size_t> small = {5, 6};  // j <= 2: cannot close
  const std::vector<double> first = solver.makespan_grid(small);
  const std::vector<core::MakespanMoments> first_m =
      solver.makespan_moments_grid(small);
  obs::counters_reset();
  const std::vector<double> second = solver.makespan_grid(small);
  const std::vector<core::MakespanMoments> second_m =
      solver.makespan_moments_grid(small);
  EXPECT_EQ(count(obs::Counter::kEpochRecursions), 2u);
  EXPECT_GT(count(obs::Counter::kDenseSolves), 0u);
  EXPECT_EQ(count(obs::Counter::kTrajectoryReuses), 0u);
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(bits(second[i]), bits(first[i]));
    expect_same_bits(second_m[i], first_m[i]);
  }
}

TEST(SaturatedMemo, FastForwardOffNeitherReadsNorWrites) {
  const Case& c = cases()[1];  // K = 4
  core::QueryOptions exact;
  exact.fast_forward = false;
  const core::TransientSolver solver(c.model, exact);
  constexpr std::size_t n = 300;
  const double mean = solver.makespan(n);
  const core::MakespanMoments moments = solver.makespan_moments(n);
  obs::counters_reset();
  // Every repeat runs the full recursion again and matches a fresh exact
  // solver bit for bit.
  EXPECT_EQ(bits(solver.makespan(n)), bits(mean));
  expect_same_bits(solver.makespan_moments(n), moments);
  EXPECT_EQ(count(obs::Counter::kEpochRecursions), n - 4);
  EXPECT_EQ(count(obs::Counter::kTrajectoryReuses), 0u);
  EXPECT_EQ(count(obs::Counter::kFastForwardActivations), 0u);
  const core::TransientSolver fresh(c.model, exact);
  EXPECT_EQ(bits(fresh.makespan(n)), bits(mean));
  expect_same_bits(fresh.makespan_moments(n), moments);
}

}  // namespace
