// Randomized differential property suite (docs/ROBUSTNESS.md): ~50 seeded
// random cluster models (Erlang / hyperexponential / scv-dispatched mixture
// service shapes, K in {2..6}, workloads up to N = 200) are pushed through
// the full solver pipeline and checked against properties that hold for
// *every* finite-workload model:
//
//   - the run completes with no invariant-checker violation (Debug builds
//     compile the checks into the hot paths),
//   - E(T) is nondecreasing in the workload N,
//   - at N = K the three independent recursions (epoch timeline, absorbing-
//     chain moments, single-pass grid) give the same drain-time makespan,
//   - fast-forward on and off agree to 1e-8 relative.
//
// Seeds are fixed: every run tests the same 50 models.  TEST_P keeps the
// models as separate ctest entries so `ctest -j` shards them across cores.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <random>
#include <vector>

#include "cluster/experiments.h"
#include "core/model_cache.h"
#include "core/transient_solver.h"

namespace cluster = finwork::cluster;
namespace core = finwork::core;

namespace {

struct RandomModel {
  cluster::ExperimentConfig config;
  std::size_t workstations = 2;
  std::size_t n_max = 2;
};

// Service shapes are drawn so the phase count stays small for big K: the
// level-K state space grows combinatorially in (stations x phases), and the
// suite must stay cheap enough to run under TSan.
cluster::ServiceShape draw_shape(std::mt19937& rng, std::size_t workstations) {
  std::uniform_int_distribution<int> which(0, 3);
  switch (which(rng)) {
    case 0:
      return cluster::ServiceShape::exponential();
    case 1: {
      const std::size_t max_stages = workstations >= 5 ? 2 : 4;
      std::uniform_int_distribution<std::size_t> stages(2, max_stages);
      return cluster::ServiceShape::erlang(stages(rng));
    }
    case 2: {
      std::uniform_real_distribution<double> scv(2.0, 20.0);
      return cluster::ServiceShape::hyperexponential(scv(rng));
    }
    default: {
      // from_scv dispatches to mixed-Erlang / Exp / H2 depending on the
      // value, so this arm covers the mixture fitter.
      const double lo = workstations >= 5 ? 0.5 : 0.2;
      std::uniform_real_distribution<double> scv(lo, 12.0);
      return cluster::ServiceShape::from_scv(scv(rng));
    }
  }
}

RandomModel draw_model(std::uint32_t seed) {
  std::mt19937 rng(seed);
  RandomModel m;
  std::uniform_int_distribution<std::size_t> k_dist(2, 6);
  m.workstations = k_dist(rng);
  // Distributed clusters add one disk station per workstation; cap K there
  // so the state space stays test-sized.
  std::bernoulli_distribution distributed(0.35);
  m.config.architecture =
      (m.workstations <= 4 && distributed(rng))
          ? cluster::Architecture::kDistributed
          : cluster::Architecture::kCentral;
  m.config.workstations = m.workstations;

  std::uniform_real_distribution<double> local_time(1.0, 20.0);
  std::uniform_real_distribution<double> cpu_fraction(0.3, 1.0);
  std::uniform_real_distribution<double> remote_time(0.5, 5.0);
  std::uniform_real_distribution<double> comm_factor(0.05, 0.5);
  std::uniform_real_distribution<double> mean_cycles(2.0, 40.0);
  std::uniform_real_distribution<double> remote_share(0.1, 0.9);
  m.config.app.local_time = local_time(rng);
  m.config.app.cpu_fraction = cpu_fraction(rng);
  m.config.app.remote_time = remote_time(rng);
  m.config.app.comm_factor = comm_factor(rng);
  m.config.app.mean_cycles = mean_cycles(rng);
  m.config.app.remote_share = remote_share(rng);

  m.config.shapes.cpu = draw_shape(rng, m.workstations);
  m.config.shapes.local_disk = draw_shape(rng, m.workstations);
  m.config.shapes.comm = draw_shape(rng, m.workstations);
  m.config.shapes.remote_disk = draw_shape(rng, m.workstations);

  std::uniform_int_distribution<std::size_t> n_dist(m.workstations, 200);
  m.n_max = n_dist(rng);
  return m;
}

class RandomModelPropertyTest : public ::testing::TestWithParam<std::uint32_t> {
};

}  // namespace

TEST_P(RandomModelPropertyTest, SolverInvariantsHold) {
  const RandomModel m = draw_model(0x5EED0000u + GetParam());
  const finwork::net::NetworkSpec spec = cluster::build_cluster(m.config);
  const std::size_t k = m.workstations;

  const auto model = core::ModelCache::global().acquire(spec, k);
  const core::TransientSolver solver(model);

  // E(T) nondecreasing in N (one extra task can never finish the run
  // earlier).  One single-pass grid covers the whole workload range.
  std::vector<std::size_t> grid;
  for (std::size_t n = k; n <= m.n_max;
       n += std::max<std::size_t>(1, m.n_max / 16)) {
    grid.push_back(n);
  }
  if (grid.back() != m.n_max) grid.push_back(m.n_max);
  const std::vector<double> makespans = solver.makespan_grid(grid);
  ASSERT_EQ(makespans.size(), grid.size());
  for (std::size_t i = 0; i < makespans.size(); ++i) {
    EXPECT_GT(makespans[i], 0.0) << "N=" << grid[i];
    if (i > 0) {
      EXPECT_GE(makespans[i], makespans[i - 1] * (1.0 - 1e-9))
          << "E(T) decreased between N=" << grid[i - 1] << " and N="
          << grid[i];
    }
  }

  // N = K: the run is pure draining, and the epoch-timeline recursion, the
  // absorbing-chain moment recursion and the grid sweep must all produce the
  // same drain time.
  const core::DepartureTimeline drain = solver.solve(k);
  const core::MakespanMoments drain_moments = solver.makespan_moments(k);
  const std::vector<std::size_t> drain_n{k};
  const double drain_grid = solver.makespan_grid(drain_n).front();
  EXPECT_NEAR(drain_moments.mean, drain.makespan, 1e-8 * drain.makespan);
  EXPECT_NEAR(drain_grid, drain.makespan, 1e-8 * drain.makespan);
  EXPECT_GE(drain_moments.variance, -1e-9);

  // Fast-forward is a pure accelerator: on and off must agree to 1e-8
  // relative on both the makespan and its second moment.  Compared at a
  // moderate N so the exact (no fast-forward) recursion stays cheap.
  const std::size_t n_cmp = std::min<std::size_t>(m.n_max, 60);
  core::QueryOptions exact;
  exact.fast_forward = false;
  const core::TransientSolver exact_solver(model, exact);
  const double ff_on = solver.makespan(n_cmp);
  const double ff_off = exact_solver.makespan(n_cmp);
  EXPECT_NEAR(ff_on, ff_off, 1e-8 * ff_off) << "N=" << n_cmp;
  const core::MakespanMoments mm_on = solver.makespan_moments(n_cmp);
  const core::MakespanMoments mm_off = exact_solver.makespan_moments(n_cmp);
  EXPECT_NEAR(mm_on.mean, mm_off.mean, 1e-8 * mm_off.mean);
  EXPECT_NEAR(mm_on.second_moment, mm_off.second_moment,
              1e-8 * mm_off.second_moment);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomModelPropertyTest,
                         ::testing::Range(std::uint32_t{0}, std::uint32_t{50}));
