// Integration: the qualitative claims of the paper's evaluation (Figures
// 3-15) that a successful reproduction must reproduce.  Each test encodes a
// figure's *shape* — who wins, what grows, where the regions fall.

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "cluster/experiments.h"
#include "core/metrics.h"
#include "core/model_cache.h"
#include "core/transient_solver.h"
#include "linalg/solver_error.h"
#include "network/state_space.h"

namespace cluster = finwork::cluster;
namespace core = finwork::core;

namespace {

cluster::ExperimentConfig central(std::size_t k) {
  cluster::ExperimentConfig cfg;
  cfg.architecture = cluster::Architecture::kCentral;
  cfg.workstations = k;
  return cfg;
}

/// §6.2 experiments (Figs. 10-15) model a coarse-grained compute-bound
/// application so the per-task distribution inherits the CPU's C^2 (see
/// ApplicationModel::coarse_grained).
cluster::ExperimentConfig central_coarse(std::size_t k) {
  cluster::ExperimentConfig cfg = central(k);
  cfg.app = cluster::ApplicationModel::coarse_grained();
  return cfg;
}

cluster::ClusterShapes remote_scv(double scv) {
  cluster::ClusterShapes s;
  s.remote_disk = cluster::ServiceShape::from_scv(scv);
  return s;
}

cluster::ClusterShapes cpu_scv(double scv) {
  cluster::ClusterShapes s;
  s.cpu = cluster::ServiceShape::from_scv(scv);
  return s;
}

}  // namespace

TEST(PaperShapes, Fig3_ThreeRegionsVisible) {
  // 30 tasks, K = 5, H2 shared disk: warm-up rises to steady level, then
  // draining slows down sharply.
  cluster::ExperimentConfig cfg = central(5);
  cfg.shapes = remote_scv(10.0);
  const core::TransientSolver solver(cluster::build_cluster(cfg), 5);
  const auto tl = solver.solve(30);
  const double t_ss = solver.steady_state().interdeparture;
  // First epoch beats steady state (all queues empty).
  EXPECT_LT(tl.epoch_times[0], t_ss);
  // Middle epochs have settled.
  EXPECT_NEAR(tl.epoch_times[20], t_ss, 0.02 * t_ss);
  // Final draining epoch far above steady level.
  EXPECT_GT(tl.epoch_times[29], 1.5 * t_ss);
}

TEST(PaperShapes, Fig3_HigherC2SlowerSteadyState) {
  // The Exp / C2=10 / C2=50 curves order by C2 in the steady region.
  double prev = 0.0;
  for (double scv : {1.0, 10.0, 50.0}) {
    cluster::ExperimentConfig cfg = central(5);
    cfg.shapes = remote_scv(scv);
    const core::TransientSolver solver(cluster::build_cluster(cfg), 5);
    const double t_ss = solver.steady_state().interdeparture;
    EXPECT_GT(t_ss, prev) << "scv " << scv;
    prev = t_ss;
  }
}

TEST(PaperShapes, Fig4_LargerClusterFasterDepartures) {
  // K = 8 drains the same workload faster than K = 5 per departure.
  for (double scv : {1.0, 10.0}) {
    cluster::ExperimentConfig cfg5 = central(5);
    cfg5.shapes = remote_scv(scv);
    cluster::ExperimentConfig cfg8 = central(8);
    cfg8.shapes = remote_scv(scv);
    EXPECT_LT(cluster::cluster_makespan(cfg8, 30),
              cluster::cluster_makespan(cfg5, 30));
  }
}

TEST(PaperShapes, Fig5_NoContentionInsensitiveToDistribution) {
  // Without queueing at the shared disk, the mean behavior cannot depend on
  // the service distribution beyond its mean.
  const auto table =
      cluster::steady_state_vs_scv(central(8), {1.0, 25.0, 100.0});
  EXPECT_NEAR(table.at(0, 2), table.at(1, 2), 1e-6);
  EXPECT_NEAR(table.at(1, 2), table.at(2, 2), 1e-6);
}

TEST(PaperShapes, Fig5_ContentionGrowsWithC2AtHighVariance) {
  const auto table =
      cluster::steady_state_vs_scv(central(8), {10.0, 50.0, 100.0});
  EXPECT_GT(table.at(1, 1), table.at(0, 1));
  EXPECT_GT(table.at(2, 1), table.at(1, 1));
}

TEST(PaperShapes, Fig6_7_PredictionErrorGrowsWithC2) {
  // The paper: the error "always increases with increasing C2" (shared
  // non-exponential storage).  Our absolute magnitudes are smaller than the
  // paper's (their shared device ran hotter; closed-network feedback caps
  // the discrepancy at our utilisation — see EXPERIMENTS.md), so we assert
  // monotone growth plus a material error at the top of the sweep.
  for (auto arch : {cluster::Architecture::kCentral,
                    cluster::Architecture::kDistributed}) {
    cluster::ExperimentConfig cfg = central(5);
    cfg.architecture = arch;
    const auto table =
        cluster::prediction_error_vs_scv(cfg, {1.0, 10.0, 50.0, 90.0}, {30});
    double prev = -1.0;
    for (std::size_t r = 0; r < table.num_rows(); ++r) {
      EXPECT_GT(table.at(r, 1), prev);
      prev = table.at(r, 1);
    }
    EXPECT_GT(table.at(3, 1), 7.0);  // material error at C2 = 90
  }
}

TEST(PaperShapes, Fig6_7_LargerWorkloadLargerError) {
  // Contention lives in the steady region, so N = 100 shows more of it
  // than N = 30 (visible in the paper's two curves).
  cluster::ExperimentConfig cfg = central(5);
  const auto table =
      cluster::prediction_error_vs_scv(cfg, {10.0, 50.0}, {30, 100});
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    EXPECT_GT(table.at(r, 2), table.at(r, 1));
  }
}

TEST(PaperShapes, Fig8_9_SpeedupFallsWithC2AndRisesWithN) {
  for (std::size_t k : {5u, 8u}) {
    const auto table =
        cluster::speedup_vs_scv(central(k), {1.0, 30.0, 90.0}, {30, 100});
    // Speedup decreases with C2 for both N.
    for (std::size_t c : {1u, 2u}) {
      EXPECT_GT(table.at(0, c), table.at(1, c)) << k;
      EXPECT_GT(table.at(1, c), table.at(2, c)) << k;
    }
    // N = 100 achieves higher speedup than N = 30 at every C2.
    for (std::size_t r = 0; r < table.num_rows(); ++r) {
      EXPECT_GT(table.at(r, 2), table.at(r, 1)) << k;
    }
  }
}

TEST(PaperShapes, Fig10_11_DedicatedErlangCloseToExpHyperexpDiffers) {
  // Paper: "the application tends to behave the same for exponential and
  // E3 ... significant change if the service distribution is H2."
  cluster::ExperimentConfig exp_cfg = central_coarse(5);
  cluster::ExperimentConfig e3_cfg = central_coarse(5);
  e3_cfg.shapes = cpu_scv(1.0 / 3.0);
  cluster::ExperimentConfig h2_cfg = central_coarse(5);
  h2_cfg.shapes = cpu_scv(2.0);

  const double m_exp = cluster::cluster_makespan(exp_cfg, 20);
  const double m_e3 = cluster::cluster_makespan(e3_cfg, 20);
  const double m_h2 = cluster::cluster_makespan(h2_cfg, 20);
  EXPECT_LT(std::abs(m_e3 - m_exp) / m_exp, 0.08);
  EXPECT_GT(std::abs(m_h2 - m_exp), std::abs(m_e3 - m_exp));
}

TEST(PaperShapes, Fig10_11_AllDistributionsShareSteadyState) {
  // Dedicated non-exponential servers: all three distributions approach the
  // same steady-state interdeparture time (product-form value).
  double reference = -1.0;
  for (double scv : {1.0, 1.0 / 3.0, 2.0}) {
    cluster::ExperimentConfig cfg = central_coarse(5);
    cfg.shapes = cpu_scv(scv);
    const core::TransientSolver solver(cluster::build_cluster(cfg), 5);
    const double t_ss = solver.steady_state().interdeparture;
    if (reference < 0.0) {
      reference = t_ss;
    } else {
      EXPECT_NEAR(t_ss, reference, 1e-6 * reference) << scv;
    }
  }
}

TEST(PaperShapes, Fig12_13_ErlangSmallErrorHyperexpLarge) {
  // Dedicated-CPU error bars: C2 < 1 gives small (possibly negative) error,
  // C2 > 1 grows positive.
  const auto table = cluster::prediction_error_vs_cpu_scv(
      central_coarse(5), {1.0 / 3.0, 0.5, 1.0, 5.0, 10.0}, {20});
  EXPECT_LT(std::abs(table.at(0, 1)), 5.0);   // E3: small
  EXPECT_LT(std::abs(table.at(1, 1)), 5.0);   // E2: small
  EXPECT_NEAR(table.at(2, 1), 0.0, 1e-6);     // Exp: zero
  EXPECT_GT(table.at(3, 1), table.at(2, 1));  // H2 C2=5
  EXPECT_GT(table.at(4, 1), table.at(3, 1));  // H2 C2=10
  // Erlang errors have opposite sign to hyperexponential errors.
  EXPECT_LT(table.at(0, 1), 0.0);
}

TEST(PaperShapes, Fig14_TransientRegionDepressesSpeedup) {
  // Speedup vs K for N = 20, 100, 200: more tasks => closer to linear.
  const auto table =
      cluster::speedup_vs_k(central_coarse(1), {2, 4, 8}, {20, 100, 200});
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    EXPECT_LT(table.at(r, 1), table.at(r, 2));
    EXPECT_LT(table.at(r, 2), table.at(r, 3));
  }
  // Diminishing returns: SP(8) < 2 * SP(4) for the small workload.
  EXPECT_LT(table.at(2, 1), 2.0 * table.at(1, 1));
}

TEST(PaperShapes, Fig15_DistributionOrderingOfSpeedup) {
  const std::vector<cluster::ShapeVariant> variants = {
      {"Exp", {}},
      {"E2", cpu_scv(0.5)},
      {"H2", cpu_scv(2.0)},
  };
  const auto table =
      cluster::speedup_vs_k_shapes(central_coarse(1), {4, 8}, variants, 100);
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    // Exp and E2 close; H2 strictly worse.
    EXPECT_NEAR(table.at(r, 1), table.at(r, 2), 0.06 * table.at(r, 1));
    EXPECT_GT(table.at(r, 1), table.at(r, 3));
  }
}

TEST(PaperShapes, RegionFractionsShiftWithWorkload) {
  // N = 30 vs N = 100 on K = 8: the steady fraction must grow with N.
  cluster::ExperimentConfig cfg = central(8);
  cfg.shapes = remote_scv(10.0);
  const core::TransientSolver solver(cluster::build_cluster(cfg), 8);
  const double t_ss = solver.steady_state().interdeparture;
  const auto ra30 = core::classify_regions(solver.solve(30), t_ss);
  const auto ra100 = core::classify_regions(solver.solve(100), t_ss);
  EXPECT_GT(ra100.steady_fraction, ra30.steady_fraction);
  EXPECT_LT(ra100.draining_fraction, ra30.draining_fraction);
}

namespace {

struct IterativeCase {
  std::string name;
  cluster::ExperimentConfig config;
};

// Test names carry the case name, not a byte dump of the config.
void PrintTo(const IterativeCase& c, std::ostream* os) { *os << c.name; }

/// The paper's shapes and the extreme ones the config accepts (C^2 = 100,
/// a power tail, Erlang-100 CPU or remote disk), each on a small cluster.
/// Left out: an Erlang-100 CPU together with an Erlang-100 remote disk,
/// on which the iterative stage throws (ErlangLimit below).
std::vector<IterativeCase> iterative_cases() {
  std::vector<IterativeCase> cases;
  const auto add = [&](std::string name, cluster::ExperimentConfig cfg) {
    cases.push_back({std::move(name), std::move(cfg)});
  };
  cluster::ExperimentConfig fig3 = central(5);
  fig3.shapes = remote_scv(10.0);
  add("Fig3RemoteScv10", fig3);
  cluster::ExperimentConfig fig5 = central(5);
  fig5.shapes = remote_scv(100.0);
  add("Fig5RemoteScv100", fig5);
  cluster::ExperimentConfig fig6 = central(3);
  fig6.architecture = cluster::Architecture::kDistributed;
  fig6.shapes = remote_scv(90.0);
  add("Fig6DistributedScv90", fig6);
  cluster::ExperimentConfig fig10 = central_coarse(5);
  fig10.shapes = cpu_scv(2.0);
  add("Fig10CpuH2", fig10);
  cluster::ExperimentConfig tail = central(3);
  tail.shapes.remote_disk = cluster::ServiceShape::power_tail(1.4, 8);
  add("RemotePowerTail", tail);
  cluster::ExperimentConfig erlang_cpu = central_coarse(2);
  erlang_cpu.shapes.cpu = cluster::ServiceShape::erlang(100);
  add("CpuErlang100", erlang_cpu);
  cluster::ExperimentConfig erlang_disk = central(2);
  erlang_disk.shapes.remote_disk = cluster::ServiceShape::erlang(100);
  add("RemoteErlang100", erlang_disk);
  cluster::ExperimentConfig erlang_disk_distributed = central(1);
  erlang_disk_distributed.architecture = cluster::Architecture::kDistributed;
  erlang_disk_distributed.shapes.remote_disk = erlang_disk.shapes.remote_disk;
  add("DistributedRemoteErlang100", erlang_disk_distributed);
  return cases;
}

class IterativeBackend : public ::testing::TestWithParam<IterativeCase> {};

/// makespan_grid and makespan_moments_grid of `spec` at population `k`,
/// built with `opts`, against a model that factors every level: each value
/// to 1e-8 relative.
void expect_matches_the_dense_lu(const finwork::net::NetworkSpec& spec,
                                 std::size_t k, const core::ModelOptions& opts) {
  core::ModelOptions dense_opts;
  dense_opts.dense_threshold = 100000;
  const core::TransientSolver tested(
      std::make_shared<const core::ModelArtifacts>(spec, k, opts));
  const core::TransientSolver dense(
      std::make_shared<const core::ModelArtifacts>(spec, k, dense_opts));
  const std::vector<std::size_t> grid{k, 10, 50};

  const std::vector<double> got = tested.makespan_grid(grid);
  const std::vector<core::MakespanMoments> got_moments =
      tested.makespan_moments_grid(grid);

  const std::vector<double> want = dense.makespan_grid(grid);
  const std::vector<core::MakespanMoments> want_moments =
      dense.makespan_moments_grid(grid);
  ASSERT_EQ(got.size(), grid.size());
  ASSERT_EQ(got_moments.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-8 * want[i]) << "N=" << grid[i];
    EXPECT_NEAR(got_moments[i].mean, want_moments[i].mean,
                1e-8 * want_moments[i].mean)
        << "N=" << grid[i];
    EXPECT_NEAR(got_moments[i].second_moment, want_moments[i].second_moment,
                1e-8 * want_moments[i].second_moment)
        << "N=" << grid[i];
  }
}

}  // namespace

TEST_P(IterativeBackend, CompletesWithoutFallbackAndMatchesTheDenseLu) {
  // dense_threshold = 0 sends every level to the matrix-free backend, so a
  // shape on which Neumann, BiCGSTAB and GMRES all stall fails here instead
  // of throwing in a production model whose levels outgrow the threshold.
  const cluster::ExperimentConfig& cfg = GetParam().config;
  core::ModelOptions iterative_opts;
  iterative_opts.dense_threshold = 0;
  expect_matches_the_dense_lu(cluster::build_cluster(cfg), cfg.workstations,
                              iterative_opts);
}

INSTANTIATE_TEST_SUITE_P(
    PaperShapes, IterativeBackend, ::testing::ValuesIn(iterative_cases()),
    [](const ::testing::TestParamInfo<IterativeCase>& param_info) {
      return param_info.param.name;
    });

// Central K = 1 with an Erlang-100 CPU and remote disk, every level on the
// iterative stage: P_1 is close to a cyclic shift, Neumann and GMRES(30)
// stall at their caps, and BiCGSTAB's true residual never meets the target
// although its recurrence residual does.  Both queries throw
// non_convergence; neither returns a finite wrong makespan (it once read
// 5.8e15 with no error).  The throw leaves level 1 unbuilt, so both queries
// run on one model: the second builds the level again and throws again.
TEST(ErlangLimit, CpuAndDiskErlang100OnTheIterativeStageThrows) {
  cluster::ExperimentConfig cfg = central(1);
  cfg.shapes.cpu = cluster::ServiceShape::erlang(100);
  cfg.shapes.remote_disk = cluster::ServiceShape::erlang(100);
  core::ModelOptions iterative_opts;
  iterative_opts.dense_threshold = 0;
  const core::TransientSolver solver(std::make_shared<const core::ModelArtifacts>(
      cluster::build_cluster(cfg), 1, iterative_opts));
  const std::vector<std::size_t> grid{1, 10, 50};
  const auto expect_non_convergence = [&](const auto& query) {
    try {
      query();
      FAIL() << "expected SolverError";
    } catch (const finwork::SolverError& e) {
      EXPECT_EQ(e.kind(), finwork::SolverErrorKind::kNonConvergence);
      EXPECT_EQ(e.stage(), finwork::SolverStage::kGmres);
      EXPECT_EQ(e.context().level, 1u);
    }
  };
  expect_non_convergence([&] { (void)solver.makespan_grid(grid); });
  expect_non_convergence([&] { (void)solver.makespan_moments_grid(grid); });
}

// Central K = 5 with an Erlang-100 remote disk at the default
// dense_threshold: level 5 (D = 3521) is iterative, and on some of its
// solves BiCGSTAB stalls close to the answer.  GMRES continues from that
// iterate instead of from 0, so the queries converge and match a model
// that factors every level.
TEST(ErlangLimit, RemoteDiskErlang100AtK5MatchesTheDenseLu) {
  cluster::ExperimentConfig cfg = central(5);
  cfg.shapes.remote_disk = cluster::ServiceShape::erlang(100);
  const finwork::net::NetworkSpec spec = cluster::build_cluster(cfg);
  const core::ModelOptions default_opts;
  ASSERT_GT(finwork::net::StateSpace(spec, 5).dimension(5),
            default_opts.dense_threshold);
  expect_matches_the_dense_lu(spec, 5, default_opts);
}
