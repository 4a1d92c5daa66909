// Deterministic fault-injection regressions for the fallback ladder
// (docs/ROBUSTNESS.md).  Built only when FINWORK_FAULT_INJECT is ON (the
// debug-fault preset / CI fault-inject job): each test arms a named failure
// site, drives the solver through the degraded path, and asserts that the
// fallback reproduced the healthy numbers, that the right counters/events
// fired, and that exhaustion surfaces as the right SolverError.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "check/fault_inject.h"
#include "cluster/experiments.h"
#include "core/model_cache.h"
#include "core/transient_solver.h"
#include "linalg/iterative.h"
#include "linalg/solver_error.h"
#include "network/state_space.h"
#include "obs/counters.h"
#include "obs/sink.h"

namespace check = finwork::check;
namespace cluster = finwork::cluster;
namespace core = finwork::core;
namespace obs = finwork::obs;
using finwork::SolverError;
using finwork::SolverErrorKind;
using finwork::SolverStage;

static_assert(check::kFaultInjectEnabled,
              "fault_inject_test must be built with FINWORK_FAULT_INJECT=ON");

namespace {

finwork::net::NetworkSpec small_cluster(std::size_t workstations = 2) {
  cluster::ExperimentConfig cfg;
  cfg.workstations = workstations;
  return cluster::build_cluster(cfg);
}

bool saw_event(const std::string& category) {
  for (const obs::StructuredEvent& ev : obs::events_snapshot()) {
    if (ev.category == category) return true;
  }
  return false;
}

class FaultInjectTest : public ::testing::Test {
 protected:
  void SetUp() override { check::disarm_all_faults(); }
  void TearDown() override { check::disarm_all_faults(); }
};

}  // namespace

TEST_F(FaultInjectTest, RegistryListsEveryLadderSite) {
  const std::vector<std::string_view> sites = check::fault_sites();
  for (const char* expected :
       {"lu/factorize", "iterative/neumann", "iterative/bicgstab",
        "iterative/gmres", "cache/build", "state_space/assemble"}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), expected), sites.end())
        << expected;
  }
  EXPECT_THROW(check::arm_fault("no/such/site"), std::logic_error);
  EXPECT_THROW((void)check::fault_fire_count("no/such/site"),
               std::logic_error);
}

TEST_F(FaultInjectTest, SingularFactorizationThrowsWithItsLevel) {
  // A singular factor throws with the level it belongs to and the pivot
  // that failed.
  const finwork::net::NetworkSpec spec = small_cluster();
  const core::ModelArtifacts model(spec, 2);
  const std::uint64_t fired = check::fault_fire_count("lu/factorize");
  check::arm_fault("lu/factorize", 1);
  try {
    (void)model.tau(1);
    FAIL() << "expected SolverError";
  } catch (const SolverError& e) {
    EXPECT_EQ(e.kind(), SolverErrorKind::kSingular);
    EXPECT_EQ(e.stage(), SolverStage::kLuFactorize);
    EXPECT_EQ(e.context().level, 1u);
    EXPECT_EQ(e.context().pivot, 0u);
    EXPECT_NE(std::string(e.what()).find("injected"), std::string::npos);
  }
  EXPECT_EQ(check::fault_fire_count("lu/factorize"), fired + 1);
  // The throw left the level unbuilt, so the disarmed retry factors it and
  // keeps the dense bits.
  const core::ModelArtifacts healthy(spec, 2);
  EXPECT_EQ(model.level_factor_entries(1), healthy.level_factor_entries(1));
  EXPECT_GT(model.level_factor_entries(1), 0u);
  const finwork::la::Vector& got = model.tau(1);
  const finwork::la::Vector& want = healthy.tau(1);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "component " << i;
  }
}

TEST_F(FaultInjectTest, ExhaustedKrylovBackendsThrowNonConvergence) {
  // dense_threshold = 0: every level runs the matrix-free backend, so one
  // armed failure per backend exhausts the ladder on a single solve, in
  // default mode and in both directions (P^T for a row solve, P for a
  // column solve).  The level keeps solving once the probes are disarmed.
  core::ModelOptions opts;
  opts.dense_threshold = 0;
  const core::ModelArtifacts model(small_cluster(), 2, opts);
  const finwork::la::Vector b(model.space().dimension(2), 1.0);
  (void)model.tau(2);  // prepare the level with healthy solves first
  for (const bool left : {true, false}) {
    SCOPED_TRACE(left ? "solve_left" : "solve_right");
    const auto solve = [&] {
      return left ? model.solve_left(2, b) : model.solve_right(2, b);
    };
    const finwork::la::Vector reference = solve();
    const std::uint64_t gmres = check::fault_fire_count("iterative/gmres");
    check::arm_fault("iterative/neumann", 1);
    check::arm_fault("iterative/bicgstab", 1);
    check::arm_fault("iterative/gmres", 1);
    try {
      (void)solve();
      FAIL() << "expected SolverError";
    } catch (const SolverError& e) {
      EXPECT_EQ(e.kind(), SolverErrorKind::kNonConvergence);
      EXPECT_EQ(e.stage(), SolverStage::kGmres);
      EXPECT_EQ(e.context().level, 2u);
      EXPECT_EQ(e.context().dimension, model.space().dimension(2));
      EXPECT_GE(e.context().residual, 0.0);
    }
    check::disarm_all_faults();
    EXPECT_EQ(check::fault_fire_count("iterative/gmres"), gmres + 1);
    EXPECT_EQ(solve(), reference);
  }
}

TEST_F(FaultInjectTest, NeumannKernelProbeReportsNonConvergence) {
  // The in-place gather kernel the ladder runs carries the same probe as
  // the RowOperator Neumann solve: armed, it returns b unconverged.
  const finwork::net::StateSpace space(small_cluster(), 2);
  const auto pt = finwork::la::GatherMatrix::transpose_of(space.level(2).p);
  const finwork::la::Vector b(space.dimension(2), 1.0);
  const std::uint64_t fired = check::fault_fire_count("iterative/neumann");
  check::arm_fault("iterative/neumann", 1);
  const finwork::la::IterativeResult res = finwork::la::neumann_solve(pt, b);
  EXPECT_EQ(check::fault_fire_count("iterative/neumann"), fired + 1);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 0u);
  EXPECT_EQ(res.residual, b.norm_inf());
  // Disarmed again, the same call converges.
  EXPECT_TRUE(finwork::la::neumann_solve(pt, b).converged);
}

TEST_F(FaultInjectTest, FailedCacheBuildIsNotPoisonedAndRetries) {
  core::ModelCache cache(4);
  const finwork::net::NetworkSpec spec = small_cluster();

  check::arm_fault("cache/build", 1);
  try {
    (void)cache.acquire(spec, 2, {});
    FAIL() << "expected SolverError";
  } catch (const SolverError& e) {
    EXPECT_EQ(e.kind(), SolverErrorKind::kCacheBuildFailure);
    EXPECT_EQ(e.stage(), SolverStage::kCacheBuild);
  }
  // The failed build inserted nothing: the retry builds cleanly.
  EXPECT_EQ(cache.stats().size, 0u);
  const auto model = cache.acquire(spec, 2, {});
  EXPECT_NE(model, nullptr);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().size, 1u);
}

TEST_F(FaultInjectTest, ConcurrentMissesSurviveOneFailedBuild) {
  core::ModelCache cache(4);
  const finwork::net::NetworkSpec spec = small_cluster(3);

  const std::uint64_t fired_before = check::fault_fire_count("cache/build");
  check::arm_fault("cache/build", 1);
  constexpr std::size_t kThreads = 6;
  std::atomic<std::size_t> failures{0};
  std::atomic<std::size_t> successes{0};
  std::atomic<bool> start{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      try {
        const auto m = cache.acquire(spec, 3, {});
        if (m != nullptr) successes.fetch_add(1);
      } catch (const SolverError& e) {
        if (e.kind() == SolverErrorKind::kCacheBuildFailure) {
          failures.fetch_add(1);
        }
      }
    });
  }
  start.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  // Exactly one build hit the armed fault and its caller saw the
  // SolverError; the failed build inserted nothing, so every other thread
  // built or found the model and succeeded.
  EXPECT_EQ(check::fault_fire_count("cache/build"), fired_before + 1);
  EXPECT_GE(failures.load(), 1u);
  EXPECT_EQ(failures.load() + successes.load(), kThreads);
  // The key is never poisoned: a final acquire always succeeds.
  EXPECT_NE(cache.acquire(spec, 3, {}), nullptr);
}

TEST_F(FaultInjectTest, FailedLevelAssemblyReachesTheCallerAndRetries) {
  // Distributed K = 5 with a C^2 = 10 remote disk and an H2 CPU: level 5
  // (D(5) = 5908).  The build throws at its start; the error must reach the
  // caller, and the level must stay unbuilt so a retry builds the same
  // matrices as a healthy state space.
  cluster::ExperimentConfig cfg;
  cfg.architecture = cluster::Architecture::kDistributed;
  cfg.workstations = 5;
  cfg.shapes.remote_disk = cluster::ServiceShape::from_scv(10.0);
  cfg.shapes.cpu = cluster::ServiceShape::hyperexponential(2.0);
  const finwork::net::NetworkSpec spec = cluster::build_cluster(cfg);
  const finwork::net::StateSpace space(spec, 5);
  ASSERT_EQ(space.dimension(5), 5908u);

  check::arm_fault("state_space/assemble", 1);
  try {
    (void)space.level(5);
    FAIL() << "expected the injected assembly failure";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "injected level assembly failure");
  }
  EXPECT_EQ(check::fault_fire_count("state_space/assemble"), 1u);

  const finwork::net::LevelMatrices& retried = space.level(5);
  const finwork::net::StateSpace healthy_space(spec, 5);
  const finwork::net::LevelMatrices& healthy = healthy_space.level(5);
  const auto same_bits = [](const finwork::la::CsrMatrix& a,
                            const finwork::la::CsrMatrix& b) {
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           a.row_ptr() == b.row_ptr() && a.col_idx() == b.col_idx() &&
           a.values() == b.values();
  };
  ASSERT_EQ(retried.event_rates.size(), healthy.event_rates.size());
  for (std::size_t i = 0; i < healthy.event_rates.size(); ++i) {
    ASSERT_EQ(retried.event_rates[i], healthy.event_rates[i]) << i;
  }
  EXPECT_TRUE(same_bits(retried.p, healthy.p));
  EXPECT_TRUE(same_bits(retried.q, healthy.q));
  EXPECT_TRUE(same_bits(retried.r, healthy.r));
}

TEST_F(FaultInjectTest, WarmStartedMomentsSurviveNeumannFailure) {
  // Distributed K = 6 (iterative level 6) with its levels prepared.  With
  // every admission's Neumann stage failed, each column goes to BiCGSTAB,
  // which now solves for the correction to the warm start, from its
  // residual; the moments must match the healthy pass.
  cluster::ExperimentConfig cfg;
  cfg.architecture = cluster::Architecture::kDistributed;
  cfg.workstations = 6;
  const auto model = std::make_shared<const core::ModelArtifacts>(
      cluster::build_cluster(cfg), 6);
  (void)model->drain_second(6);
  const core::MakespanMoments want =
      core::TransientSolver(model).makespan_moments(100000);

  const std::uint64_t neumann = check::fault_fire_count("iterative/neumann");
  const std::uint64_t bicgstab =
      obs::counter_value(obs::Counter::kBicgstabIterations);
  check::arm_fault("iterative/neumann", 1000);
  const core::MakespanMoments got =
      core::TransientSolver(model).makespan_moments(100000);
  check::disarm_all_faults();
  EXPECT_GT(check::fault_fire_count("iterative/neumann"), neumann);
  EXPECT_GT(obs::counter_value(obs::Counter::kBicgstabIterations), bicgstab);
  EXPECT_NEAR(got.mean, want.mean, 1e-9 * want.mean);
  EXPECT_NEAR(got.second_moment, want.second_moment,
              1e-9 * want.second_moment);
}

TEST_F(FaultInjectTest, DisarmCancelsRemainingFailures) {
  check::arm_fault("iterative/neumann", 5);
  check::disarm_fault("iterative/neumann");
  EXPECT_FALSE(check::fault_at("iterative/neumann"));
  check::arm_fault("iterative/neumann", 1);
  EXPECT_TRUE(check::fault_at("iterative/neumann"));
  EXPECT_FALSE(check::fault_at("iterative/neumann"));  // count consumed
}

namespace {

// The steady state's two Krylov stages on Fig 5's central K = 4 model with
// a C^2 = 10 remote disk; its levels are dense, so the armed probes fire
// only in the steady state's own solve.
class SteadyStateFault : public FaultInjectTest {
 protected:
  static finwork::net::NetworkSpec spec() {
    cluster::ExperimentConfig cfg;
    cfg.workstations = 4;
    cfg.shapes.remote_disk = cluster::ServiceShape::from_scv(10.0);
    return cluster::build_cluster(cfg);
  }
};

}  // namespace

TEST_F(SteadyStateFault, GmresStageMatchesBicgstab) {
  const core::TransientSolver healthy(spec(), 4);
  const core::SteadyStateResult& want = healthy.steady_state();

  const core::TransientSolver degraded(spec(), 4);
  (void)degraded.tau(4);  // prepare the level with healthy solves first
  const std::uint64_t bicgstab = check::fault_fire_count("iterative/bicgstab");
  const std::uint64_t gmres = check::fault_fire_count("iterative/gmres");
  check::arm_fault("iterative/bicgstab", 1);
  const core::SteadyStateResult& got = degraded.steady_state();
  check::disarm_all_faults();
  EXPECT_EQ(check::fault_fire_count("iterative/bicgstab"), bicgstab + 1);
  EXPECT_EQ(check::fault_fire_count("iterative/gmres"), gmres);
  ASSERT_EQ(got.distribution.size(), want.distribution.size());
  for (std::size_t i = 0; i < want.distribution.size(); ++i) {
    EXPECT_NEAR(got.distribution[i], want.distribution[i], 1e-12) << i;
  }
  EXPECT_NEAR(got.interdeparture, want.interdeparture,
              1e-12 * want.interdeparture);
}

TEST_F(SteadyStateFault, BothKrylovStagesStalledThrowsAndARetrySucceeds) {
  const core::TransientSolver solver(spec(), 4);
  (void)solver.tau(4);
  check::arm_fault("iterative/bicgstab", 1);
  check::arm_fault("iterative/gmres", 1);
  try {
    (void)solver.steady_state();
    FAIL() << "expected SolverError";
  } catch (const SolverError& e) {
    EXPECT_EQ(e.kind(), SolverErrorKind::kNonConvergence);
    EXPECT_EQ(e.stage(), SolverStage::kGmres);
    EXPECT_EQ(e.context().level, 4u);
    EXPECT_EQ(e.context().dimension, solver.space().dimension(4));
  }
  check::disarm_all_faults();
  // Nothing was memoized by the failed call: the retry solves afresh.
  const core::SteadyStateResult& ss = solver.steady_state();
  const core::TransientSolver healthy(spec(), 4);
  EXPECT_EQ(ss.interdeparture, healthy.steady_state().interdeparture);
  EXPECT_EQ(solver.time_stationary_distribution().size(),
            solver.space().dimension(4));
}
