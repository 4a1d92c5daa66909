// Deterministic fault-injection regressions for the fallback ladder
// (docs/ROBUSTNESS.md).  Built only when FINWORK_FAULT_INJECT is ON (the
// debug-fault preset / CI fault-inject job): each test arms a named failure
// site, drives the solver through the degraded path, and asserts that the
// fallback reproduced the healthy numbers, that the right counters/events
// fired, and that exhaustion surfaces as the right SolverError.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
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
#include "obs/obs_config.h"
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
       {"lu/factorize", "ladder/refine", "ladder/rescue", "iterative/neumann",
        "iterative/bicgstab", "iterative/gmres", "cache/build",
        "state_space/assemble"}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), expected), sites.end())
        << expected;
  }
  EXPECT_THROW(check::arm_fault("no/such/site"), std::logic_error);
  EXPECT_THROW((void)check::fault_fire_count("no/such/site"),
               std::logic_error);
}

TEST_F(FaultInjectTest, SingularFactorizationDegradesToIterativeBackend) {
  const finwork::net::NetworkSpec spec = small_cluster();
  const core::TransientSolver healthy(spec, 2);
  const double reference = healthy.makespan(10);

  // Both dense levels of a fresh model hit the armed probe and degrade to
  // the matrix-free backend; the numbers must not move.
  const std::uint64_t fallback_before =
      obs::counter_value(obs::Counter::kFallbackActivations);
  check::arm_fault("lu/factorize", 8);
  const core::TransientSolver degraded(spec, 2);
  const double value = degraded.makespan(10);
  check::disarm_all_faults();
  EXPECT_NEAR(value, reference, 1e-8 * reference);
  EXPECT_GT(check::fault_fire_count("lu/factorize"), 0u);
  if constexpr (obs::kEnabled) {
    EXPECT_GT(obs::counter_value(obs::Counter::kFallbackActivations),
              fallback_before);
    EXPECT_TRUE(saw_event("degradation/lu-singular"));
  }
}

TEST_F(FaultInjectTest, SingularFactorizationIsFatalUnderStrict) {
  core::ModelOptions opts;
  opts.strict = true;
  const core::ModelArtifacts model(small_cluster(), 2, opts);
  check::arm_fault("lu/factorize", 1);
  try {
    (void)model.tau(1);
    FAIL() << "expected SolverError";
  } catch (const SolverError& e) {
    EXPECT_EQ(e.kind(), SolverErrorKind::kSingular);
    EXPECT_EQ(e.stage(), SolverStage::kLuFactorize);
    EXPECT_EQ(e.context().level, 1u);
    EXPECT_NE(std::string(e.what()).find("injected"), std::string::npos);
  }
}

TEST_F(FaultInjectTest, StalledRefinementFallsBackToIterativeBackend) {
  const finwork::net::NetworkSpec spec = small_cluster();
  const core::TransientSolver healthy(spec, 2);
  const double reference = healthy.makespan(10);

  // max_condition = 1 routes every dense solve through refinement; the armed
  // probe makes refinement report failure, forcing stage 3.
  core::ModelOptions opts;
  opts.max_condition = 1.0;
  check::arm_fault("ladder/refine", 100000);
  const core::TransientSolver degraded(spec, 2, opts);
  const double value = degraded.makespan(10);
  check::disarm_all_faults();
  EXPECT_NEAR(value, reference, 1e-8 * reference);
  EXPECT_GT(check::fault_fire_count("ladder/refine"), 0u);
  if constexpr (obs::kEnabled) {
    EXPECT_TRUE(saw_event("degradation/refinement"));
  }
}

TEST_F(FaultInjectTest, ExhaustedKrylovBackendsRecoverViaShiftedRetry) {
  // dense_threshold = 0: every level runs the matrix-free backend, so one
  // armed failure per backend pushes a single solve into the rescue stage.
  // Both directions: the rescue gathers over P^T for a row solve and over
  // P for a column solve.
  core::ModelOptions opts;
  opts.dense_threshold = 0;
  const core::ModelArtifacts model(small_cluster(), 2, opts);
  const finwork::la::Vector b(model.space().dimension(2), 1.0);
  for (const bool left : {true, false}) {
    SCOPED_TRACE(left ? "solve_left" : "solve_right");
    const auto solve = [&] {
      return left ? model.solve_left(2, b) : model.solve_right(2, b);
    };
    const finwork::la::Vector reference = solve();
    const std::uint64_t neumann = check::fault_fire_count("iterative/neumann");
    const std::uint64_t bicgstab =
        check::fault_fire_count("iterative/bicgstab");
    const std::uint64_t gmres = check::fault_fire_count("iterative/gmres");

    check::arm_fault("iterative/neumann", 1);
    check::arm_fault("iterative/bicgstab", 1);
    check::arm_fault("iterative/gmres", 1);
    const finwork::la::Vector rescued = solve();
    check::disarm_all_faults();
    ASSERT_EQ(rescued.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_NEAR(rescued[i], reference[i],
                  1e-8 * (1.0 + std::abs(reference[i])))
          << "component " << i;
    }
    EXPECT_GT(check::fault_fire_count("iterative/neumann"), neumann);
    EXPECT_GT(check::fault_fire_count("iterative/bicgstab"), bicgstab);
    EXPECT_GT(check::fault_fire_count("iterative/gmres"), gmres);
  }
  if constexpr (obs::kEnabled) {
    EXPECT_TRUE(saw_event("degradation/iterative"));
    EXPECT_TRUE(saw_event("degradation/shifted-retry"));
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

TEST_F(FaultInjectTest, LadderExhaustionThrowsShiftedRetryError) {
  core::ModelOptions opts;
  opts.dense_threshold = 0;
  const core::ModelArtifacts model(small_cluster(), 2, opts);
  const finwork::la::Vector b(model.space().dimension(2), 1.0);
  (void)model.tau(2);  // prepare the level with healthy solves first

  check::arm_fault("iterative/neumann", 1);
  check::arm_fault("iterative/bicgstab", 1);
  check::arm_fault("iterative/gmres", 1);
  check::arm_fault("ladder/rescue", 1);
  try {
    (void)model.solve_left(2, b);
    FAIL() << "expected SolverError";
  } catch (const SolverError& e) {
    EXPECT_EQ(e.kind(), SolverErrorKind::kNonConvergence);
    EXPECT_EQ(e.stage(), SolverStage::kShiftedRetry);
    EXPECT_EQ(e.context().level, 2u);
  }
  check::disarm_all_faults();
}

TEST_F(FaultInjectTest, StrictModeStopsBeforeTheRescueStage) {
  core::ModelOptions opts;
  opts.dense_threshold = 0;
  opts.strict = true;
  const core::ModelArtifacts model(small_cluster(), 2, opts);
  const finwork::la::Vector b(model.space().dimension(2), 1.0);
  (void)model.tau(2);

  const std::uint64_t rescue_before = check::fault_fire_count("ladder/rescue");
  check::arm_fault("iterative/neumann", 1);
  check::arm_fault("iterative/bicgstab", 1);
  check::arm_fault("iterative/gmres", 1);
  check::arm_fault("ladder/rescue", 1);
  try {
    (void)model.solve_left(2, b);
    FAIL() << "expected SolverError";
  } catch (const SolverError& e) {
    EXPECT_EQ(e.kind(), SolverErrorKind::kNonConvergence);
    EXPECT_EQ(e.stage(), SolverStage::kGmres);
  }
  check::disarm_all_faults();
  // Strict stopped before the rescue stage: its armed probe never fired.
  EXPECT_EQ(check::fault_fire_count("ladder/rescue"), rescue_before);
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
  // (D(5) = 5908) assembles in chunks on the pool when built from the main
  // thread.  One chunk throws; the error must reach the caller after every
  // chunk has finished, and the level must stay unbuilt so a retry builds
  // the same matrices as a healthy state space.
  cluster::ExperimentConfig cfg;
  cfg.architecture = cluster::Architecture::kDistributed;
  cfg.workstations = 5;
  cfg.shapes.remote_disk = cluster::ServiceShape::from_scv(10.0);
  cfg.shapes.cpu = cluster::ServiceShape::hyperexponential(2.0);
  const finwork::net::NetworkSpec spec = cluster::build_cluster(cfg);
  const finwork::net::StateSpace space(spec, 5);
  ASSERT_GE(space.dimension(5), 4096u);

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

TEST_F(FaultInjectTest, DisarmCancelsRemainingFailures) {
  check::arm_fault("iterative/neumann", 5);
  check::disarm_fault("iterative/neumann");
  EXPECT_FALSE(check::fault_at("iterative/neumann"));
  check::arm_fault("iterative/neumann", 1);
  EXPECT_TRUE(check::fault_at("iterative/neumann"));
  EXPECT_FALSE(check::fault_at("iterative/neumann"));  // count consumed
}
