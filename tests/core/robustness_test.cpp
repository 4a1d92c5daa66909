// Condition monitoring of the fallback ladder (docs/ROBUSTNESS.md),
// exercised without fault injection so it runs in every build flavour:
//
//   - level_condition surfaces each dense level's exact kappa_inf,
//   - a max_condition breach throws SolverError(kIllConditioned) and leaves
//     the level unbuilt, so a retry on the same model throws again,
//   - max_condition takes part in the canonical cache key.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "check/fault_inject.h"
#include "cluster/experiments.h"
#include "core/model_cache.h"
#include "core/transient_solver.h"
#include "linalg/lu.h"
#include "linalg/matrix.h"
#include "linalg/sparse.h"
#include "linalg/solver_error.h"
#include "obs/counters.h"

namespace cluster = finwork::cluster;
namespace core = finwork::core;
namespace obs = finwork::obs;
using finwork::SolverError;
using finwork::SolverErrorKind;

namespace {

finwork::net::NetworkSpec small_cluster() {
  cluster::ExperimentConfig cfg;
  cfg.workstations = 2;
  return cluster::build_cluster(cfg);
}

}  // namespace

TEST(RobustnessTest, LevelConditionIsSaneForHealthyDenseLevels) {
  const core::ModelArtifacts model(small_cluster(), 2);
  for (std::size_t k = 1; k <= 2; ++k) {
    const double cond = model.level_condition(k);
    EXPECT_GE(cond, 1.0) << "level " << k;
    EXPECT_TRUE(std::isfinite(cond)) << "level " << k;
  }
  // An iterative level has no factor and reads 0.
  core::ModelOptions iterative_opts;
  iterative_opts.dense_threshold = 0;
  const core::ModelArtifacts iterative(small_cluster(), 2, iterative_opts);
  EXPECT_EQ(iterative.level_condition(2), 0.0);
}

namespace {

/// kappa_inf of (I - P) from its full inverse: ||I - P||_inf times the
/// largest absolute row sum of (I - P)^-1.
double condition_from_full_inverse(const finwork::la::CsrMatrix& p) {
  namespace la = finwork::la;
  la::Matrix a = p.to_dense();
  a *= -1.0;
  for (std::size_t i = 0; i < a.rows(); ++i) a(i, i) += 1.0;
  const la::Matrix inv = la::LuDecomposition(a).solve(la::identity(a.rows()));
  double inv_norm = 0.0;
  for (std::size_t i = 0; i < inv.rows(); ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < inv.cols(); ++j) row += std::abs(inv(i, j));
    inv_norm = std::max(inv_norm, row);
  }
  return a.norm_inf() * inv_norm;
}

}  // namespace

// (I - P_k)^-1 is nonnegative, so ||(I - P_k)^-1 e||_inf is its inf-norm
// and level_condition is kappa_inf itself, not an estimate: on every dense
// level with D <= 1500 of the large_n model, Fig 5 and Fig 6 at C^2 = 10 it
// matches the full inverse.  (A +-1 probe reads 1.9-24x low on them.)
TEST(ConditionNumber, MatchesTheFullInverseOnEveryLuLevel) {
  cluster::ExperimentConfig large_n;
  large_n.architecture = cluster::Architecture::kDistributed;
  large_n.workstations = 6;
  cluster::ExperimentConfig fig5;
  fig5.workstations = 8;
  fig5.shapes.remote_disk = cluster::ServiceShape::from_scv(10.0);
  cluster::ExperimentConfig fig6 = large_n;
  fig6.workstations = 5;
  fig6.shapes.remote_disk = fig5.shapes.remote_disk;
  std::size_t checked = 0;
  for (const cluster::ExperimentConfig& cfg : {large_n, fig5, fig6}) {
    const std::size_t k = cfg.workstations;
    const core::ModelArtifacts model(cluster::build_cluster(cfg), k);
    for (std::size_t j = 1; j <= k; ++j) {
      if (model.space().dimension(j) > 1500) continue;
      SCOPED_TRACE(testing::Message() << "K = " << k << ", level " << j);
      ASSERT_GT(model.level_factor_entries(j), 0u);
      const double want =
          condition_from_full_inverse(model.space().level(j).p);
      EXPECT_NEAR(model.level_condition(j), want, 1e-12 * want);
      ++checked;
    }
  }
  EXPECT_GE(checked, 12u);
}

TEST(RobustnessTest, LevelFactorEntriesFollowTheBackend) {
  namespace la = finwork::la;
  const finwork::net::NetworkSpec spec = small_cluster();
  const core::ModelArtifacts dense(spec, 2);
  for (std::size_t k = 1; k <= 2; ++k) {
    const la::LuDecomposition lu(
        la::CsrMatrix::identity_minus(dense.space().level(k).p));
    EXPECT_EQ(dense.level_factor_entries(k), lu.stored_entries())
        << "level " << k;
    EXPECT_GE(dense.level_factor_entries(k), dense.space().dimension(k));
  }
  // Every level iterative: no factor.
  core::ModelOptions iterative_opts;
  iterative_opts.dense_threshold = 0;
  const core::ModelArtifacts iterative(spec, 2, iterative_opts);
  for (std::size_t k = 1; k <= 2; ++k) {
    EXPECT_EQ(iterative.level_factor_entries(k), 0u) << "level " << k;
  }
  EXPECT_THROW((void)dense.level_factor_entries(0), std::out_of_range);
  EXPECT_THROW((void)dense.level_factor_entries(3), std::out_of_range);
}

TEST(RobustnessTest, ConditionBreachThrowsIllConditionedWithContext) {
  // Every (I - P_k) has condition > 1, so max_condition = 1 breaches on the
  // first dense level a query touches.
  core::ModelOptions opts;
  opts.max_condition = 1.0;
  const core::TransientSolver solver(small_cluster(), 2, opts);
  try {
    (void)solver.makespan(5);
    FAIL() << "expected SolverError";
  } catch (const SolverError& e) {
    EXPECT_EQ(e.kind(), SolverErrorKind::kIllConditioned);
    EXPECT_EQ(e.stage(), finwork::SolverStage::kLuFactorize);
    EXPECT_NE(e.context().level, finwork::SolverErrorContext::kNoIndex);
    EXPECT_GT(e.context().dimension, 0u);
    EXPECT_GT(e.context().condition_estimate, 1.0);
  }
}

TEST(RobustnessTest, ConditionBreachThrowsAgainOnRetry) {
  // The breach leaves the level unbuilt, so the same model builds it again
  // on the next query and throws again instead of serving a half-built
  // level (or hanging on a latched build).
  core::ModelOptions opts;
  opts.max_condition = 1.0;
  const core::ModelArtifacts model(small_cluster(), 2, opts);
  for (int attempt = 0; attempt < 2; ++attempt) {
    SCOPED_TRACE(testing::Message() << "attempt " << attempt);
    const std::uint64_t estimates_before =
        obs::counter_value(obs::Counter::kConditionEstimates);
    try {
      (void)model.tau(1);
      FAIL() << "expected SolverError";
    } catch (const SolverError& e) {
      EXPECT_EQ(e.kind(), SolverErrorKind::kIllConditioned);
      EXPECT_EQ(e.context().level, 1u);
    }
    EXPECT_EQ(obs::counter_value(obs::Counter::kConditionEstimates),
              estimates_before + 1);
  }
}

TEST(RobustnessTest, RobustnessOptionsTakePartInCacheKey) {
  const finwork::net::NetworkSpec spec = small_cluster();
  const core::ModelOptions base;

  core::ModelOptions capped = base;
  capped.max_condition = 1e8;

  const auto key_base = core::canonical_model_key(spec, 2, base);
  EXPECT_NE(key_base, core::canonical_model_key(spec, 2, capped));
  // Same options, same key: the encoding is deterministic.
  EXPECT_EQ(key_base, core::canonical_model_key(spec, 2, base));
}

TEST(RobustnessTest, FaultControlApiMatchesBuildFlavour) {
  namespace check = finwork::check;
  if constexpr (check::kFaultInjectEnabled) {
    check::arm_fault("lu/factorize", 1);
    check::disarm_all_faults();
  } else {
    // Compiled out: arming throws instead of silently never firing.
    EXPECT_THROW(check::arm_fault("lu/factorize"), std::logic_error);
  }
  // Unknown sites are rejected before the enabled/disabled dispatch.
  EXPECT_THROW(check::arm_fault("typo/site"), std::logic_error);
}

TEST(RobustnessTest, CacheKeepsCappedAndDefaultModelsApart) {
  core::ModelCache cache(8);
  const finwork::net::NetworkSpec spec = small_cluster();
  core::ModelOptions capped;
  capped.max_condition = 1e8;
  const auto a = cache.acquire(spec, 2, {});
  const auto b = cache.acquire(spec, 2, capped);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.stats().misses, 2u);
  const auto c = cache.acquire(spec, 2, capped);
  EXPECT_EQ(c.get(), b.get());
  EXPECT_EQ(cache.stats().hits, 1u);
}
