// Condition monitoring and strict-mode semantics of the fallback ladder
// (docs/ROBUSTNESS.md), exercised without fault injection so they run in
// every build flavour:
//
//   - level_rcond surfaces the per-level condition estimate,
//   - max_condition breaches degrade to iterative refinement by default and
//     throw SolverError(kIllConditioned) under strict,
//   - the degraded path reproduces the healthy results to 1e-8,
//   - the robustness options take part in the canonical cache key (v2).

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "check/fault_inject.h"
#include "cluster/experiments.h"
#include "core/model_cache.h"
#include "core/transient_solver.h"
#include "linalg/solver_error.h"
#include "obs/counters.h"
#include "obs/obs_config.h"
#include "obs/sink.h"

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

TEST(RobustnessTest, LevelRcondIsSaneForHealthyDenseLevels) {
  const core::ModelArtifacts model(small_cluster(), 2);
  for (std::size_t k = 1; k <= 2; ++k) {
    const double rc = model.level_rcond(k);
    EXPECT_GT(rc, 0.0) << "level " << k;
    EXPECT_LE(rc, 1.0) << "level " << k;
  }
}

TEST(RobustnessTest, ConditionBreachDegradesToRefinementAndAgrees) {
  const finwork::net::NetworkSpec spec = small_cluster();
  const core::TransientSolver healthy(spec, 2);
  const double reference = healthy.makespan(12);

  // Every (I - P_k) has condition > 1, so max_condition = 1 flags every
  // dense level as ill-conditioned and routes its solves through the
  // refinement stage.
  core::SolverOptions opts;
  opts.max_condition = 1.0;
  const std::uint64_t fallback_before =
      obs::counter_value(obs::Counter::kFallbackActivations);
  const std::uint64_t estimates_before =
      obs::counter_value(obs::Counter::kConditionEstimates);
  const core::TransientSolver degraded(spec, 2, opts);
  const double refined = degraded.makespan(12);
  EXPECT_NEAR(refined, reference, 1e-8 * reference);

  if constexpr (obs::kEnabled) {
    EXPECT_GT(obs::counter_value(obs::Counter::kConditionEstimates),
              estimates_before);
    EXPECT_GT(obs::counter_value(obs::Counter::kFallbackActivations),
              fallback_before);
    bool saw_degradation = false;
    for (const obs::StructuredEvent& ev : obs::events_snapshot()) {
      if (ev.category == "degradation/ill-conditioned") saw_degradation = true;
    }
    EXPECT_TRUE(saw_degradation);
  }
}

TEST(RobustnessTest, StrictModeThrowsIllConditionedWithContext) {
  core::SolverOptions opts;
  opts.max_condition = 1.0;
  opts.strict = true;
  const core::TransientSolver solver(small_cluster(), 2, opts);
  try {
    (void)solver.makespan(5);
    FAIL() << "expected SolverError";
  } catch (const SolverError& e) {
    EXPECT_EQ(e.kind(), SolverErrorKind::kIllConditioned);
    EXPECT_NE(e.context().level, finwork::SolverErrorContext::kNoIndex);
    EXPECT_GT(e.context().dimension, 0u);
    EXPECT_GT(e.context().condition_estimate, 1.0);
  }
}

TEST(RobustnessTest, StrictModeWithHealthyModelMatchesDefault) {
  const finwork::net::NetworkSpec spec = small_cluster();
  const core::TransientSolver plain(spec, 2);
  core::SolverOptions opts;
  opts.strict = true;  // no ceiling: healthy models never degrade
  const core::TransientSolver strict(spec, 2, opts);
  EXPECT_DOUBLE_EQ(strict.makespan(10), plain.makespan(10));
}

TEST(RobustnessTest, RobustnessOptionsTakePartInCacheKey) {
  const finwork::net::NetworkSpec spec = small_cluster();
  const core::SolverOptions base;

  core::SolverOptions strict = base;
  strict.strict = true;
  core::SolverOptions capped = base;
  capped.max_condition = 1e8;

  const auto key_base = core::canonical_model_key(spec, 2, base);
  EXPECT_NE(key_base, core::canonical_model_key(spec, 2, strict));
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

TEST(RobustnessTest, CacheKeepsStrictAndDefaultModelsApart) {
  core::ModelCache cache(8);
  const finwork::net::NetworkSpec spec = small_cluster();
  core::SolverOptions strict;
  strict.strict = true;
  const auto a = cache.acquire(spec, 2, {});
  const auto b = cache.acquire(spec, 2, strict);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.stats().misses, 2u);
  const auto c = cache.acquire(spec, 2, strict);
  EXPECT_EQ(c.get(), b.get());
  EXPECT_EQ(cache.stats().hits, 1u);
}
