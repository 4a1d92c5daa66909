// The structured error taxonomy (linalg/solver_error.h) and the numerical
// behaviours that produce it: stable names, context formatting, LU
// singularity diagnostics, and the GMRES backend added for the fallback
// ladder.

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <stdexcept>
#include <string>

#include "linalg/iterative.h"
#include "linalg/lu.h"
#include "linalg/solver_error.h"

namespace la = finwork::la;
using finwork::SolverError;
using finwork::SolverErrorContext;
using finwork::SolverErrorKind;
using finwork::SolverStage;

TEST(SolverErrorTest, KindAndStageNamesAreStable) {
  EXPECT_EQ(finwork::solver_error_kind_name(SolverErrorKind::kSingular),
            "singular");
  EXPECT_EQ(finwork::solver_error_kind_name(SolverErrorKind::kIllConditioned),
            "ill_conditioned");
  EXPECT_EQ(finwork::solver_error_kind_name(SolverErrorKind::kNonConvergence),
            "non_convergence");
  EXPECT_EQ(
      finwork::solver_error_kind_name(SolverErrorKind::kCacheBuildFailure),
      "cache_build_failure");
  EXPECT_EQ(finwork::solver_stage_name(SolverStage::kLuFactorize),
            "lu_factorize");
  EXPECT_EQ(finwork::solver_stage_name(SolverStage::kGmres), "gmres");
  EXPECT_EQ(finwork::solver_stage_name(SolverStage::kExpm), "expm");
  EXPECT_EQ(finwork::solver_stage_name(SolverStage::kCacheBuild),
            "cache_build");
}

TEST(SolverErrorTest, WhatCarriesKindStageAndContext) {
  SolverErrorContext ctx;
  ctx.level = 3;
  ctx.dimension = 40;
  ctx.pivot = 17;
  ctx.condition_estimate = 1e12;
  ctx.detail = "synthetic";
  const SolverError err(SolverErrorKind::kSingular, SolverStage::kLuFactorize,
                        ctx);
  const std::string msg = err.what();
  EXPECT_NE(msg.find("singular"), std::string::npos) << msg;
  EXPECT_NE(msg.find("lu_factorize"), std::string::npos) << msg;
  EXPECT_NE(msg.find("40"), std::string::npos) << msg;
  EXPECT_NE(msg.find("17"), std::string::npos) << msg;
  EXPECT_NE(msg.find("synthetic"), std::string::npos) << msg;
  EXPECT_EQ(err.kind(), SolverErrorKind::kSingular);
  EXPECT_EQ(err.stage(), SolverStage::kLuFactorize);
  EXPECT_EQ(err.context().level, 3u);
}

TEST(SolverErrorTest, IsARuntimeErrorForLegacyCatchSites) {
  const SolverError err(SolverErrorKind::kNonConvergence, SolverStage::kGmres);
  const std::runtime_error& base = err;  // must upcast
  EXPECT_NE(std::string(base.what()).find("non_convergence"),
            std::string::npos);
}

TEST(SolverErrorTest, SingularFactorizationReportsDiagnostics) {
  // Row 2 duplicates row 0 with power-of-two entries, so elimination is
  // exact and the pivot in column 2 is exactly zero.
  la::Matrix a(3, 3, 0.0);
  a(0, 0) = 2.0; a(0, 1) = 4.0; a(0, 2) = 8.0;
  a(1, 0) = 1.0; a(1, 1) = 3.0; a(1, 2) = 5.0;
  a(2, 0) = 2.0; a(2, 1) = 4.0; a(2, 2) = 8.0;
  try {
    const la::LuDecomposition lu(a);
    FAIL() << "expected SolverError";
  } catch (const SolverError& e) {
    EXPECT_EQ(e.kind(), SolverErrorKind::kSingular);
    EXPECT_EQ(e.stage(), SolverStage::kLuFactorize);
    EXPECT_EQ(e.context().dimension, 3u);
    EXPECT_NE(e.context().pivot, SolverErrorContext::kNoIndex);
    EXPECT_LT(e.context().pivot, 3u);
    // The pivot-ratio estimate must flag effective singularity: a huge
    // finite value or infinity, never a "healthy" small number.
    EXPECT_GT(e.context().condition_estimate, 1e12);
  }
}

TEST(SolverErrorTest, LegacyRuntimeErrorCatchStillWorks) {
  la::Matrix a(2, 2, 1.0);  // rank one
  EXPECT_THROW((void)la::LuDecomposition(a), std::runtime_error);
}

TEST(GmresTest, SolvesRandomWellConditionedSystems) {
  std::mt19937 rng(1234);
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  for (std::size_t trial = 0; trial < 6; ++trial) {
    const std::size_t n = 5 + 7 * trial;
    // A = I - P with P substochastic: the ladder's actual operator family.
    la::Matrix p(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      double row_sum = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        p(i, j) = unif(rng);
        row_sum += p(i, j);
      }
      for (std::size_t j = 0; j < n; ++j) p(i, j) *= 0.9 / row_sum;
    }
    la::Matrix a(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) a(i, j) = -p(i, j);
      a(i, i) += 1.0;
    }
    la::Vector b(n);
    for (std::size_t i = 0; i < n; ++i) b[i] = unif(rng) + 0.1;

    const la::IterativeResult res =
        la::gmres_left(la::row_operator(a), b, 1e-12, 10000, 11);
    ASSERT_TRUE(res.converged) << "trial " << trial;
    const la::Vector exact = la::solve_left(a, b);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(res.x[i], exact[i], 1e-8 * (1.0 + std::abs(exact[i])))
          << "trial " << trial << " component " << i;
    }
  }
}

TEST(GmresTest, ReportsNonConvergenceOnSingularSystem) {
  // x (I - P) = b with P stochastic (row sums 1) and b outside the range:
  // the system is singular, so GMRES must give up cleanly, not loop.
  const std::size_t n = 4;
  la::Matrix a(n, n, -1.0 / static_cast<double>(n));
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 1.0;
  la::Vector b(n, 1.0);
  const la::IterativeResult res =
      la::gmres_left(la::row_operator(a), b, 1e-12, 200, 8);
  EXPECT_FALSE(res.converged);
  EXPECT_GT(res.residual, 0.0);
}

TEST(GmresTest, HandlesHappyBreakdownAtExactSolution) {
  // b is an eigenvector direction: the Krylov space closes after one step.
  const std::size_t n = 6;
  la::Matrix a(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) a(i, i) = 2.0;
  la::Vector b(n, 3.0);
  const la::IterativeResult res = la::gmres_left(la::row_operator(a), b);
  ASSERT_TRUE(res.converged);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(res.x[i], 1.5, 1e-12);
}
