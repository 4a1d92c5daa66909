// Tests for the runtime invariant checker (src/check): each checker accepts
// lawful inputs, rejects corrupted ones with a message naming the object,
// the population level and the offending row, and the matrices of a real
// model pass every check.

#include "check/invariants.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "cluster/experiments.h"
#include "linalg/sparse.h"
#include "network/state_space.h"

namespace check = finwork::check;
namespace la = finwork::la;
namespace cluster = finwork::cluster;
namespace net = finwork::net;

namespace {

// A lawful substochastic 2x2 matrix: row sums 0.9 and 0.5.
la::CsrMatrix lawful_p() {
  return la::to_csr(la::Matrix{{0.4, 0.5}, {0.5, 0.0}});
}

// Extract the full what() of the violation thrown by `fn`.
template <typename Fn>
std::string violation_message(Fn&& fn) {
  try {
    fn();
  } catch (const check::InvariantViolation& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected InvariantViolation";
  return {};
}

}  // namespace

TEST(CheckFinite, AcceptsFiniteRejectsNanAndInf) {
  EXPECT_NO_THROW(check::check_finite(la::Vector{1.0, -2.0, 0.0}, "v"));
  la::Vector bad{1.0, std::nan(""), 3.0};
  EXPECT_THROW(check::check_finite(bad, "v"), check::InvariantViolation);
  la::Vector inf{std::numeric_limits<double>::infinity()};
  EXPECT_THROW(check::check_finite(inf, "v"), check::InvariantViolation);
}

TEST(CheckProbabilityVector, AcceptsSimplexRejectsDrift) {
  EXPECT_NO_THROW(
      check::check_probability_vector(la::Vector{0.25, 0.75}, "pi"));
  // Off-simplex mass.
  EXPECT_THROW(check::check_probability_vector(la::Vector{0.25, 0.7}, "pi"),
               check::InvariantViolation);
  // Negative entry even though the sum is 1.
  EXPECT_THROW(
      check::check_probability_vector(la::Vector{1.2, -0.2}, "pi"),
      check::InvariantViolation);
}

TEST(CheckPositiveRates, RejectsZeroNegativeAndNan) {
  EXPECT_NO_THROW(check::check_positive_rates(la::Vector{0.1, 5.0}, "M"));
  EXPECT_THROW(check::check_positive_rates(la::Vector{1.0, 0.0}, "M"),
               check::InvariantViolation);
  EXPECT_THROW(check::check_positive_rates(la::Vector{-1.0}, "M"),
               check::InvariantViolation);
  EXPECT_THROW(check::check_positive_rates(la::Vector{std::nan("")}, "M"),
               check::InvariantViolation);
}

TEST(CheckSubstochastic, AcceptsLawfulMatrix) {
  EXPECT_NO_THROW(check::check_substochastic(lawful_p(), "P_k", 2));
}

TEST(CheckSubstochastic, CorruptedRowSumNamesMatrixLevelAndRow) {
  // Deliberately corrupted P_k: row 1 sums to 1.3 > 1.
  const la::CsrMatrix corrupted =
      la::to_csr(la::Matrix{{0.4, 0.0}, {0.6, 0.7}});
  const std::string msg = violation_message(
      [&] { check::check_substochastic(corrupted, "P_k", 3); });
  EXPECT_NE(msg.find("P_k"), std::string::npos) << msg;
  EXPECT_NE(msg.find("level 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("row 1"), std::string::npos) << msg;

  try {
    check::check_substochastic(corrupted, "P_k", 3);
    FAIL() << "expected InvariantViolation";
  } catch (const check::InvariantViolation& e) {
    EXPECT_EQ(e.object(), "P_k");
    EXPECT_EQ(e.level(), 3u);
    EXPECT_EQ(e.row(), 1u);
    EXPECT_EQ(e.invariant(), "substochastic");
  }
}

TEST(CheckSubstochastic, RejectsNegativeEntry) {
  const la::CsrMatrix neg = la::to_csr(la::Matrix{{-0.1, 0.5}});
  EXPECT_THROW(check::check_substochastic(neg, "P_k", 1),
               check::InvariantViolation);
}

TEST(CheckStochastic, RequiresUnitRowSums) {
  const la::CsrMatrix r = la::to_csr(la::Matrix{{0.5, 0.5}, {0.0, 1.0}});
  EXPECT_NO_THROW(check::check_stochastic(r, "R_k", 4));
  const la::CsrMatrix leaky = la::to_csr(la::Matrix{{0.5, 0.4}});
  const std::string msg = violation_message(
      [&] { check::check_stochastic(leaky, "R_k", 4); });
  EXPECT_NE(msg.find("R_k"), std::string::npos) << msg;
  EXPECT_NE(msg.find("level 4"), std::string::npos) << msg;
}

TEST(CheckLevelFlow, DetectsLeakedMass) {
  // Lawful: P row sums + Q row sums = 1 for each row.
  la::CsrMatrix p = lawful_p();  // row sums 0.9, 0.5
  const la::CsrMatrix q_good = la::to_csr(la::Matrix{{0.1}, {0.5}});
  EXPECT_NO_THROW(check::check_level_flow(p, q_good, 2));
  const la::CsrMatrix q_bad = la::to_csr(la::Matrix{{0.1}, {0.3}});
  EXPECT_THROW(check::check_level_flow(p, q_bad, 2),
               check::InvariantViolation);
}

TEST(CheckFixedPoint, BoundsResidual) {
  la::Vector pi{0.5, 0.5};
  la::Vector close{0.5 + 1e-12, 0.5 - 1e-12};
  EXPECT_NO_THROW(check::check_fixed_point(pi, close, "p_ss", 5, 1e-9));
  la::Vector far{0.6, 0.4};
  const std::string msg = violation_message(
      [&] { check::check_fixed_point(pi, far, "p_ss", 5, 1e-9); });
  EXPECT_NE(msg.find("p_ss"), std::string::npos) << msg;
  EXPECT_NE(msg.find("level 5"), std::string::npos) << msg;
}

TEST(CheckIntegration, RealModelMatricesSatisfyAllInvariants) {
  // The matrices of an actual cluster model are lawful at every level —
  // the same checks the builder runs when FINWORK_CHECK_INVARIANTS is on.
  cluster::ExperimentConfig cfg;
  cfg.workstations = 3;
  net::StateSpace space(cluster::build_cluster(cfg), cfg.workstations);
  for (std::size_t k = 1; k <= cfg.workstations; ++k) {
    const net::LevelMatrices& lm = space.level(k);
    EXPECT_NO_THROW(check::check_positive_rates(lm.event_rates, "M_k", k));
    EXPECT_NO_THROW(check::check_substochastic(lm.p, "P_k", k));
    EXPECT_NO_THROW(check::check_level_flow(lm.p, lm.q, k));
    EXPECT_NO_THROW(check::check_stochastic(lm.r, "R_k", k));
    EXPECT_NO_THROW(check::check_probability_vector(
        space.initial_vector(k), "p_k", k));
  }
}
