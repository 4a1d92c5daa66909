// Tests for the grouped gather operator (la::GatherMatrix) and the Neumann
// kernel that runs over it: both must reproduce the CSR row loops they
// replace bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "check/fault_inject.h"
#include "cluster/experiments.h"
#include "linalg/iterative.h"
#include "linalg/sparse.h"
#include "network/state_space.h"

namespace la = finwork::la;

namespace {

bool bitwise_equal(const la::Vector& a, const la::Vector& b) {
  return a.size() == b.size() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), sizeof(double) * a.size()) == 0);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// A random matrix with count(len) rows of each length len = 0 ..
/// max_length, in shuffled order, columns distinct within a row.  With
/// scale > 0 the entries are positive and each nonempty row sums to `scale`
/// (substochastic for scale < 1); otherwise they are signed and span 33
/// binades.
template <class Count>
la::CsrMatrix grouped_random(std::size_t cols, std::size_t max_length,
                             Count count, double scale, unsigned seed) {
  std::mt19937 gen(seed);
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= max_length; ++len) {
    for (std::size_t c = count(len); c > 0; --c) lengths.push_back(len);
  }
  std::shuffle(lengths.begin(), lengths.end(), gen);
  std::uniform_real_distribution<double> mag(0.05, 1.0);
  std::uniform_int_distribution<int> exponent(-30, 3);
  std::vector<la::Triplet> trips;
  std::vector<std::size_t> pool(cols);
  for (std::size_t c = 0; c < cols; ++c) pool[c] = c;
  for (std::size_t r = 0; r < lengths.size(); ++r) {
    std::shuffle(pool.begin(), pool.end(), gen);
    std::vector<double> v(lengths[r]);
    double sum = 0.0;
    for (double& e : v) {
      e = scale > 0.0 ? mag(gen)
                      : (gen() % 2 == 0 ? -1.0 : 1.0) * mag(gen) *
                            std::ldexp(1.0, exponent(gen));
      sum += std::abs(e);
    }
    for (std::size_t j = 0; j < v.size(); ++j) {
      trips.push_back({r, pool[j], scale > 0.0 ? v[j] * scale / sum : v[j]});
    }
  }
  return la::CsrMatrix(lengths.size(), cols, std::move(trips));
}

la::Vector random_vector(std::size_t n, unsigned seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  la::Vector x(n);
  for (double& v : x) v = dist(gen);
  if (n > 0) x[0] = -0.0;
  return x;
}

/// A^T as CSR, columns ascending within each row.
la::CsrMatrix csr_transpose(const la::CsrMatrix& a) {
  std::vector<la::Triplet> trips;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
      trips.push_back({a.col_idx()[k], r, a.values()[k]});
    }
  }
  return la::CsrMatrix(a.cols(), a.rows(), std::move(trips));
}

void expect_same_action(const la::CsrMatrix& a, unsigned seed) {
  const la::Vector x = random_vector(a.cols(), seed);
  const la::Vector y = random_vector(a.rows(), seed + 1);
  const la::GatherMatrix g(a);
  const la::GatherMatrix t = la::GatherMatrix::transpose_of(a);
  ASSERT_EQ(g.rows(), a.rows());
  ASSERT_EQ(g.cols(), a.cols());
  ASSERT_EQ(t.rows(), a.cols());
  ASSERT_EQ(t.cols(), a.rows());
  EXPECT_EQ(g.nnz(), a.nnz());
  EXPECT_EQ(t.nnz(), a.nnz());
  EXPECT_TRUE(bitwise_equal(g.apply(x), a.apply(x)));
  EXPECT_TRUE(bitwise_equal(t.apply(y), a.apply_left(y)));
}

// --- The CSR Neumann loop the grouped kernel replaced, kept as the oracle ---

template <std::size_t W>
void csr_neumann_series(const la::CsrMatrix& a,
                        std::array<la::IterativeResult*, W> res,
                        std::vector<double> term, double tol,
                        std::size_t max_iter) {
  const std::size_t n = a.rows();
  std::vector<double> next(W * n);
  const std::size_t* const row_ptr = a.row_ptr().data();
  const std::size_t* const col = a.col_idx().data();
  const double* const val = a.values().data();
  std::array<double*, W> x;
  for (std::size_t w = 0; w < W; ++w) x[w] = res[w]->x.data();
  if (term.empty()) {
    term.resize(W * n);
    for (std::size_t i = 0; i < W * n; ++i) term[i] = x[i % W][i / W];
  }
  std::size_t it = res[0]->iterations;
  for (bool stopped = false; !stopped && it < max_iter;) {
    ++it;
    const double* const cur = term.data();
    double* const out = next.data();
    std::array<double, W> t{};
    for (std::size_t r = 0; r < n; ++r) {
      std::array<double, W> s{};
      for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
        const double* const c = cur + W * col[k];
        for (std::size_t w = 0; w < W; ++w) s[w] += val[k] * c[w];
      }
      for (std::size_t w = 0; w < W; ++w) {
        out[W * r + w] = s[w];
        x[w][r] += s[w];
        t[w] = std::max(t[w], std::abs(s[w]));
      }
    }
    std::swap(term, next);
    for (std::size_t w = 0; w < W; ++w) {
      res[w]->iterations = it;
      res[w]->residual = t[w];
      res[w]->converged = t[w] < tol;
      stopped = stopped || res[w]->converged;
    }
  }
  for (std::size_t w = 0; w < W; ++w) {
    if constexpr (W > 1) {
      if (!res[w]->converged && it != max_iter) {
        std::vector<double> lone(n);
        for (std::size_t r = 0; r < n; ++r) lone[r] = term[W * r + w];
        csr_neumann_series<1>(a, {res[w]}, std::move(lone), tol, max_iter);
      }
    }
  }
}

la::IterativeResult csr_neumann(const la::CsrMatrix& a, const la::Vector& b,
                                double tol, std::size_t max_iter) {
  la::IterativeResult res;
  res.x = b;
  res.residual = b.norm_inf();
  csr_neumann_series<1>(a, {&res}, {}, tol, max_iter);
  return res;
}

std::array<la::IterativeResult, 2> csr_neumann(const la::CsrMatrix& a,
                                               const la::Vector& b1,
                                               const la::Vector& b2,
                                               double tol,
                                               std::size_t max_iter) {
  std::array<la::IterativeResult, 2> res;
  res[0].x = b1;
  res[0].residual = b1.norm_inf();
  res[1].x = b2;
  res[1].residual = b2.norm_inf();
  csr_neumann_series<2>(a, {&res[0], &res[1]}, {}, tol, max_iter);
  return res;
}

void expect_same_result(const la::IterativeResult& got,
                        const la::IterativeResult& want) {
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_TRUE(same_bits(got.residual, want.residual));
  EXPECT_TRUE(bitwise_equal(got.x, want.x));
}

/// Both directions of a level: the column solve over P against b1 and the
/// pair (b1, b2), the row solve over P^T against `pi`; each against the CSR
/// oracle, in bits, iterations and residual.  The pair's columns must stop
/// at different iterations so one runs on alone.
void expect_level_matches_oracle(const la::CsrMatrix& p, const la::Vector& pi,
                                 const la::Vector& b1, const la::Vector& b2) {
  constexpr double kTol = 1e-12;
  constexpr std::size_t kCap = 20000;
  const la::CsrMatrix pt = csr_transpose(p);
  const la::IterativeResult left =
      la::neumann_solve(la::GatherMatrix::transpose_of(p), pi, kTol, kCap);
  ASSERT_TRUE(left.converged);
  expect_same_result(left, csr_neumann(pt, pi, kTol, kCap));

  const la::GatherMatrix g(p);
  const la::IterativeResult right = la::neumann_solve(g, b1, kTol, kCap);
  ASSERT_TRUE(right.converged);
  expect_same_result(right, csr_neumann(p, b1, kTol, kCap));

  const auto pair = la::neumann_solve(g, b1, b2, kTol, kCap);
  const auto want = csr_neumann(p, b1, b2, kTol, kCap);
  ASSERT_TRUE(pair[0].converged && pair[1].converged);
  EXPECT_NE(pair[0].iterations, pair[1].iterations);
  expect_same_result(pair[0], want[0]);
  expect_same_result(pair[1], want[1]);
}

/// The tau' column M^-1 eps of a level and a Q R image of it, scaled up so
/// its series runs longer: the pair a moments admission solves.
std::pair<la::Vector, la::Vector> column_pair(
    const finwork::net::LevelMatrices& lm) {
  la::Vector tau_rhs(lm.event_rates.size());
  for (std::size_t i = 0; i < tau_rhs.size(); ++i) {
    tau_rhs[i] = 1.0 / lm.event_rates[i];
  }
  la::Vector flow = lm.q.apply(lm.r.apply(tau_rhs));
  flow *= 1e3;
  return {std::move(tau_rhs), std::move(flow)};
}

void expect_model_level_matches_oracle(
    const finwork::cluster::ExperimentConfig& cfg, std::size_t level) {
  const finwork::net::StateSpace space(finwork::cluster::build_cluster(cfg),
                                       cfg.workstations);
  const finwork::net::LevelMatrices& lm = space.level(level);
  const auto [b1, b2] = column_pair(lm);
  expect_level_matches_oracle(lm.p, space.initial_vector(level), b1, b2);
}

}  // namespace

// Every row length from 0 to 17, each taking 1 to 9 rows, so most groups end
// in a partial block; signed values spanning 33 binades.
TEST(GatherMatrix, ApplyMatchesCsrBitwiseOnEveryRowLength) {
  for (unsigned seed = 0; seed < 6; ++seed) {
    const auto count = [seed](std::size_t len) {
      return 1 + (len * 7 + seed) % 9;
    };
    expect_same_action(grouped_random(40, 17, count, 0.0, seed), seed);
  }
}

// Groups that are exact multiples of the block width, and groups smaller
// than one block only.
TEST(GatherMatrix, ApplyMatchesCsrBitwiseOnWholeAndPartialBlocks) {
  constexpr std::size_t kLanes = la::GatherMatrix::kLanes;
  const auto whole = [](std::size_t len) { return kLanes * (1 + len % 3); };
  expect_same_action(grouped_random(30, 17, whole, 0.0, 11), 11);
  const auto partial = [](std::size_t len) { return len % kLanes; };
  expect_same_action(grouped_random(30, 17, partial, 0.0, 12), 12);
}

TEST(GatherMatrix, OneRowAndZeroRows) {
  expect_same_action(la::CsrMatrix(1, 5, {{0, 1, 0.5}, {0, 4, -2.0}}), 1);
  expect_same_action(la::CsrMatrix(1, 3, {}), 2);
  expect_same_action(la::CsrMatrix(0, 4, {}), 3);
  expect_same_action(la::CsrMatrix(4, 0, {}), 4);
  expect_same_action(la::CsrMatrix(0, 0, {}), 5);
  // Only empty rows: one length-0 group, every entry of A x an exact +0.0.
  const la::GatherMatrix empty{la::CsrMatrix(6, 6, {})};
  const la::Vector y = empty.apply(random_vector(6, 6));
  for (const double v : y) EXPECT_TRUE(same_bits(v, 0.0));
}

TEST(GatherMatrix, SizeMismatchThrows) {
  const la::CsrMatrix a(3, 4, {{0, 1, 1.0}});
  EXPECT_THROW((void)la::GatherMatrix(a).apply(la::Vector(3, 1.0)),
               std::invalid_argument);
  EXPECT_THROW(
      (void)la::GatherMatrix::transpose_of(a).apply(la::Vector(4, 1.0)),
      std::invalid_argument);
}

// Random substochastic matrices with every row length 0-17: single columns
// in both directions and the paired kernel with one column stopping first.
TEST(GroupedNeumann, MatchesCsrLoopOnRandomSubstochastic) {
  for (unsigned seed = 0; seed < 4; ++seed) {
    const auto count = [seed](std::size_t len) {
      return 3 + (len * 5 + seed) % 11;
    };
    // Square: as many columns as rows.
    std::size_t n = 0;
    for (std::size_t len = 0; len <= 17; ++len) n += count(len);
    const la::CsrMatrix sub = grouped_random(n, 17, count, 0.97, seed);
    la::Vector b1(n), b2(n);
    for (std::size_t i = 0; i < n; ++i) {
      b1[i] = 1.0 / (1.0 + static_cast<double>(i));
      b2[i] = 1e3 * static_cast<double>((i * 7) % 5);
    }
    expect_level_matches_oracle(sub, b1, b1, b2);
  }
}

// Level 6 of the large_n model (distributed K = 6, D = 3003).
TEST(GroupedNeumann, MatchesCsrLoopOnLargeNLevel6) {
  finwork::cluster::ExperimentConfig cfg;
  cfg.architecture = finwork::cluster::Architecture::kDistributed;
  cfg.workstations = 6;
  expect_model_level_matches_oracle(cfg, 6);
}

// Level 5 of the Figure 6 C^2 = 10 model (distributed K = 5, remote disk
// C^2 = 10, D = 4043).
TEST(GroupedNeumann, MatchesCsrLoopOnFig6Scv10Level5) {
  finwork::cluster::ExperimentConfig cfg;
  cfg.architecture = finwork::cluster::Architecture::kDistributed;
  cfg.workstations = 5;
  cfg.shapes.remote_disk = finwork::cluster::ServiceShape::from_scv(10.0);
  expect_model_level_matches_oracle(cfg, 5);
}

// A cap below both stop iterations, between them, and zero: each column is
// reported as the capped CSR loop reports it.
TEST(GroupedNeumann, CappedSolvesMatchCsrLoop) {
  const auto count = [](std::size_t len) { return 2 + len % 5; };
  std::size_t n = 0;
  for (std::size_t len = 0; len <= 12; ++len) n += count(len);
  const la::CsrMatrix p = grouped_random(n, 12, count, 0.999, 21);
  const la::GatherMatrix g(p);
  const la::Vector b1(n, 1.0);
  la::Vector b2(n, 0.0);
  b2[n / 2] = 1e4;
  const auto full = la::neumann_solve(g, b1, b2, 1e-12, 200000);
  ASSERT_NE(full[0].iterations, full[1].iterations);
  const std::size_t between = (full[0].iterations + full[1].iterations) / 2;
  for (const std::size_t cap : {std::size_t{0}, std::size_t{7}, between}) {
    const auto pair = la::neumann_solve(g, b1, b2, 1e-12, cap);
    const auto want = csr_neumann(p, b1, b2, 1e-12, cap);
    expect_same_result(pair[0], want[0]);
    expect_same_result(pair[1], want[1]);
    expect_same_result(la::neumann_solve(g, b1, 1e-12, cap),
                       csr_neumann(p, b1, 1e-12, cap));
  }
}

// The "iterative/neumann" probe fires once per column of a paired solve,
// b1 first: armed for one firing, the first column returns b1 unconverged
// and the second is the lone solve bit for bit; armed for two, both do.
TEST(GroupedNeumann, FaultProbeFiresOncePerColumn) {
  namespace check = finwork::check;
  if (!check::kFaultInjectEnabled) GTEST_SKIP() << "fault probes compiled out";
  const auto count = [](std::size_t len) { return 1 + len % 6; };
  std::size_t n = 0;
  for (std::size_t len = 0; len <= 9; ++len) n += count(len);
  const la::GatherMatrix g(grouped_random(n, 9, count, 0.9, 31));
  const la::Vector b1(n, 1.0);
  const la::Vector b2(n, 2.0);
  const la::IterativeResult lone2 = la::neumann_solve(g, b2);
  const auto expect_injected = [](const la::IterativeResult& res,
                                  const la::Vector& b) {
    EXPECT_FALSE(res.converged);
    EXPECT_EQ(res.iterations, 0u);
    EXPECT_TRUE(same_bits(res.residual, b.norm_inf()));
    EXPECT_TRUE(bitwise_equal(res.x, b));
  };

  const std::uint64_t fired = check::fault_fire_count("iterative/neumann");
  check::arm_fault("iterative/neumann", 1);
  const auto first = la::neumann_solve(g, b1, b2);
  check::disarm_all_faults();
  EXPECT_EQ(check::fault_fire_count("iterative/neumann"), fired + 1);
  expect_injected(first[0], b1);
  expect_same_result(first[1], lone2);

  check::arm_fault("iterative/neumann", 3);
  const auto both = la::neumann_solve(g, b1, b2);
  check::disarm_all_faults();
  EXPECT_EQ(check::fault_fire_count("iterative/neumann"), fired + 3);
  expect_injected(both[0], b1);
  expect_injected(both[1], b2);
}
