// Tests for the grouped gather operator (la::GatherMatrix) and the Neumann
// kernel that runs over it: both must reproduce the CSR row loops they
// replace bit for bit, through the portable sweep and, on a host with
// AVX-512, through the AVX-512 sweep.

#include <gtest/gtest.h>

#include <algorithm>
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
#include "obs/counters.h"

namespace la = finwork::la;
namespace obs = finwork::obs;
using la::detail::SweepKernel;

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
  la::CsrBuilder b(lengths.size(), cols);
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
      b.add(pool[j], scale > 0.0 ? v[j] * scale / sum : v[j]);
    }
    b.end_row();
  }
  return b.finish();
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
  std::vector<std::vector<std::pair<std::size_t, double>>> rows(a.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
      rows[a.col_idx()[k]].emplace_back(r, a.values()[k]);
    }
  }
  la::CsrBuilder b(a.cols(), a.rows());
  for (const auto& row : rows) {
    for (const auto& [c, v] : row) b.add(c, v);
    b.end_row();
  }
  return b.finish();
}

/// The kernels this host can run: the portable one, and the AVX-512 one
/// where the host has it.
std::vector<SweepKernel> host_kernels() {
  std::vector<SweepKernel> kernels{SweepKernel::kPortable};
  if (la::detail::host_sweep_kernel() == SweepKernel::kAvx512) {
    kernels.push_back(SweepKernel::kAvx512);
  }
  return kernels;
}

const char* kernel_name(SweepKernel kernel) {
  return kernel == SweepKernel::kAvx512 ? "avx512" : "portable";
}

/// Runs `body(kernel)` for each kernel the host has, then skips with a
/// message when that left out the AVX-512 one.
template <class Body>
void for_each_kernel(Body body) {
  for (const SweepKernel kernel : host_kernels()) {
    SCOPED_TRACE(kernel_name(kernel));
    body(kernel);
  }
  if (host_kernels().size() == 1) {
    GTEST_SKIP() << "no AVX-512 on this host: only the portable sweep ran";
  }
}

void expect_same_action(const la::CsrMatrix& a, unsigned seed,
                        SweepKernel kernel) {
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
  EXPECT_TRUE(bitwise_equal(g.apply(x, kernel), a.apply(x)));
  EXPECT_TRUE(bitwise_equal(t.apply(y, kernel), a.apply_left(y)));
}

// --- The CSR Neumann loop the grouped kernel replaced, kept as the oracle ---

la::IterativeResult csr_neumann(const la::CsrMatrix& a, const la::Vector& b,
                                double tol, std::size_t max_iter) {
  la::IterativeResult res;
  res.x = b;
  res.residual = b.norm_inf();
  const std::size_t n = a.rows();
  std::vector<double> term(b.begin(), b.end());
  std::vector<double> next(n);
  while (!res.converged && res.iterations < max_iter) {
    ++res.iterations;
    double t = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      double s = 0.0;
      for (std::size_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
        s += a.values()[k] * term[a.col_idx()[k]];
      }
      next[r] = s;
      res.x[r] += s;
      t = std::max(t, std::abs(s));
    }
    std::swap(term, next);
    res.residual = t;
    res.converged = t < tol;
  }
  return res;
}

void expect_same_result(const la::IterativeResult& got,
                        const la::IterativeResult& want) {
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_TRUE(same_bits(got.residual, want.residual));
  EXPECT_TRUE(bitwise_equal(got.x, want.x));
}

/// Both directions of a level, through `kernel`: the square action of P
/// against CsrMatrix::apply, the column solve over P against b and the row
/// solve over P^T against `pi`, each against the CSR oracle in bits,
/// iterations and residual.
void expect_level_matches_oracle(const la::CsrMatrix& p, const la::Vector& pi,
                                 const la::Vector& b, SweepKernel kernel) {
  constexpr double kTol = 1e-12;
  constexpr std::size_t kCap = 20000;
  const la::CsrMatrix pt = csr_transpose(p);
  const la::IterativeResult left = la::detail::neumann_solve(
      la::GatherMatrix::transpose_of(p), pi, kTol, kCap, kernel);
  ASSERT_TRUE(left.converged);
  expect_same_result(left, csr_neumann(pt, pi, kTol, kCap));

  const la::GatherMatrix g(p);
  EXPECT_TRUE(bitwise_equal(g.apply(b, kernel), p.apply(b)));
  const la::IterativeResult right =
      la::detail::neumann_solve(g, b, kTol, kCap, kernel);
  ASSERT_TRUE(right.converged);
  expect_same_result(right, csr_neumann(p, b, kTol, kCap));
}

/// The Q R image of a level's tau' column M^-1 eps, scaled up so its series
/// runs longer: the right-hand side of a moments admission's m1 solve.
la::Vector admission_column(const finwork::net::LevelMatrices& lm) {
  la::Vector tau_rhs(lm.event_rates.size());
  for (std::size_t i = 0; i < tau_rhs.size(); ++i) {
    tau_rhs[i] = 1.0 / lm.event_rates[i];
  }
  la::Vector flow = lm.q.apply(lm.r.apply(tau_rhs));
  flow *= 1e3;
  return flow;
}

void expect_model_level_matches_oracle(
    const finwork::cluster::ExperimentConfig& cfg, std::size_t level) {
  const finwork::net::StateSpace space(finwork::cluster::build_cluster(cfg),
                                       cfg.workstations);
  const finwork::net::LevelMatrices& lm = space.level(level);
  for_each_kernel([&](SweepKernel kernel) {
    expect_level_matches_oracle(lm.p, space.initial_vector(level),
                                admission_column(lm), kernel);
  });
}

}  // namespace

// Every row length from 0 to 17, each taking 1 to 9 rows, so every group
// is a partial block; signed values spanning 33 binades.  Forty columns, so
// both A and A^T are non-square.
TEST(GatherMatrix, ApplyMatchesCsrBitwiseOnEveryRowLength) {
  for_each_kernel([](SweepKernel kernel) {
    for (unsigned seed = 0; seed < 6; ++seed) {
      const auto count = [seed](std::size_t len) {
        return 1 + (len * 7 + seed) % 9;
      };
      expect_same_action(grouped_random(40, 17, count, 0.0, seed), seed,
                         kernel);
    }
  });
}

// Groups that are exact multiples of the block width, groups of whole
// blocks plus a tail, and groups smaller than one block only.
TEST(GatherMatrix, ApplyMatchesCsrBitwiseOnWholeAndPartialBlocks) {
  constexpr std::size_t kLanes = la::GatherMatrix::kLanes;
  for_each_kernel([](SweepKernel kernel) {
    const auto whole = [](std::size_t len) { return kLanes * (1 + len % 3); };
    expect_same_action(grouped_random(30, 17, whole, 0.0, 11), 11, kernel);
    const auto mixed = [](std::size_t len) { return kLanes + 1 + len % 7; };
    expect_same_action(grouped_random(30, 17, mixed, 0.0, 13), 13, kernel);
    const auto partial = [](std::size_t len) { return len % kLanes; };
    expect_same_action(grouped_random(30, 17, partial, 0.0, 12), 12, kernel);
  });
}

TEST(GatherMatrix, OneRowAndZeroRows) {
  for_each_kernel([](SweepKernel kernel) {
    expect_same_action(la::to_csr(la::Matrix{{0.0, 0.5, 0.0, 0.0, -2.0}}), 1,
                       kernel);
    expect_same_action(la::to_csr(la::Matrix(1, 3)), 2, kernel);
    expect_same_action(la::to_csr(la::Matrix(0, 4)), 3, kernel);
    expect_same_action(la::to_csr(la::Matrix(4, 0)), 4, kernel);
    expect_same_action(la::to_csr(la::Matrix(0, 0)), 5, kernel);
    expect_same_action(la::to_csr(la::Matrix{{-0.75}}), 6, kernel);
    // Only empty rows: one length-0 group, every entry of A x an exact +0.0.
    const la::GatherMatrix empty{la::to_csr(la::Matrix(6, 6))};
    const la::Vector y = empty.apply(random_vector(6, 6), kernel);
    for (const double v : y) EXPECT_TRUE(same_bits(v, 0.0));
  });
}

TEST(GatherMatrix, SizeMismatchThrows) {
  la::Matrix dense(3, 4);
  dense(0, 1) = 1.0;
  const la::CsrMatrix a = la::to_csr(dense);
  EXPECT_THROW((void)la::GatherMatrix(a).apply(la::Vector(3, 1.0)),
               std::invalid_argument);
  EXPECT_THROW(
      (void)la::GatherMatrix::transpose_of(a).apply(la::Vector(4, 1.0)),
      std::invalid_argument);
}

// Random substochastic matrices with every row length 0-17, 3 to 31 rows
// of each (whole 16-row blocks, tails and lone partial blocks): the square
// action and single columns in both directions.
TEST(GroupedNeumann, MatchesCsrLoopOnRandomSubstochastic) {
  for_each_kernel([](SweepKernel kernel) {
    for (unsigned seed = 0; seed < 4; ++seed) {
      const auto count = [seed](std::size_t len) {
        return 3 + (len * 5 + seed) % 29;
      };
      // Square: as many columns as rows.
      std::size_t n = 0;
      for (std::size_t len = 0; len <= 17; ++len) n += count(len);
      const la::CsrMatrix sub = grouped_random(n, 17, count, 0.97, seed);
      la::Vector b(n), pi(n);
      for (std::size_t i = 0; i < n; ++i) {
        b[i] = 1.0 / (1.0 + static_cast<double>(i));
        pi[i] = 1e3 * static_cast<double>((i * 7) % 5);
      }
      expect_level_matches_oracle(sub, pi, b, kernel);
    }
  });
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

// A cap of zero, a small one and one halfway to convergence: each solve is
// reported as the capped CSR loop reports it.
TEST(GroupedNeumann, CappedSolvesMatchCsrLoop) {
  const auto count = [](std::size_t len) { return 2 + (len * 3) % 19; };
  std::size_t n = 0;
  for (std::size_t len = 0; len <= 12; ++len) n += count(len);
  const la::CsrMatrix p = grouped_random(n, 12, count, 0.999, 21);
  const la::GatherMatrix g(p);
  const la::Vector b(n, 1.0);
  for_each_kernel([&](SweepKernel kernel) {
    const la::IterativeResult full =
        la::detail::neumann_solve(g, b, 1e-12, 200000, kernel);
    ASSERT_TRUE(full.converged);
    for (const std::size_t cap :
         {std::size_t{0}, std::size_t{7}, full.iterations / 2}) {
      expect_same_result(la::detail::neumann_solve(g, b, 1e-12, cap, kernel),
                         csr_neumann(p, b, 1e-12, cap));
    }
  });
}

// linalg.simd_sweeps counts every sweep of the AVX-512 kernel, and a solve
// runs that kernel whenever the host has it: a silent fall-back to the
// portable sweep fails here.  The portable seam counts none.
TEST(GroupedNeumann, SimdSweepsCountedOnAvx512Host) {
  if (!(__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512dq"))) {
    GTEST_SKIP() << "no AVX-512 on this host";
  }
  EXPECT_EQ(la::detail::host_sweep_kernel(), SweepKernel::kAvx512);
  const auto count = [](std::size_t len) { return 1 + len % 20; };
  std::size_t n = 0;
  for (std::size_t len = 0; len <= 9; ++len) n += count(len);
  const la::GatherMatrix g(grouped_random(n, 9, count, 0.9, 41));
  const la::Vector b(n, 1.0);
  const std::uint64_t before = obs::counter_value(obs::Counter::kSimdSweeps);
  const la::IterativeResult res = la::neumann_solve(g, b);
  ASSERT_GT(res.iterations, 0u);
  EXPECT_EQ(obs::counter_value(obs::Counter::kSimdSweeps) - before,
            res.iterations);
  (void)la::detail::neumann_solve(g, b, 1e-12, 200000, SweepKernel::kPortable);
  EXPECT_EQ(obs::counter_value(obs::Counter::kSimdSweeps) - before,
            res.iterations);
}

// The "iterative/neumann" probe fires once per solve: armed for one firing,
// the first solve returns b unconverged and the next is the full solve bit
// for bit.
TEST(GroupedNeumann, FaultProbeFiresOncePerSolve) {
  namespace check = finwork::check;
  if (!check::kFaultInjectEnabled) GTEST_SKIP() << "fault probes compiled out";
  const auto count = [](std::size_t len) { return 1 + len % 6; };
  std::size_t n = 0;
  for (std::size_t len = 0; len <= 9; ++len) n += count(len);
  const la::GatherMatrix g(grouped_random(n, 9, count, 0.9, 31));
  const la::Vector b(n, 2.0);
  const la::IterativeResult full = la::neumann_solve(g, b);

  const std::uint64_t fired = check::fault_fire_count("iterative/neumann");
  check::arm_fault("iterative/neumann", 1);
  const la::IterativeResult injected = la::neumann_solve(g, b);
  const la::IterativeResult after = la::neumann_solve(g, b);
  check::disarm_all_faults();
  EXPECT_EQ(check::fault_fire_count("iterative/neumann"), fired + 1);
  EXPECT_FALSE(injected.converged);
  EXPECT_EQ(injected.iterations, 0u);
  EXPECT_TRUE(same_bits(injected.residual, b.norm_inf()));
  EXPECT_TRUE(bitwise_equal(injected.x, b));
  expect_same_result(after, full);
}
