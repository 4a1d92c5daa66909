#include "linalg/expm.h"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "linalg/lu.h"
#include "linalg/solver_error.h"

namespace finwork::la {

namespace {

// Padé(13) coefficients from Higham, "The scaling and squaring method for the
// matrix exponential revisited", SIAM J. Matrix Anal. Appl. 26(4), 2005.
constexpr double kPade13[] = {
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0,  129060195264000.0,   10559470521600.0,
    670442572800.0,      33522128640.0,       1323241920.0,
    40840800.0,          960960.0,            16380.0,
    182.0,               1.0};

// theta_13: the largest ||A||_1 for which the degree-13 approximant meets
// double-precision accuracy without scaling.
constexpr double kTheta13 = 5.371920351148152;

}  // namespace

Matrix expm(const Matrix& a) {
  if (!a.square()) throw std::invalid_argument("expm: matrix is not square");
  const std::size_t n = a.rows();
  if (n == 0) return Matrix{};

  const double norm = a.norm1();
  int squarings = 0;
  if (norm > kTheta13) {
    squarings = static_cast<int>(std::ceil(std::log2(norm / kTheta13)));
  }
  Matrix as = a;
  if (squarings > 0) as *= std::ldexp(1.0, -squarings);

  const Matrix a2 = as * as;
  const Matrix a4 = a2 * a2;
  const Matrix a6 = a2 * a4;

  // b[0] A6 + b[1] A4 + b[2] A2 (+ b[3] I), entry by entry, summed left
  // to right.
  const auto combine = [&](const double (&b)[4], bool with_identity) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        double x = a6(i, j) * b[0] + a4(i, j) * b[1] + a2(i, j) * b[2];
        if (with_identity) x += (i == j ? 1.0 : 0.0) * b[3];
        m(i, j) = x;
      }
    }
    return m;
  };
  // U = A * (A6*(b13*A6 + b11*A4 + b9*A2) + b7*A6 + b5*A4 + b3*A2 + b1*I)
  Matrix u = a6 * combine({kPade13[13], kPade13[11], kPade13[9], 0.0}, false);
  u += combine({kPade13[7], kPade13[5], kPade13[3], kPade13[1]}, true);
  u = as * u;
  // V = A6*(b12*A6 + b10*A4 + b8*A2) + b6*A6 + b4*A4 + b2*A2 + b0*I
  Matrix v = a6 * combine({kPade13[12], kPade13[10], kPade13[8], 0.0}, false);
  v += combine({kPade13[6], kPade13[4], kPade13[2], kPade13[0]}, true);

  // exp(As) ~= (V - U)^-1 (V + U)
  Matrix r;
  try {
    const LuDecomposition lu(v - u);
    v += u;
    r = lu.solve(v);
  } catch (const SolverError& e) {
    // Re-stage: the caller sees the Padé denominator failure as an expm
    // failure, with the LU diagnostics carried along.
    SolverErrorContext ctx = e.context();
    ctx.detail = "expm: Pade denominator V - U is singular (" +
                 std::string(e.what()) + ")";
    throw SolverError(e.kind(), SolverStage::kExpm, std::move(ctx));
  }
  for (int s = 0; s < squarings; ++s) r = r * r;
  return r;
}

Vector expm_action_left(const Vector& x, const Matrix& a, double t,
                        double tol) {
  if (!a.square()) {
    throw std::invalid_argument("expm_action_left: matrix is not square");
  }
  const std::size_t n = a.rows();
  if (x.size() != n) {
    throw std::invalid_argument("expm_action_left: size mismatch");
  }
  if (t == 0.0 || n == 0) return x;
  if (t < 0.0) throw std::invalid_argument("expm_action_left: t must be >= 0");

  // Uniformization: exp(tA) = sum_k e^{-qt} (qt)^k / k! * Pu^k with
  // Pu = I + A/q, q >= max_i |a_ii|.  Valid for sub-generators.
  double q = 0.0;
  for (std::size_t i = 0; i < n; ++i) q = std::max(q, std::abs(a(i, i)));
  if (q == 0.0) return x;  // A has a zero diagonal and non-negative rows => A=0
  q *= 1.0001;             // margin keeps Pu's diagonal strictly positive

  const double qt = q * t;
  // Pu action from the left: y = v * Pu = v + (v * A)/q.
  auto step = [&](const Vector& v) {
    Vector y = v * a;
    y /= q;
    y += v;
    return y;
  };

  Vector term = x;  // v * Pu^k
  double weight = std::exp(-qt);
  Vector acc = term * weight;
  // Steffensen-style truncation: stop when remaining Poisson mass * current
  // term magnitude is below tol.
  double cumulative = weight;
  const std::size_t max_iter =
      static_cast<std::size_t>(qt + 12.0 * std::sqrt(qt) + 64.0);
  for (std::size_t k = 1; k <= max_iter; ++k) {
    term = step(term);
    weight *= qt / static_cast<double>(k);
    if (weight > 0.0) axpy(weight, term, acc);
    cumulative += weight;
    if ((1.0 - cumulative) * term.norm_inf() < tol && k > qt) break;
  }
  return acc;
}

}  // namespace finwork::la
