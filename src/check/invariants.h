#pragma once
// Runtime invariant checker for the LAQT transient recursion.
//
// The recursion V_k = (I - P_k)^-1 M_k^-1, Y_k = V_k M_k Q_k and the epoch
// sums over Y_K R_K silently produce garbage the moment a matrix stops
// being substochastic or a probability vector drifts off the simplex.  The
// checkers here state those laws explicitly and, on violation, throw an
// InvariantViolation that names the offending matrix/vector, the population
// level k, and the first offending row — enough to localize the defect
// without a debugger.
//
// All checkers are always compiled; hot-path call sites guard them with
// `if constexpr (check::kEnabled)` (see check_config.h) so release builds
// pay nothing.

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>

#include "check/check_config.h"
#include "linalg/matrix.h"
#include "linalg/sparse.h"

namespace finwork::check {

/// Sentinel for checks on objects without a population level (e.g. a
/// phase-type entrance vector).
inline constexpr std::size_t kNoLevel = static_cast<std::size_t>(-1);

/// Default absolute tolerance for probability-mass comparisons.
inline constexpr double kDefaultTolerance = 1e-9;

/// Thrown when a model invariant fails.  Carries enough structure for tests
/// and callers to dispatch on where the violation happened.
class InvariantViolation : public std::logic_error {
 public:
  InvariantViolation(std::string_view invariant, std::string_view object,
                     std::size_t level, std::size_t row, std::string detail);

  /// Short name of the violated law, e.g. "substochastic".
  [[nodiscard]] const std::string& invariant() const noexcept {
    return invariant_;
  }
  /// Name of the offending matrix or vector, e.g. "P_k".
  [[nodiscard]] const std::string& object() const noexcept { return object_; }
  /// Population level k, or kNoLevel.
  [[nodiscard]] std::size_t level() const noexcept { return level_; }
  /// First offending row/index, or kNoLevel if not row-specific.
  [[nodiscard]] std::size_t row() const noexcept { return row_; }

 private:
  std::string invariant_;
  std::string object_;
  std::size_t level_;
  std::size_t row_;
};

/// Every entry finite (no NaN/Inf propagation).
void check_finite(const la::Vector& v, std::string_view name,
                  std::size_t level = kNoLevel);

/// Non-negative entries summing to 1 within `tol` (entrance vectors,
/// steady-state distributions).
void check_probability_vector(const la::Vector& pi, std::string_view name,
                              std::size_t level = kNoLevel,
                              double tol = kDefaultTolerance);

/// Strictly positive, finite entries (the diagonal of M_k).
void check_positive_rates(const la::Vector& rates, std::string_view name,
                          std::size_t level = kNoLevel);

/// Non-negative entries, every row sum <= 1 + tol (P_k).
void check_substochastic(const la::CsrMatrix& m, std::string_view name,
                         std::size_t level = kNoLevel,
                         double tol = kDefaultTolerance);

/// Non-negative entries, every row sum == 1 within tol (R_k).
void check_stochastic(const la::CsrMatrix& m, std::string_view name,
                      std::size_t level = kNoLevel,
                      double tol = kDefaultTolerance);

/// Row conservation of one level: P_k eps + Q_k eps = eps (something always
/// happens next — internal move or departure).
void check_level_flow(const la::CsrMatrix& p, const la::CsrMatrix& q,
                      std::size_t level, double tol = kDefaultTolerance);

/// Fixed-point residual: ||pi_next - pi||_inf <= tol, used for the
/// steady-state law p_ss Y_K R_K = p_ss after the steady state's solve
/// reports convergence.
void check_fixed_point(const la::Vector& pi, const la::Vector& pi_next,
                       std::string_view name, std::size_t level,
                       double tol);

}  // namespace finwork::check
