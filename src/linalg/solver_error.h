#pragma once
// Structured error taxonomy for the numerical layer.
//
// Every failure the solver stack can hit — a singular factorization, a
// condition-number breach, an iterative backend that ran out of iterations,
// a model-cache build that died — used to surface as a bare
// std::runtime_error with a free-form message.  SolverError replaces those
// throws with a machine-readable (kind, stage, context) triple so callers
// can dispatch on *what* failed and *where* (fail-fast vs degrade, retry vs
// abort) and error reports carry enough numerical context (dimension, pivot,
// condition estimate, residual, iteration count) to debug a figure-scale
// sweep without rerunning it under a debugger.
//
// SolverError derives from std::runtime_error, so existing catch sites keep
// working unchanged.  See docs/ROBUSTNESS.md for the full taxonomy and the
// fallback ladder that produces these errors.

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>

namespace finwork {

/// What failed.
enum class SolverErrorKind {
  kSingular,          ///< matrix singular to working precision
  kIllConditioned,    ///< condition estimate beyond the configured ceiling
  kNonConvergence,    ///< an iterative method exhausted its iteration cap
  kCacheBuildFailure, ///< building a ModelCache entry failed
};

/// Where in the solve pipeline it failed.
enum class SolverStage {
  kLuFactorize,        ///< dense PLU factorization
  kGmres,              ///< restarted GMRES Krylov backend
  kExpm,               ///< matrix exponential / its action
  kCacheBuild,         ///< ModelCache model build on a miss
};

/// Stable lowercase names for logs and tests (e.g. "singular", "gmres").
[[nodiscard]] std::string_view solver_error_kind_name(
    SolverErrorKind kind) noexcept;
[[nodiscard]] std::string_view solver_stage_name(SolverStage stage) noexcept;

/// Numerical context of a failure.  Fields default to "unknown" sentinels;
/// only the ones the throw site can cheaply know are filled in.
struct SolverErrorContext {
  /// Sentinel for absent indices (level, pivot).
  static constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

  std::size_t level = kNoIndex;      ///< population level k, if any
  std::size_t dimension = 0;         ///< system dimension (0 = unknown)
  std::size_t pivot = kNoIndex;      ///< offending pivot column, if any
  double condition_estimate = 0.0;   ///< est. condition number (0 = unknown)
  double residual = -1.0;            ///< last residual norm (< 0 = unknown)
  std::size_t iterations = 0;        ///< iterations spent before giving up
  std::string detail;                ///< free-form amplification
};

/// The structured exception.  what() is generated from the triple, e.g.:
///   "solver error [singular] at stage lu_factorize: dim 40, pivot 17,
///    condition estimate 3.2e+18 (matrix is singular to working precision)"
class SolverError : public std::runtime_error {
 public:
  SolverError(SolverErrorKind kind, SolverStage stage,
              SolverErrorContext context = {});

  [[nodiscard]] SolverErrorKind kind() const noexcept { return kind_; }
  [[nodiscard]] SolverStage stage() const noexcept { return stage_; }
  [[nodiscard]] const SolverErrorContext& context() const noexcept {
    return context_;
  }

 private:
  SolverErrorKind kind_;
  SolverStage stage_;
  SolverErrorContext context_;
};

}  // namespace finwork
