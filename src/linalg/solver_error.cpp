#include "linalg/solver_error.h"

#include <sstream>

namespace finwork {

namespace {

std::string format_message(SolverErrorKind kind, SolverStage stage,
                           const SolverErrorContext& ctx) {
  std::ostringstream ss;
  ss << "solver error [" << solver_error_kind_name(kind) << "] at stage "
     << solver_stage_name(stage);
  if (ctx.level != SolverErrorContext::kNoIndex) {
    ss << ", level " << ctx.level;
  }
  if (ctx.dimension != 0) ss << ": dim " << ctx.dimension;
  if (ctx.pivot != SolverErrorContext::kNoIndex) ss << ", pivot " << ctx.pivot;
  if (ctx.condition_estimate != 0.0) {
    ss << ", condition estimate " << ctx.condition_estimate;
  }
  if (ctx.residual >= 0.0) ss << ", residual " << ctx.residual;
  if (ctx.iterations != 0) ss << ", after " << ctx.iterations << " iterations";
  if (!ctx.detail.empty()) ss << " (" << ctx.detail << ")";
  return ss.str();
}

}  // namespace

std::string_view solver_error_kind_name(SolverErrorKind kind) noexcept {
  switch (kind) {
    case SolverErrorKind::kSingular: return "singular";
    case SolverErrorKind::kIllConditioned: return "ill_conditioned";
    case SolverErrorKind::kNonConvergence: return "non_convergence";
    case SolverErrorKind::kCacheBuildFailure: return "cache_build_failure";
  }
  return "unknown";
}

std::string_view solver_stage_name(SolverStage stage) noexcept {
  switch (stage) {
    case SolverStage::kLuFactorize: return "lu_factorize";
    case SolverStage::kGmres: return "gmres";
    case SolverStage::kExpm: return "expm";
    case SolverStage::kCacheBuild: return "cache_build";
  }
  return "unknown";
}

SolverError::SolverError(SolverErrorKind kind, SolverStage stage,
                         SolverErrorContext context)
    : std::runtime_error(format_message(kind, stage, context)),
      kind_(kind),
      stage_(stage),
      context_(std::move(context)) {}

}  // namespace finwork
