#include "core/model_cache.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "check/fault_inject.h"
#include "check/invariants.h"
#include "linalg/iterative.h"
#include "linalg/solver_error.h"
#include "network/network_spec.h"
#include "obs/counters.h"
#include "obs/sink.h"
#include "obs/trace.h"

namespace finwork::core {

// ---------------------------------------------------------------------------
// ModelArtifacts
// ---------------------------------------------------------------------------

ModelArtifacts::ModelArtifacts(const net::NetworkSpec& spec,
                               std::size_t workstations, ModelOptions options)
    : space_(spec, workstations), k_(workstations), opts_(options) {
  // Fail fast on networks whose first-passage times diverge.
  spec.validate_connectivity();
  levels_ = std::make_unique<Level[]>(k_ + 1);
}

namespace {

// Fixed controls of the fallback ladder: the relative residual target of
// every iterative stage and of the shifted rescue, and the caps of the
// Neumann stage and of each Krylov stage (BiCGSTAB, GMRES).
constexpr double kTolerance = 1e-12;
constexpr std::size_t kMaxNeumannIterations = 20000;
constexpr std::size_t kMaxKrylovIterations = 20000;

std::string format_double(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// r = b - x(I - P) = b - x + xP for a row solve, through `gather` (P^T);
/// a column solve mirrors it through P.
la::Vector residual(const la::GatherMatrix& gather, const la::Vector& b,
                    const la::Vector& x) {
  la::Vector r = gather.apply(x);
  r -= x;
  r += b;
  return r;
}

}  // namespace

la::Vector ModelArtifacts::ladder_solve(const Level& lvl, std::size_t k,
                                        const la::Vector& b, bool left) const {
  // Stage 1: dense LU, on every level prepared_level factorized.
  if (lvl.lu) {
    obs::counter_add(obs::Counter::kDenseSolves);
    return left ? lvl.lu->solve_left(b) : lvl.lu->solve(b);
  }
  // Stage 2: matrix-free iterative backend, Neumann -> BiCGSTAB -> GMRES,
  // all through the gather operator: P_k for column solves, P_k^T for row
  // solves.
  obs::counter_add(obs::Counter::kIterativeSolves);
  const la::GatherMatrix& gather = gather_operator(k, left);
  la::IterativeResult res =
      la::neumann_solve(gather, b, kTolerance, kMaxNeumannIterations);
  if (res.converged) return std::move(res.x);
  return krylov_solve(k, gather, b, left);
}

la::Vector ModelArtifacts::krylov_solve(std::size_t k,
                                        const la::GatherMatrix& gather,
                                        const la::Vector& b, bool left) const {
  const auto apply_a = [&gather](const la::Vector& v) {
    la::Vector y = v;
    y -= gather.apply(v);
    return y;
  };
  la::IterativeResult res =
      la::bicgstab_left(apply_a, b, kTolerance, kMaxKrylovIterations);
  if (res.converged) return std::move(res.x);
  res = la::gmres_left(apply_a, b, kTolerance, kMaxKrylovIterations);
  if (res.converged) return std::move(res.x);
  if (opts_.strict) {
    SolverErrorContext ctx;
    ctx.level = k;
    ctx.dimension = space_.dimension(k);
    ctx.residual = res.residual;
    ctx.iterations = res.iterations;
    ctx.detail = "iterative backend exhausted in strict mode";
    throw SolverError(SolverErrorKind::kNonConvergence, SolverStage::kGmres,
                      std::move(ctx));
  }
  obs::counter_add(obs::Counter::kFallbackActivations);
  obs::emit_event("degradation/iterative", "(I-P_k)", k, obs::kNoIndex,
                  "Neumann/BiCGSTAB/GMRES all stalled (residual " +
                      format_double(res.residual) +
                      "); entering shifted-operator rescue");
  return rescue_solve(k, gather, b, left);
}

const la::GatherMatrix& ModelArtifacts::gather_operator(std::size_t k,
                                                        bool left) const {
  Level& lvl = levels_[k];
  const std::size_t side = left ? 0 : 1;
  std::call_once(lvl.gather_once[side], [&] {
    const la::CsrMatrix& p = space_.level(k).p;
    lvl.gather[side].emplace(left ? la::GatherMatrix::transpose_of(p)
                                  : la::GatherMatrix(p));
  });
  return *lvl.gather[side];
}

la::Vector ModelArtifacts::rescue_solve(std::size_t k,
                                        const la::GatherMatrix& gather,
                                        const la::Vector& b, bool left) const {
  const std::size_t d = space_.dimension(k);
  const double target = kTolerance * std::max(b.norm_inf(), 1e-300);
  double last_residual = -1.0;
  if (!check::fault_at("ladder/rescue")) {
    for (const double sigma : {1e-8, 1e-5, 1e-2}) {
      // Outer Richardson on the shifted operator: the fixed point of
      //   x_{m+1} (I - P + sigma I) = b + sigma x_m
      // is the solution of x (I - P) = b, the error contracts by
      // sigma (A + sigma I)^-1 every outer step, and each inner system is
      // strictly better conditioned than (I - P) itself.
      std::optional<la::LuDecomposition> shifted;
      if (d <= opts_.dense_threshold) {
        try {
          shifted.emplace(
              la::CsrMatrix::identity_minus(space_.level(k).p, 1.0 + sigma));
        } catch (const SolverError&) {
          continue;  // shifted factorization failed too: escalate sigma
        }
      }
      const auto inner_solve =
          [&](const la::Vector& rhs) -> std::optional<la::Vector> {
        if (shifted) {
          return left ? shifted->solve_left(rhs) : shifted->solve(rhs);
        }
        // (I - P + sigma I) = (1 + sigma)(I - P/(1 + sigma)): the scaled
        // Neumann series contracts at least as fast as 1/(1 + sigma).
        const double scale = 1.0 + sigma;
        const auto apply_scaled = [&](const la::Vector& v) {
          la::Vector y = gather.apply(v);
          y /= scale;
          return y;
        };
        la::Vector rhs_scaled = rhs;
        rhs_scaled /= scale;
        // The series stops a decade below the outer target: its truncation
        // error is a floor the outer residual cannot get under.
        la::IterativeResult inner = la::neumann_solve_left(
            apply_scaled, rhs_scaled, 0.1 * target, kMaxNeumannIterations);
        if (!inner.converged) return std::nullopt;
        return std::move(inner.x);
      };
      constexpr std::size_t kMaxOuter = 200;
      la::Vector x(d, 0.0);
      bool inner_failed = false;
      for (std::size_t outer = 0; outer < kMaxOuter && !inner_failed;
           ++outer) {
        la::Vector rhs = x;
        rhs *= sigma;
        rhs += b;
        std::optional<la::Vector> next = inner_solve(rhs);
        if (!next) {
          inner_failed = true;
          break;
        }
        x = std::move(*next);
        last_residual = residual(gather, b, x).norm_inf();
        if (last_residual <= target) {
          obs::emit_event("degradation/shifted-retry", "(I-P_k)", k,
                          obs::kNoIndex,
                          "recovered by shifted-operator Richardson, sigma=" +
                              format_double(sigma));
          return x;
        }
      }
    }
  }
  SolverErrorContext ctx;
  ctx.level = k;
  ctx.dimension = d;
  if (last_residual >= 0.0) ctx.residual = last_residual;
  ctx.detail =
      "fallback ladder exhausted (dense LU, Neumann/BiCGSTAB/GMRES, "
      "shifted retry)";
  throw SolverError(SolverErrorKind::kNonConvergence, SolverStage::kShiftedRetry,
                    std::move(ctx));
}

const ModelArtifacts::Level& ModelArtifacts::prepared_level(
    std::size_t k) const {
  if (k == 0 || k > k_) throw std::out_of_range("ModelArtifacts: bad level");
  Level& lvl = levels_[k];
  if (lvl.prepared.load(std::memory_order_acquire)) {
    obs::counter_add(obs::Counter::kLuReuseHits);
    return lvl;
  }
  std::call_once(lvl.once, [&] {
    const obs::ObsSpan span("solver/prepare_level");
    const net::LevelMatrices& lm = space_.level(k);
    const std::size_t d = space_.dimension(k);
    if (d <= opts_.dense_threshold) {
      const obs::ObsSpan factor_span("solver/factorize_level");
      try {
        lvl.lu.emplace(la::CsrMatrix::identity_minus(lm.p, 1.0));
      } catch (const SolverError& e) {
        if (e.kind() != SolverErrorKind::kSingular || opts_.strict) {
          SolverErrorContext ctx = e.context();
          ctx.level = k;  // attach the level the factorization belongs to
          throw SolverError(e.kind(), e.stage(), std::move(ctx));
        }
        obs::counter_add(obs::Counter::kFallbackActivations);
        obs::emit_event("degradation/lu-singular", "(I-P_k)", k,
                        e.context().pivot, e.what());
        // The level degrades to the matrix-free iterative backend.
      }
    }
    if (lvl.lu) {
      lvl.rcond = lvl.lu->rcond_estimate();
      obs::counter_add(obs::Counter::kConditionEstimates);
      const double cond = lvl.rcond > 0.0
                              ? 1.0 / lvl.rcond
                              : std::numeric_limits<double>::infinity();
      if (opts_.max_condition > 0.0 && cond > opts_.max_condition) {
        if (opts_.strict) {
          SolverErrorContext ctx;
          ctx.level = k;
          ctx.dimension = d;
          ctx.condition_estimate = cond;
          ctx.detail =
              "condition estimate beyond ModelOptions::max_condition in "
              "strict mode";
          throw SolverError(SolverErrorKind::kIllConditioned,
                            SolverStage::kLuFactorize, std::move(ctx));
        }
        obs::counter_add(obs::Counter::kFallbackActivations);
        obs::emit_event("degradation/ill-conditioned", "(I-P_k)", k,
                        obs::kNoIndex,
                        "condition estimate " + format_double(cond) +
                            " beyond max_condition " +
                            format_double(opts_.max_condition) +
                            "; the level keeps solving with its factor");
      }
    }
    // tau'_k = (I - P_k)^-1 (M_k^-1 eps)
    la::Vector rhs(d);
    for (std::size_t i = 0; i < d; ++i) rhs[i] = 1.0 / lm.event_rates[i];
    lvl.tau = ladder_solve(lvl, k, rhs, /*left=*/false);
    if constexpr (check::kEnabled) {
      // tau'_k = V_k eps: mean remaining epoch time per state — finite and
      // positive, or the level's (I - P_k) solve went off the rails.
      check::check_finite(lvl.tau, "tau'_k", k);
      check::check_positive_rates(lvl.tau, "tau'_k", k);
    }
    lvl.prepared.store(true, std::memory_order_release);
  });
  return lvl;
}

const la::Vector& ModelArtifacts::tau(std::size_t k) const {
  return prepared_level(k).tau;
}

la::Vector ModelArtifacts::solve_left(std::size_t k,
                                      const la::Vector& pi) const {
  return ladder_solve(prepared_level(k), k, pi, /*left=*/true);
}

la::Vector ModelArtifacts::solve_right(std::size_t k, const la::Vector& b,
                                       const la::Vector& start) const {
  const Level& lvl = prepared_level(k);
  if (lvl.lu || start.empty()) return ladder_solve(lvl, k, b, /*left=*/false);
  la::Vector x = ladder_solve(
      lvl, k, residual(gather_operator(k, /*left=*/false), b, start),
      /*left=*/false);
  x += start;
  return x;
}

std::array<la::Vector, 2> ModelArtifacts::solve_right(
    std::size_t k, const std::array<la::Vector, 2>& b,
    const std::array<la::Vector, 2>& start) const {
  const Level& lvl = prepared_level(k);
  if (lvl.lu) {
    return {ladder_solve(lvl, k, b[0], /*left=*/false),
            ladder_solve(lvl, k, b[1], /*left=*/false)};
  }
  obs::counter_add(obs::Counter::kIterativeSolves, 2);
  const la::GatherMatrix& p = gather_operator(k, /*left=*/false);
  std::array<la::Vector, 2> rhs;
  for (std::size_t c = 0; c < 2; ++c) {
    rhs[c] = start[c].empty() ? b[c] : residual(p, b[c], start[c]);
  }
  auto res =
      la::neumann_solve(p, rhs[0], rhs[1], kTolerance, kMaxNeumannIterations);
  std::array<la::Vector, 2> x;
  for (std::size_t c = 0; c < 2; ++c) {
    x[c] = res[c].converged ? std::move(res[c].x)
                            : krylov_solve(k, p, rhs[c], /*left=*/false);
    if (!start[c].empty()) x[c] += start[c];
  }
  return x;
}

const la::Vector& ModelArtifacts::drain_mean(std::size_t k) const {
  const la::Vector& tau_k = tau(k);  // validates k
  Level& lvl = levels_[k];
  std::call_once(lvl.h_once, [&] {
    const la::Vector below = k == 1 ? la::Vector(1, 0.0) : drain_mean(k - 1);
    lvl.h = tau_k + solve_right(k, space_.level(k).q.apply(below));
  });
  return lvl.h;
}

const la::Vector& ModelArtifacts::drain_second(std::size_t k) const {
  const la::Vector& h_k = drain_mean(k);
  Level& lvl = levels_[k];
  std::call_once(lvl.x_once, [&] {
    const net::LevelMatrices& lm = space_.level(k);
    la::Vector flow =
        lm.q.apply(k == 1 ? la::Vector(1, 0.0) : drain_second(k - 1));
    const la::Vector& rates = lm.event_rates;
    for (std::size_t i = 0; i < flow.size(); ++i) flow[i] += h_k[i] / rates[i];
    lvl.x = solve_right(k, flow);
  });
  return lvl.x;
}

double ModelArtifacts::level_rcond(std::size_t k) const {
  return prepared_level(k).rcond;
}

std::size_t ModelArtifacts::level_factor_entries(std::size_t k) const {
  const Level& lvl = prepared_level(k);
  return lvl.lu ? lvl.lu->stored_entries() : 0;
}

// ---------------------------------------------------------------------------
// Canonical key
// ---------------------------------------------------------------------------

namespace {

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_double(std::vector<std::uint8_t>& out, double v) {
  // Bit-exact: 0.5 and 0.5000001 are different models; also distinguishes
  // -0.0 from 0.0, which is fine — specs are built from the same literals.
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u64(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

void put_vector(std::vector<std::uint8_t>& out, const la::Vector& v) {
  put_u64(out, v.size());
  for (std::size_t i = 0; i < v.size(); ++i) put_double(out, v[i]);
}

void put_matrix(std::vector<std::uint8_t>& out, const la::Matrix& m) {
  put_u64(out, m.rows());
  put_u64(out, m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) put_double(out, m(r, c));
  }
}

}  // namespace

std::vector<std::uint8_t> canonical_model_key(const net::NetworkSpec& spec,
                                              std::size_t workstations,
                                              const ModelOptions& options) {
  std::vector<std::uint8_t> key;
  key.reserve(256);
  key.push_back(4);  // encoding version (v4: solve tolerances now constants)
  put_u64(key, workstations);
  put_u64(key, spec.num_stations());
  for (const net::Station& st : spec.stations()) {
    put_string(key, st.name);
    put_u64(key, st.multiplicity);
    put_string(key, st.service.name());
    put_vector(key, st.service.entry());
    put_matrix(key, st.service.rate_matrix());
  }
  put_vector(key, spec.entry());
  put_matrix(key, spec.routing());
  put_vector(key, spec.exit());
  put_u64(key, options.dense_threshold);
  key.push_back(options.strict ? 1 : 0);
  put_double(key, options.max_condition);
  return key;
}

// ---------------------------------------------------------------------------
// ModelCache
// ---------------------------------------------------------------------------

bool ModelCache::KeyLess::operator()(const Key& a,
                                     const Key& b) const noexcept {
  if (a.size() != b.size()) return a.size() < b.size();
  return std::memcmp(a.data(), b.data(), a.size()) < 0;
}

ModelCache::ModelCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

std::shared_ptr<const ModelArtifacts> ModelCache::acquire(
    const net::NetworkSpec& spec, std::size_t workstations,
    ModelOptions options) {
  const obs::ObsSpan span("cache/acquire");
  Key key = canonical_model_key(spec, workstations, options);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = index_.find(key); it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++hits_;
      obs::counter_add(obs::Counter::kModelCacheHits);
      return it->second->model;
    }
    ++misses_;
    obs::counter_add(obs::Counter::kModelCacheMisses);
  }

  // Build outside the lock so acquires of other models proceed.  A failure
  // propagates from here with nothing inserted.
  std::shared_ptr<const ModelArtifacts> model;
  {
    const obs::ObsSpan build_span("cache/build_model");
    if (check::fault_at("cache/build")) {
      SolverErrorContext ctx;
      ctx.detail = "injected cache build failure";
      throw SolverError(SolverErrorKind::kCacheBuildFailure,
                        SolverStage::kCacheBuild, std::move(ctx));
    }
    model = std::make_shared<const ModelArtifacts>(spec, workstations, options);
  }

  const std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = index_.find(key); it != index_.end()) {
    // A concurrent miss of the same key got here first; ours is dropped
    // before any of its levels was built.
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->model;
  }
  lru_.push_front(Entry{key, model});
  index_.emplace(std::move(key), lru_.begin());
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
    obs::counter_add(obs::Counter::kModelCacheEvictions);
  }
  return model;
}

ModelCacheStats ModelCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return {hits_, misses_, evictions_, lru_.size(), capacity_};
}

void ModelCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  index_.clear();
  lru_.clear();
  hits_ = 0;
  misses_ = 0;
  evictions_ = 0;
}

ModelCache& ModelCache::global() {
  static ModelCache cache;
  return cache;
}

}  // namespace finwork::core
