#include "core/model_cache.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "check/fault_inject.h"
#include "check/invariants.h"
#include "linalg/iterative.h"
#include "linalg/solver_error.h"
#include "network/network_spec.h"
#include "obs/counters.h"
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
// every iterative stage, and the caps of the Neumann stage and of each
// stage of la::krylov_solve (BiCGSTAB, GMRES).
constexpr double kTolerance = 1e-12;
constexpr std::size_t kMaxNeumannIterations = 20000;
constexpr std::size_t kMaxKrylovIterations = 20000;

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

la::Vector ModelArtifacts::ladder_solve(const Prepared& lvl, std::size_t k,
                                        const la::Vector& b, bool left) const {
  // Stage 1: dense LU, on every level prepared_level factorized.
  if (lvl.lu) {
    obs::counter_add(obs::Counter::kDenseSolves);
    return left ? lvl.lu->solve_left(b) : lvl.lu->solve(b);
  }
  // Stage 2: matrix-free iterative backend, Neumann, then the Krylov
  // fallback, all through the gather operator: P_k for column solves,
  // P_k^T for row solves.
  obs::counter_add(obs::Counter::kIterativeSolves);
  const la::GatherMatrix& gather = gather_operator(k, left);
  la::IterativeResult res =
      la::neumann_solve(gather, b, kTolerance, kMaxNeumannIterations);
  if (res.converged) return std::move(res.x);
  const auto apply_a = [&gather](const la::Vector& v) {
    la::Vector y = v;
    y -= gather.apply(v);
    return y;
  };
  return la::krylov_solve(apply_a, b, kTolerance, kMaxKrylovIterations, k).x;
}

const la::GatherMatrix& ModelArtifacts::gather_operator(std::size_t k,
                                                        bool left) const {
  return levels_[k].gather[left ? 0 : 1].get_or_init([&] {
    const la::CsrMatrix& p = space_.level(k).p;
    return left ? la::GatherMatrix::transpose_of(p) : la::GatherMatrix(p);
  });
}

const ModelArtifacts::Prepared& ModelArtifacts::prepared_level(
    std::size_t k) const {
  if (k == 0 || k > k_) throw std::out_of_range("ModelArtifacts: bad level");
  par::OnceCell<Prepared>& cell = levels_[k].prepared;
  if (const Prepared* built = cell.get()) {
    obs::counter_add(obs::Counter::kLuReuseHits);
    return *built;
  }
  return cell.get_or_init([&] {
    const obs::ObsSpan span("solver/prepare_level");
    const net::LevelMatrices& lm = space_.level(k);
    const std::size_t d = space_.dimension(k);
    Prepared lvl;
    if (d <= opts_.dense_threshold) {
      const obs::ObsSpan factor_span("solver/factorize_level");
      const la::CsrMatrix a = la::CsrMatrix::identity_minus(lm.p);
      try {
        lvl.lu.emplace(a);
      } catch (const SolverError& e) {
        SolverErrorContext ctx = e.context();
        ctx.level = k;  // attach the level the factorization belongs to
        throw SolverError(e.kind(), e.stage(), std::move(ctx));
      }
      // (I - P_k)^-1 = sum_n P_k^n is entrywise nonnegative, so its
      // inf-norm is the largest entry of (I - P_k)^-1 e: kappa_inf is exact.
      lvl.condition =
          a.norm_inf() * lvl.lu->solve(la::Vector(d, 1.0)).norm_inf();
      obs::counter_add(obs::Counter::kConditionEstimates);
      if (opts_.max_condition > 0.0 && lvl.condition > opts_.max_condition) {
        throw SolverError(
            SolverErrorKind::kIllConditioned, SolverStage::kLuFactorize,
            {.level = k, .dimension = d, .condition_estimate = lvl.condition,
             .detail = "condition number beyond ModelOptions::max_condition"});
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
    return lvl;
  });
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
  const Prepared& lvl = prepared_level(k);
  if (lvl.lu || start.empty()) return ladder_solve(lvl, k, b, /*left=*/false);
  la::Vector x = ladder_solve(
      lvl, k, residual(gather_operator(k, /*left=*/false), b, start),
      /*left=*/false);
  x += start;
  return x;
}

const la::Vector& ModelArtifacts::drain_mean(std::size_t k) const {
  const la::Vector& tau_k = tau(k);  // validates k
  return levels_[k].h.get_or_init([&] {
    const la::Vector below = k == 1 ? la::Vector(1, 0.0) : drain_mean(k - 1);
    return tau_k + solve_right(k, space_.level(k).q.apply(below));
  });
}

const la::Vector& ModelArtifacts::drain_second(std::size_t k) const {
  const la::Vector& h_k = drain_mean(k);
  return levels_[k].x.get_or_init([&] {
    const net::LevelMatrices& lm = space_.level(k);
    la::Vector flow =
        lm.q.apply(k == 1 ? la::Vector(1, 0.0) : drain_second(k - 1));
    const la::Vector& rates = lm.event_rates;
    for (std::size_t i = 0; i < flow.size(); ++i) flow[i] += h_k[i] / rates[i];
    return solve_right(k, flow);
  });
}

double ModelArtifacts::level_condition(std::size_t k) const {
  return prepared_level(k).condition;
}

std::size_t ModelArtifacts::level_factor_entries(std::size_t k) const {
  const Prepared& lvl = prepared_level(k);
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
  key.push_back(5);  // encoding version (v5: no strict byte)
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
