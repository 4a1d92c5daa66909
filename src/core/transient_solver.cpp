#include "core/transient_solver.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "check/invariants.h"
#include "core/model_cache.h"
#include "linalg/iterative.h"
#include "linalg/solver_error.h"
#include "obs/counters.h"
#include "obs/trace.h"

namespace finwork::core {

namespace {

/// Stop rule of the steady state's Krylov solves: relative 2-norm residual
/// of z B = e_D and of the tau'_K correction.
constexpr double kTolerance = 1e-14;
/// The invariant checks on p_ss apply Y_K through a level solve, itself
/// accurate to 1e-12, so they allow 1e-9.
constexpr double kCheckTolerance = 1e-9;

/// Fast-forward closes the mean recursion once successive departure-epoch
/// distributions satisfy ||pi_{j+1} - pi_j||_inf below this.  It sits above
/// the level solves' 1e-12 tolerance because the iterates themselves carry
/// solve error.
constexpr double kMixingTolerance = 1e-11;

/// Fast-forward closes the moments recursion once the per-admission
/// increments have stabilised to this relative precision.
constexpr double kMomentMixingTolerance = 1e-10;

/// Mean driver: the saturated-phase recursion pi_{j+1} = pi_j Y_top R_top at
/// population `top`, started from pi_0 = p_top.  It owns the iterate, the
/// warm-started resolvent and the mixing test, so solve() and makespan_grid()
/// differ only in what they read off each iterate.
class SaturatedMean {
 public:
  SaturatedMean(const ModelArtifacts& model, std::size_t top)
      : model_(model),
        top_(top),
        level_(model.space().level(top)),
        pi_(model.space().initial_vector(top)) {}

  /// Calls visit(j, pi_j) for j = 0, 1, ..., advances and returns how many
  /// iterates it visited.  With fast-forward on, the loop closes early at
  /// the first iterate pi_m that moved less than kMixingTolerance: pi_m is
  /// left unvisited in pi() and stands for every iterate m .. advances.
  template <class Visit>
  std::size_t run(std::size_t advances, bool fast_forward, Visit&& visit) {
    la::Vector prev;
    for (std::size_t j = 0;; ++j) {
      visit(j, std::as_const(pi_));
      if (j == advances) return j + 1;
      const obs::ObsSpan epoch_span("solver/epoch");
      obs::counter_add(obs::Counter::kEpochRecursions);
      prev = std::move(pi_);
      pi_ = level_.r.apply_left(depart_from(prev));
      if (fast_forward && (pi_ - prev).norm_inf() < kMixingTolerance) {
        obs::counter_add(obs::Counter::kFastForwardActivations);
        obs::counter_add(obs::Counter::kEpochsSkipped, advances - j - 1);
        return j + 1;
      }
    }
  }

  /// The current iterate: the last one visited, or the mixed one.
  [[nodiscard]] const la::Vector& pi() const { return pi_; }

  /// pi() Y_top, the departure that hands the run to the draining phase.
  la::Vector depart() { return depart_from(pi_); }

 private:
  /// cur Y_top = (cur (I - P_top)^-1) Q_top.  The resolvent w = cur (I -
  /// P_top)^-1 is carried across epochs and updated by solving for the
  /// increment only: the iterates mix geometrically, so the increment — and
  /// with it the Neumann work of each epoch — shrinks toward zero.
  la::Vector depart_from(const la::Vector& cur) {
    if (w_.empty()) {
      w_ = model_.solve_left(top_, cur);
    } else {
      la::Vector rhs = cur;
      rhs -= last_solved_;
      w_ += model_.solve_left(top_, rhs);
    }
    last_solved_ = cur;
    return level_.q.apply_left(w_);
  }

  const ModelArtifacts& model_;
  std::size_t top_;
  const net::LevelMatrices& level_;
  la::Vector pi_;
  la::Vector w_;
  la::Vector last_solved_;  // the iterate that produced w_
};

/// One uniformized step of level lm's generator -M (I - P) on the row
/// vector v, in place, with q >= max rate:
///   v <- v - s + s P,   s = (v .* M) / q,
/// leaving s (the old v's departing rate mass) in `scaled` for the caller to
/// route through Q; `work` is scratch.
void uniformized_step(const net::LevelMatrices& lm, double q, la::Vector& v,
                      la::Vector& scaled, la::Vector& work) {
  scaled.resize(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    scaled[i] = v[i] * lm.event_rates[i] / q;
  }
  work.resize(v.size());
  work.fill(0.0);
  lm.p.apply_left_add(scaled, work);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = (work[i] - scaled[i]) + v[i];
  }
}

/// Marks a uniformized sequence whose limit was not reached while stepping.
constexpr std::size_t kUnsettled = static_cast<std::size_t>(-1);

/// sum_n Poisson(n; qt) a_of(n) for qt > 0, the weights expanded outward
/// from the mode in log space (exp(-qt) underflows beyond qt ~ 745), and
/// the far-tail mass neither loop reaches charged at a_inf = lim a_n.
/// a_of sees n = mode, mode + 1, ... before any n below the mode.
///
/// Every term from index `settled` >= 1 on is a_inf (kUnsettled: not
/// known).  When the terms below it hold under 1e-17 of the Poisson mass,
/// the mixture is its limit and no loop runs, so a huge finite qt costs
/// nothing and its mode is never cast to an index.
template <class A>
double poisson_mixture(double qt, A&& a_of, double a_inf,
                       std::size_t settled) {
  if (settled != kUnsettled && static_cast<double>(settled) < qt) {
    // Below n0 < qt the weights shrink at least by n0 / qt per index, so
    // P(n <= n0) <= w_n0 / (1 - n0 / qt).  q t is +inf only for a time
    // near DBL_MAX.
    const auto n0 = static_cast<double>(settled - 1);
    if (std::isinf(qt) || n0 * std::log(qt) - qt - std::lgamma(n0 + 1.0) -
                                  std::log1p(-n0 / qt) <
                              std::log(1e-17)) {
      return std::min(1.0, std::max(0.0, a_inf));
    }
  }
  const auto mode = static_cast<std::size_t>(qt);
  const double log_w_mode = static_cast<double>(mode) * std::log(qt) - qt -
                            std::lgamma(static_cast<double>(mode) + 1.0);
  double total = 0.0;
  double mass = 0.0;
  // Upward from the mode.
  double w = std::exp(log_w_mode);
  for (std::size_t n = mode;; ++n) {
    total += w * a_of(n);
    mass += w;
    w *= qt / static_cast<double>(n + 1);
    if (w < 1e-17 && static_cast<double>(n) > qt) break;
  }
  // Downward from the mode.
  w = std::exp(log_w_mode);
  for (std::size_t n = mode; n-- > 0;) {
    w *= static_cast<double>(n + 1) / qt;
    total += w * a_of(n);
    mass += w;
    if (w < 1e-17) break;
  }
  total += std::max(0.0, 1.0 - mass) * a_inf;
  return std::min(1.0, std::max(0.0, total));
}

/// Validates an N-grid and returns its saturating workloads N = K + j as
/// (j, position) pairs sorted by j.
std::vector<std::pair<std::size_t, std::size_t>> saturating_targets(
    std::span<const std::size_t> tasks, std::size_t k, const char* who) {
  std::vector<std::pair<std::size_t, std::size_t>> targets;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i] == 0) {
      throw std::invalid_argument(std::string(who) + ": need >= 1 task");
    }
    if (tasks[i] >= k) targets.emplace_back(tasks[i] - k, i);
  }
  std::sort(targets.begin(), targets.end());
  return targets;
}

}  // namespace

TransientSolver::TransientSolver(const net::NetworkSpec& spec,
                                 std::size_t workstations,
                                 ModelOptions model_options,
                                 QueryOptions options)
    : model_(std::make_shared<const ModelArtifacts>(spec, workstations,
                                                    model_options)),
      k_(workstations),
      opts_(options) {}

TransientSolver::TransientSolver(std::shared_ptr<const ModelArtifacts> model,
                                 QueryOptions options)
    : model_(std::move(model)), k_(0), opts_(options) {
  if (!model_) {
    throw std::invalid_argument("TransientSolver: null model");
  }
  k_ = model_->workstations();
}

TransientSolver::~TransientSolver() = default;

const net::StateSpace& TransientSolver::space() const noexcept {
  return model_->space();
}

const la::Vector& TransientSolver::tau(std::size_t k) const {
  return model_->tau(k);
}

la::Vector TransientSolver::apply_y(std::size_t k, const la::Vector& pi) const {
  return space().level(k).q.apply_left(model_->solve_left(k, pi));
}

la::Vector TransientSolver::apply_r(std::size_t k, const la::Vector& pi) const {
  return space().level(k).r.apply_left(pi);
}

double TransientSolver::mean_epoch_time(std::size_t k,
                                        const la::Vector& pi) const {
  return la::dot(pi, tau(k));
}

double TransientSolver::epoch_second_moment(std::size_t k,
                                            const la::Vector& pi) const {
  // E[T^2 | pi] = 2 pi V_k^2 eps = 2 pi V_k tau'_k; one extra column solve.
  const net::LevelMatrices& lm = space().level(k);
  la::Vector rhs = tau(k);
  for (std::size_t i = 0; i < rhs.size(); ++i) rhs[i] /= lm.event_rates[i];
  return 2.0 * la::dot(pi, model_->solve_right(k, rhs));
}

double TransientSolver::epoch_reliability(std::size_t k, const la::Vector& pi,
                                          double t) const {
  if (!std::isfinite(t) || t < 0.0) {
    throw std::invalid_argument("epoch_reliability: t must be finite, >= 0");
  }
  if (t == 0.0) return pi.sum();
  // Uniformization of the level generator A = -B_k = -M_k (I - P_k):
  // R(t) = sum_n Poisson(n; qt) (pi Pu^n) eps with Pu = I + A/q; the
  // survival mass -> 0.  Once it falls to 1e-17 of its start it counts as
  // that limit, so no t steps further than the survival takes to settle.
  const net::LevelMatrices& lm = space().level(k);
  const double q = lm.max_event_rate * 1.0001;
  const double qt = q * t;
  std::vector<double> survival{pi.sum()};
  std::size_t settled = kUnsettled;
  la::Vector term = pi;
  la::Vector scaled;
  la::Vector work;
  const auto step = [&] {
    uniformized_step(lm, q, term, scaled, work);
    survival.push_back(term.sum());
    if (survival.back() <= 1e-17 * survival.front()) {
      settled = survival.size() - 1;
    }
  };
  // The mixture starts at the mode: step to it, or until the mass settles.
  while (settled == kUnsettled && static_cast<double>(survival.size()) <= qt) {
    step();
  }
  const auto survival_at = [&](std::size_t n) {
    while (settled == kUnsettled && survival.size() <= n) step();
    return n < settled ? survival[n] : 0.0;
  };
  return poisson_mixture(qt, survival_at, 0.0, settled);
}

la::Vector TransientSolver::initial_vector() const {
  return space().initial_vector(k_);
}

DepartureTimeline TransientSolver::solve(std::size_t tasks) const {
  if (tasks == 0) {
    throw std::invalid_argument("TransientSolver::solve: need >= 1 task");
  }
  const obs::ObsSpan span("solver/solve");
  DepartureTimeline tl;
  tl.workstations = k_;
  tl.tasks = tasks;
  tl.epoch_times.reserve(tasks);
  tl.population.reserve(tasks);

  // Saturated phase: population pinned at `top`, departures replaced from
  // the queue, for tasks - top advances (tasks - top + 1 epochs).
  const std::size_t top = std::min(tasks, k_);
  const la::Vector& tau_top = tau(top);
  SaturatedMean saturated(*model_, top);
  const std::size_t advances = tasks - top;
  const std::size_t visited = saturated.run(
      advances, opts_.fast_forward, [&](std::size_t, const la::Vector& pi) {
        tl.epoch_times.push_back(la::dot(pi, tau_top));
      });
  if (visited <= advances) {
    // Mixed: every remaining saturated epoch departs from (numerically) the
    // same distribution, so close them all at its epoch time.
    tl.epoch_times.insert(tl.epoch_times.end(), advances + 1 - visited,
                          la::dot(saturated.pi(), tau_top));
  }
  tl.population.assign(tl.epoch_times.size(), top);

  // Draining phase: population falls top-1, top-2, ..., 1.  The first
  // departure reuses the saturated phase's warm-started resolvent.
  if (top > 1) {
    la::Vector pi = saturated.depart();
    for (std::size_t k = top - 1; k >= 1; --k) {
      const obs::ObsSpan epoch_span("solver/epoch");
      obs::counter_add(obs::Counter::kEpochRecursions);
      tl.epoch_times.push_back(mean_epoch_time(k, pi));
      tl.population.push_back(k);
      if (k > 1) pi = apply_y(k, pi);
    }
  }

  tl.cumulative.resize(tl.epoch_times.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < tl.epoch_times.size(); ++i) {
    acc += tl.epoch_times[i];
    tl.cumulative[i] = acc;
  }
  tl.makespan = acc;
  return tl;
}

double TransientSolver::makespan(std::size_t tasks) const {
  return makespan_grid({&tasks, 1})[0];
}

std::vector<double> TransientSolver::makespan_grid(
    std::span<const std::size_t> tasks) const {
  if (tasks.empty()) return {};
  const auto targets = saturating_targets(tasks, k_, "makespan_grid");
  const obs::ObsSpan span("solver/makespan_grid");
  obs::counter_add(obs::Counter::kGridPointsPerPass, tasks.size());
  std::vector<double> results(tasks.size(), 0.0);
  const net::StateSpace& sp = space();

  // Workloads below K never saturate: the whole run is a drain from level N,
  // E(T) = p_N h_N with h_N the model's drain_mean (model_cache.h).
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i] < k_) {
      results[i] = la::dot(sp.initial_vector(tasks[i]),
                           model_->drain_mean(tasks[i]));
    }
  }
  if (targets.empty()) return results;

  // Saturating workloads: N = K + j is harvested at iterate j of the mean
  // recursion as E(T) = prefix_j + pi_j h_K, where prefix_j is the mean
  // time of the j epochs already closed.  One pass to the largest j serves
  // every point, and a pass that closed by fast-forward serves every later
  // fast-forward query on this solver.
  if (opts_.fast_forward && mean_trajectory_) {
    obs::counter_add(obs::Counter::kTrajectoryReuses);
    for (const auto& [j, i] : targets) results[i] = mean_trajectory_->at(j);
    return results;
  }
  const la::Vector& h_k = model_->drain_mean(k_);
  const la::Vector& tau_k = tau(k_);
  SaturatedMean saturated(*model_, k_);
  MeanTrajectory path;
  double prefix = 0.0;
  const std::size_t advances = targets.back().first;
  const std::size_t visited = saturated.run(
      advances, opts_.fast_forward, [&](std::size_t, const la::Vector& pi) {
        path.harvest.push_back(prefix + la::dot(pi, h_k));
        prefix += la::dot(pi, tau_k);
      });
  const bool mixed = visited <= advances;
  if (mixed) {
    // Mixed at iterate m = visited: every later epoch departs from this same
    // distribution, so each remaining point closes in O(1) (see at()).
    path.prefix = prefix;
    path.t_ss = la::dot(saturated.pi(), tau_k);
    path.tail = la::dot(saturated.pi(), h_k);
  }
  for (const auto& [j, i] : targets) results[i] = path.at(j);
  if (mixed) mean_trajectory_ = std::move(path);
  return results;
}

double TransientSolver::MeanTrajectory::at(std::size_t j) const {
  if (j < harvest.size()) return harvest[j];
  //   E(T)(K + J) = prefix_m + (J - m) t_ss + pi_m h_K.
  const auto r = static_cast<double>(j - harvest.size());
  return prefix + r * t_ss + tail;
}

MakespanMoments TransientSolver::makespan_moments(std::size_t tasks) const {
  return makespan_moments_grid({&tasks, 1})[0];
}

std::vector<MakespanMoments> TransientSolver::makespan_moments_grid(
    std::span<const std::size_t> tasks) const {
  if (tasks.empty()) return {};
  const auto targets = saturating_targets(tasks, k_, "makespan_moments_grid");
  const obs::ObsSpan span("solver/makespan_moments_grid");
  obs::counter_add(obs::Counter::kGridPointsPerPass, tasks.size());
  std::vector<MakespanMoments> results(tasks.size());
  const net::StateSpace& sp = space();

  // The whole run is one absorbing chain whose blocks are the saturated
  // segments (level K, one per admission remaining) followed by the
  // draining levels K-1..1.  With B the full service-rate matrix,
  //   m1 = B^-1 eps   (remaining mean time per state)
  //   m2 = 2 B^-2 eps = 2 B^-1 m1,
  // and the block bidiagonal structure lets both be back-substituted one
  // block at a time using the cached per-level factorizations:
  //   m1_b = tau_b + (I-P)^-1 Q [R] m1_next
  //   x_b  = (I-P)^-1 (M^-1 m1_b + Q [R] x_next),   m2 = 2 x,
  // the x-step being V_b m1_b + (I-P)^-1 Q [R] x_next folded into one
  // resolvent solve.  The draining blocks are the model's drain vectors.
  const auto fill = [](MakespanMoments& mm, double mean, double x_val) {
    mm.mean = mean;
    mm.second_moment = 2.0 * x_val;
    mm.variance = mm.second_moment - mm.mean * mm.mean;
    mm.std_dev = std::sqrt(std::max(0.0, mm.variance));
    mm.scv = mm.variance / (mm.mean * mm.mean);
  };

  // Workloads below K are whole-run drains: level N's drain vectors ARE
  // workload N's remaining-time system.
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i] >= k_) continue;
    const la::Vector p0 = sp.initial_vector(tasks[i]);
    fill(results[i], la::dot(p0, model_->drain_mean(tasks[i])),
         la::dot(p0, model_->drain_second(tasks[i])));
  }
  if (targets.empty()) return results;

  // Saturating workloads N = K + j: one admission loop to the largest j,
  // recording the p0 dots at every admission, started from the drain at
  // j = 0 (m1_0 = h_K, x_0 = x_K).  A loop that closed by fast-forward
  // serves every later fast-forward query on this solver.
  const auto fill_targets = [&](const MomentsTrajectory& path) {
    for (const auto& [j, i] : targets) {
      const auto [mean, x_val] = path.at(j);
      fill(results[i], mean, x_val);
    }
  };
  if (opts_.fast_forward && moments_trajectory_) {
    obs::counter_add(obs::Counter::kTrajectoryReuses);
    fill_targets(*moments_trajectory_);
    return results;
  }
  const std::size_t j_max = targets.back().first;

  const net::LevelMatrices& lt = sp.level(k_);
  const la::Vector& rates = lt.event_rates;
  const la::Vector& tau_k = tau(k_);
  const la::Vector p0 = sp.initial_vector(k_);
  la::Vector m1 = model_->drain_mean(k_);
  la::Vector x = model_->drain_second(k_);
  MomentsTrajectory path;
  path.harvest.emplace_back(la::dot(p0, m1), la::dot(p0, x));
  bool closed = false;
  la::Vector d_prev;  // previous first difference of m1
  la::Vector e_prev;  // previous first difference of x
  la::Vector f_prev;  // previous second difference of x
  // Warm starts.  The iterates mix geometrically, so each column solve is
  // started from the trajectory's extrapolation and an iterative level
  // solves only for the (shrinking) correction:
  //   m1^_{j+1} = m1_j + d_j,   x^_j = x_{j-1} + e_{j-1} + f_{j-1},
  // each difference left out until the loop has made it.  The m1 column
  // is solved as (I - P)^-1 Q R m1_j, whose guess is m1^_{j+1} - tau'_K.
  const auto m1_start = [&](const la::Vector& d) {
    la::Vector s = m1;
    if (!d.empty()) s += d;
    s -= tau_k;
    return s;
  };
  for (std::size_t j = 1; j <= j_max; ++j) {
    // The m1 step is the column action of T = (I - P)^-1 Q R.
    la::Vector m1_new = tau_k + model_->solve_right(
                                    k_, lt.q.apply(lt.r.apply(m1)),
                                    m1_start(d_prev));
    la::Vector d = m1_new - m1;
    m1 = std::move(m1_new);
    // Past mixing, m1 grows by a constant vector per admission
    // (d_j -> t_ss eps); the test needs m1 only, so it runs before the solve.
    const bool d_mixed =
        opts_.fast_forward && j >= 3 &&
        (d - d_prev).norm_inf() <= kMomentMixingTolerance * d.norm_inf();
    la::Vector flow = lt.q.apply(lt.r.apply(x));
    for (std::size_t i = 0; i < flow.size(); ++i) flow[i] += m1[i] / rates[i];
    la::Vector x_start = x;
    if (!e_prev.empty()) x_start += e_prev;
    if (!f_prev.empty()) x_start += f_prev;
    const la::Vector x_prev = std::move(x);
    x = model_->solve_right(k_, flow, x_start);
    la::Vector e = x - x_prev;
    path.harvest.emplace_back(la::dot(p0, m1), la::dot(p0, x));
    if (j == j_max) break;

    if (j >= 2) {
      la::Vector f = e - e_prev;
      // Once d has mixed and the x increments have become arithmetic
      // (e_{j+i} ~ e_j + i f, so the second difference of x is stable),
      // close the remaining admissions in closed form (see at()).
      // f is a second difference of near-cancelling terms; its floating
      // noise floor is ~eps ||x||, below which no threshold can bite.
      const double noise_floor = 4.0 * 2.220446049250313e-16 * x.norm_inf();
      if (d_mixed && (f - f_prev).norm_inf() <=
                         kMomentMixingTolerance * f.norm_inf() + noise_floor) {
        path.d = la::dot(p0, d);
        path.e = la::dot(p0, e);
        path.f = la::dot(p0, f);
        obs::counter_add(obs::Counter::kFastForwardActivations);
        obs::counter_add(obs::Counter::kEpochsSkipped, j_max - j);
        closed = true;
        break;
      }
      f_prev = std::move(f);
    }
    d_prev = std::move(d);
    e_prev = std::move(e);
  }
  fill_targets(path);
  if (closed) moments_trajectory_ = std::move(path);
  return results;
}

std::pair<double, double> TransientSolver::MomentsTrajectory::at(
    std::size_t j) const {
  if (j < harvest.size()) return harvest[j];
  // Past the closing admission c, per point by linearity of the p0 dot —
  //   mean(K+J) = p0 m1 + R p0 d,
  //   x(K+J)    = p0 x + R p0 e + R(R+1)/2 p0 f,   R = J - c.
  const auto [mean_c, x_c] = harvest.back();
  const auto r = static_cast<double>(j - (harvest.size() - 1));
  return {mean_c + r * d, x_c + r * e + 0.5 * r * (r + 1.0) * f};
}

std::vector<double> TransientSolver::makespan_cdf(
    std::size_t tasks, const std::vector<double>& times) const {
  if (tasks == 0) {
    throw std::invalid_argument("makespan_cdf: need >= 1 task");
  }
  for (double t : times) {
    if (!std::isfinite(t) || t < 0.0) {
      throw std::invalid_argument("makespan_cdf: times must be finite, >= 0");
    }
  }
  if (times.empty()) return {};
  const obs::ObsSpan span("solver/makespan_cdf");
  const net::StateSpace& sp = space();
  const std::size_t top = std::min(tasks, k_);

  // Layered blocks b = 0 .. tasks-1: saturated segments with j admissions
  // remaining (j = tasks - top .. 0) at level top, then draining levels
  // top-1 .. 1, so block b sits at level min(top, tasks - b).  Block b's
  // dynamics are its level's (M, P); a departure feeds block b+1 (with the
  // R_top re-entry while admissions remain); level 1 departures absorb.
  const std::size_t saturated = tasks - top;  // blocks that re-admit
  const auto level_of = [&](std::size_t b) { return std::min(top, tasks - b); };

  // Uniformization rate: the fastest event rate across all levels (cached
  // per level at build time).
  double q = 0.0;
  for (std::size_t level = 1; level <= top; ++level) {
    q = std::max(q, sp.level(level).max_event_rate);
  }
  q *= 1.0001;

  const double t_max = *std::max_element(times.begin(), times.end());
  const double qt_max = q * t_max;
  // The pass stops at absorption long before this bound; the cap at 2^53
  // keeps the cast defined for any finite time.
  const auto n_max = static_cast<std::size_t>(
      std::min(qt_max + 12.0 * std::sqrt(qt_max + 1.0) + 64.0, 0x1p53));

  // DTMC pass: one row vector per block, stepped in place, and the absorbed
  // mass after each uniformized step.  The scratch vectors are sized once
  // and reused every step.
  const net::LevelMatrices& ltop = sp.level(top);
  std::vector<la::Vector> state(tasks);
  for (std::size_t b = 0; b < tasks; ++b) {
    state[b] = la::Vector(sp.dimension(level_of(b)), 0.0);
  }
  state[0] = sp.initial_vector(top);
  la::Vector scaled(sp.dimension(top));
  la::Vector out(sp.dimension(top));
  la::Vector handoff(sp.dimension(top));
  double absorbed = 0.0;
  std::vector<double> absorbed_after{absorbed};  // a_0

  for (std::size_t step = 1; step <= n_max; ++step) {
    // Descending blocks: block b still holds its old vector when it steps,
    // and its departures (scaled Q) land in block b+1, which already holds
    // its own stepped vector.
    for (std::size_t b = tasks; b-- > 0;) {
      const net::LevelMatrices& lm = sp.level(level_of(b));
      uniformized_step(lm, q, state[b], scaled, out);
      out.resize(sp.dimension(lm.level - 1));
      out.fill(0.0);
      lm.q.apply_left_add(scaled, out);
      if (b < saturated) {
        handoff.fill(0.0);
        ltop.r.apply_left_add(out, handoff);
        state[b + 1] += handoff;
      } else if (b + 1 < tasks) {
        state[b + 1] += out;
      } else {
        absorbed += out.sum();
      }
    }
    absorbed_after.push_back(absorbed);
    if (1.0 - absorbed < 1e-13) {
      // effectively done: later steps keep the same absorbed mass
      break;
    }
  }

  // Evaluate each time point: F(t) = sum_n Poisson(n; qt) a_n, with the
  // tail beyond the recorded steps charged at the final absorbed level, which
  // every term from the last recorded step on equals.
  const auto a_of = [&](std::size_t n) {
    return n < absorbed_after.size() ? absorbed_after[n]
                                     : absorbed_after.back();
  };
  std::vector<double> result(times.size());
  for (std::size_t ti = 0; ti < times.size(); ++ti) {
    const double t = times[ti];
    result[ti] = t == 0.0 ? 0.0
                          : poisson_mixture(q * t, a_of, absorbed_after.back(),
                                            absorbed_after.size() - 1);
  }
  return result;
}

double TransientSolver::makespan_cdf(std::size_t tasks, double time) const {
  return makespan_cdf(tasks, std::vector<double>{time})[0];
}

std::vector<TransientSolver::StationOccupancy>
TransientSolver::station_occupancy(std::size_t k, const la::Vector& pi) const {
  if (k == 0 || k > k_) {
    throw std::out_of_range("station_occupancy: bad level");
  }
  const net::StateSpace& sp = space();
  if (pi.size() != sp.dimension(k)) {
    throw std::invalid_argument("station_occupancy: size mismatch");
  }
  const std::size_t s = sp.num_stations();
  std::vector<StationOccupancy> occ(s);
  for (std::size_t is = 0; is < pi.size(); ++is) {
    const double w = pi[is];
    if (w == 0.0) continue;
    const std::span<const std::uint32_t> state = sp.state(k, is);
    for (std::size_t j = 0; j < s; ++j) {
      const net::StationModel& model = sp.model(j);
      occ[j].mean_customers +=
          w * static_cast<double>(model.population()[state[j]]);
      occ[j].mean_in_service += w * static_cast<double>(model.busy()[state[j]]);
    }
  }
  for (std::size_t j = 0; j < s; ++j) {
    occ[j].utilization =
        occ[j].mean_in_service /
        static_cast<double>(sp.spec().station(j).multiplicity);
  }
  return occ;
}

TransientSolver::DepartureCorrelation TransientSolver::steady_state_lag1()
    const {
  // With U_ij = E[T1 ; next-epoch start = j] = (V Y R)_ij (from
  // int t e^{-Bt} dt = B^-2 and Y = V M Q), the joint mean is
  // E[T1 T2] = p_ss V Y R tau'.  All factors act column-wise on tau'.
  const SteadyStateResult& ss = steady_state();
  const net::LevelMatrices& lm = space().level(k_);
  // z = R tau'
  const la::Vector z = lm.r.apply(tau(k_));
  // w = Y z = (I - P)^-1 Q z
  const la::Vector w = model_->solve_right(k_, lm.q.apply(z));
  // u = V w = (I - P)^-1 M^-1 w
  la::Vector rhs = w;
  for (std::size_t i = 0; i < rhs.size(); ++i) rhs[i] /= lm.event_rates[i];
  const la::Vector u = model_->solve_right(k_, rhs);

  DepartureCorrelation dc;
  const double joint = la::dot(ss.distribution, u);
  dc.covariance = joint - ss.interdeparture * ss.interdeparture;
  const double variance =
      ss.interdeparture_scv * ss.interdeparture * ss.interdeparture;
  dc.correlation = variance > 0.0 ? dc.covariance / variance : 0.0;
  return dc;
}

const la::Vector& TransientSolver::time_stationary_distribution() const {
  const SteadyStateResult& ss = steady_state();
  if (!ss.converged) {
    SolverErrorContext ctx;
    ctx.level = k_;
    ctx.dimension = ss.distribution.size();
    ctx.iterations = ss.iterations;
    ctx.detail = "time_stationary_distribution: the steady state did not "
                 "converge";
    throw SolverError(SolverErrorKind::kNonConvergence, SolverStage::kGmres,
                      std::move(ctx));
  }
  return *time_stationary_;
}

const SteadyStateResult& TransientSolver::steady_state() const {
  if (steady_) return *steady_;
  const obs::ObsSpan span("solver/steady_state");
  // z = p_ss (I - P)^-1, the expected visits per departure cycle, is the
  // stationary vector of the jump chain P + Q R: z P = z - p_ss and
  // z Q R = p_ss Y R = p_ss, so z (P + Q R) = z.  Solve z B = e_D, where B
  // is I - P - Q R with its last column (minus the sum of the others)
  // replaced by ones, which borders in sum(z) = 1.
  const net::LevelMatrices& lm = space().level(k_);
  const la::RowOperator apply_b = [&lm](const la::Vector& x) {
    la::Vector jump = lm.p.apply_left(x);
    lm.r.apply_left_add(lm.q.apply_left(x), jump);
    la::Vector y = x - jump;
    y[y.size() - 1] = x.sum();
    return y;
  };
  la::Vector e(lm.p.rows(), 0.0);
  e[e.size() - 1] = 1.0;
  la::IterativeResult res = la::bicgstab_left(apply_b, e, kTolerance);
  std::size_t iterations = res.iterations;
  if (!res.converged) {
    res = la::gmres_left(apply_b, e, kTolerance);
    iterations += res.iterations;
  }
  // Read off z: p_ss = z (I - P) / s with s = sum(z (I - P)), and
  // p_ss V = (z ./ M) / s for V = (I - P)^-1 M^-1, so t_ss = p_ss V eps and
  // the second moment 2 p_ss V tau' take no level solve.  As the saturated
  // CTMC has off-diagonal rates M (P + Q R), z ./ M normalized is also its
  // time-stationary distribution.
  const la::Vector& z = res.x;
  la::Vector sojourn = z;
  for (std::size_t i = 0; i < z.size(); ++i) sojourn[i] /= lm.event_rates[i];
  SteadyStateResult ss;
  ss.distribution = z - lm.p.apply_left(z);
  const double s = ss.distribution.sum();
  const double cycle = sojourn.sum();
  ss.distribution /= s;
  ss.interdeparture = cycle / s;
  ss.throughput = 1.0 / ss.interdeparture;
  // An iterative level's tau'_K carries the Neumann series' low bias, so
  // one BiCGSTAB solve of its residual corrects it before it enters the
  // second moment: (I - P) delta = M^-1 eps - (I - P) tau'_K.  A factored
  // level's tau'_K is exact to rounding and is used as it is.
  la::Vector tau_k = tau(k_);
  if (model_->level_factor_entries(k_) == 0) {
    la::Vector r = lm.p.apply(tau_k) - tau_k;
    for (std::size_t i = 0; i < r.size(); ++i) r[i] += 1.0 / lm.event_rates[i];
    const la::IterativeResult delta = la::bicgstab_left(
        [&lm](const la::Vector& v) { return v - lm.p.apply(v); }, r,
        kTolerance);
    if (delta.converged) tau_k += delta.x;
  }
  const double m2 = 2.0 * la::dot(sojourn, tau_k) / s;
  ss.interdeparture_scv =
      (m2 - ss.interdeparture * ss.interdeparture) /
      (ss.interdeparture * ss.interdeparture);
  sojourn /= cycle;
  time_stationary_ = std::move(sojourn);
  if constexpr (check::kEnabled) {
    if (res.converged) {
      // The steady-state law: p_ss Y_K R_K = p_ss on the simplex.
      check::check_probability_vector(ss.distribution, "p_ss", k_,
                                      kCheckTolerance);
      const la::Vector next = apply_r(k_, apply_y(k_, ss.distribution));
      check::check_fixed_point(ss.distribution, next, "p_ss Y_K R_K", k_,
                               kCheckTolerance);
    }
  }
  ss.iterations = iterations;
  ss.converged = res.converged;
  steady_ = std::move(ss);
  return *steady_;
}

}  // namespace finwork::core
