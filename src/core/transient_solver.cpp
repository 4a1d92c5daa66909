#include "core/transient_solver.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "check/invariants.h"
#include "core/model_cache.h"
#include "linalg/iterative.h"
#include "linalg/solver_error.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

namespace finwork::core {

namespace {

/// Tolerance and iteration cap of the steady-state power iterations; the
/// invariant checks on p_ss allow 1e3 times the tolerance.
constexpr double kTolerance = 1e-12;
constexpr std::size_t kMaxPowerIterations = 100000;

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

/// sum_n Poisson(n; qt) a_of(n) for qt > 0, the weights expanded outward
/// from the mode in log space (exp(-qt) underflows beyond qt ~ 745), and
/// the far-tail mass neither loop reaches charged at a_inf = lim a_n.
/// a_of sees n = mode, mode + 1, ... before any n below the mode.
template <class A>
double poisson_mixture(double qt, A&& a_of, double a_inf) {
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
                                 SolverOptions options)
    : model_(std::make_shared<const ModelArtifacts>(spec, workstations,
                                                    options)),
      k_(workstations),
      opts_(options) {}

TransientSolver::TransientSolver(std::shared_ptr<const ModelArtifacts> model,
                                 SolverOptions options)
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
  if (t < 0.0) {
    throw std::invalid_argument("epoch_reliability: t must be >= 0");
  }
  if (t == 0.0) return pi.sum();
  // Uniformization of the level generator A = -B_k = -M_k (I - P_k):
  // with q >= max rate, Pu = I + A/q acts on a row vector v as
  //   v Pu = v - (v .* M)/q + ((v .* M) P)/q.
  const net::LevelMatrices& lm = space().level(k);
  const double q = lm.max_event_rate * 1.0001;
  const double qt = q * t;
  auto step = [&](const la::Vector& v) {
    la::Vector scaled = v;
    for (std::size_t i = 0; i < scaled.size(); ++i) {
      scaled[i] *= lm.event_rates[i];
    }
    la::Vector y = lm.p.apply_left(scaled);
    y -= scaled;
    y /= q;
    y += v;
    return y;
  };
  // R(t) = sum_n Poisson(n; qt) (pi Pu^n) eps; the survival mass -> 0.
  std::vector<double> survival{pi.sum()};
  la::Vector term = pi;
  const auto survival_at = [&](std::size_t n) {
    while (survival.size() <= n) {
      term = step(term);
      survival.push_back(term.sum());
    }
    return survival[n];
  };
  return poisson_mixture(qt, survival_at, 0.0);
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
  // every point.
  const la::Vector& h_k = model_->drain_mean(k_);
  const la::Vector& tau_k = tau(k_);
  SaturatedMean saturated(*model_, k_);
  auto next_target = targets.begin();
  double prefix = 0.0;
  const std::size_t visited = saturated.run(
      targets.back().first, opts_.fast_forward,
      [&](std::size_t j, const la::Vector& pi) {
        const double harvest = la::dot(pi, h_k);
        for (; next_target != targets.end() && next_target->first == j;
             ++next_target) {
          results[next_target->second] = prefix + harvest;
        }
        prefix += la::dot(pi, tau_k);
      });
  if (next_target != targets.end()) {
    // Mixed at iterate m = visited: every later epoch departs from this same
    // distribution, so each remaining point closes in O(1) —
    //   E(T)(K + J) = prefix_m + (J - m) t_ss + pi_m h_K.
    const double t_ss = la::dot(saturated.pi(), tau_k);
    const double tail = la::dot(saturated.pi(), h_k);
    for (; next_target != targets.end(); ++next_target) {
      const auto r = static_cast<double>(next_target->first - visited);
      results[next_target->second] = prefix + r * t_ss + tail;
    }
  }
  return results;
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
  // harvesting dot products at each requested iterate, started from the
  // drain at j = 0 (m1_0 = h_K, x_0 = x_K).
  const std::size_t j_max = targets.back().first;

  const net::LevelMatrices& lt = sp.level(k_);
  const la::Vector& rates = lt.event_rates;
  const la::Vector& tau_k = tau(k_);
  const la::Vector p0 = sp.initial_vector(k_);
  la::Vector m1 = model_->drain_mean(k_);
  la::Vector x = model_->drain_second(k_);
  auto next_target = targets.begin();
  const auto harvest = [&](std::size_t j) {
    while (next_target != targets.end() && next_target->first == j) {
      fill(results[next_target->second], la::dot(p0, m1), la::dot(p0, x));
      ++next_target;
    }
  };
  harvest(0);
  la::Vector m1_new;  // m1_j, when the previous admission solved it
  la::Vector d_prev;  // previous first difference of m1
  la::Vector e_prev;  // previous first difference of x
  la::Vector f_prev;  // previous second difference of x
  for (std::size_t j = 1; next_target != targets.end(); ++j) {
    // The m1 step is the column action of T = (I - P)^-1 Q R.
    if (m1_new.empty()) {
      m1_new = tau_k + model_->solve_right(k_, lt.q.apply(lt.r.apply(m1)));
    }
    la::Vector d = m1_new - m1;
    m1 = std::exchange(m1_new, la::Vector());
    // Past mixing, m1 grows by a constant vector per admission
    // (d_j -> t_ss eps); the test needs m1 only, so it runs before the solve.
    const bool d_mixed =
        opts_.fast_forward && j >= 3 &&
        (d - d_prev).norm_inf() <= kMomentMixingTolerance * d.norm_inf();
    la::Vector flow = lt.q.apply(lt.r.apply(x));
    for (std::size_t i = 0; i < flow.size(); ++i) flow[i] += m1[i] / rates[i];
    // x_j and m1_{j+1} share one pass over P_K unless admission j may be
    // the last (j_max, or d has mixed); then m1_{j+1} waits for the next.
    const la::Vector x_prev = std::move(x);
    if (j < j_max && !d_mixed) {
      auto [x_j, m1_next] =
          model_->solve_right(k_, flow, lt.q.apply(lt.r.apply(m1)));
      x = std::move(x_j);
      m1_new = tau_k + m1_next;
    } else {
      x = model_->solve_right(k_, flow);
    }
    la::Vector e = x - x_prev;
    harvest(j);
    if (next_target == targets.end()) break;

    if (opts_.fast_forward && j >= 2) {
      la::Vector f = e - e_prev;
      // Once d has mixed and the x increments have become arithmetic
      // (e_{j+i} ~ e_j + i f, so the second difference of x is stable),
      // close the remaining admissions in closed form, per point by
      // linearity of the p0 dot —
      //   mean(K+J) = p0 m1 + R p0 d,
      //   x(K+J)    = p0 x + R p0 e + R(R+1)/2 p0 f,   R = J - j.
      // f is a second difference of near-cancelling terms; its floating
      // noise floor is ~eps ||x||, below which no threshold can bite.
      const double noise_floor = 4.0 * 2.220446049250313e-16 * x.norm_inf();
      if (d_mixed && (f - f_prev).norm_inf() <=
                         kMomentMixingTolerance * f.norm_inf() + noise_floor) {
        const double mean_j = la::dot(p0, m1);
        const double x_j = la::dot(p0, x);
        const double d_s = la::dot(p0, d);
        const double e_s = la::dot(p0, e);
        const double f_s = la::dot(p0, f);
        obs::counter_add(obs::Counter::kFastForwardActivations);
        obs::counter_add(obs::Counter::kEpochsSkipped, j_max - j);
        for (; next_target != targets.end(); ++next_target) {
          const auto r = static_cast<double>(next_target->first - j);
          fill(results[next_target->second], mean_j + r * d_s,
               x_j + r * e_s + 0.5 * r * (r + 1.0) * f_s);
        }
        break;
      }
      f_prev = std::move(f);
    }
    d_prev = std::move(d);
    e_prev = std::move(e);
  }
  return results;
}

std::vector<double> TransientSolver::makespan_cdf(
    std::size_t tasks, const std::vector<double>& times) const {
  if (tasks == 0) {
    throw std::invalid_argument("makespan_cdf: need >= 1 task");
  }
  for (double t : times) {
    if (t < 0.0) throw std::invalid_argument("makespan_cdf: negative time");
  }
  if (times.empty()) return {};
  const obs::ObsSpan span("solver/makespan_cdf");
  const net::StateSpace& sp = space();
  const std::size_t top = std::min(tasks, k_);

  // Layered blocks: saturated segments with j admissions remaining
  // (j = tasks - top .. 0), then draining levels top-1 .. 1.  Block b's
  // dynamics are its level's (M, P); a departure feeds block b+1 (with the
  // R_top re-entry while saturated); level 1 departures absorb.
  struct Block {
    std::size_t level;
    bool replace;  // departure re-admits a task (saturated, j > 0)
  };
  std::vector<Block> blocks;
  for (std::size_t j = tasks - top; j > 0; --j) blocks.push_back({top, true});
  blocks.push_back({top, false});
  for (std::size_t level = top - 1; level >= 1; --level) {
    blocks.push_back({level, false});
  }

  // Uniformization rate: the fastest event rate across all levels (cached
  // per level at build time).
  double q = 0.0;
  for (std::size_t level = 1; level <= top; ++level) {
    q = std::max(q, sp.level(level).max_event_rate);
  }
  q *= 1.0001;

  const double t_max = *std::max_element(times.begin(), times.end());
  const double qt_max = q * t_max;
  const auto n_max = static_cast<std::size_t>(
      qt_max + 12.0 * std::sqrt(qt_max + 1.0) + 64.0);

  // DTMC pass: track per-block row vectors and record the absorbed mass
  // after each uniformized step.  All working buffers are sized once up
  // front and reused every step.
  const net::LevelMatrices& ltop = sp.level(top);
  par::ThreadPool& pool = par::ThreadPool::global();
  std::vector<la::Vector> state(blocks.size());
  std::vector<la::Vector> next(blocks.size());
  std::vector<la::Vector> scaled(blocks.size());
  std::vector<la::Vector> out(blocks.size());
  std::vector<la::Vector> handoff(blocks.size());
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const std::size_t d = sp.dimension(blocks[b].level);
    state[b] = la::Vector(d, 0.0);
    next[b] = la::Vector(d, 0.0);
    scaled[b] = la::Vector(d, 0.0);
    out[b] = la::Vector(sp.dimension(blocks[b].level - 1), 0.0);
    if (blocks[b].replace) {
      handoff[b] = la::Vector(sp.dimension(top), 0.0);
    }
  }
  state[0] = sp.initial_vector(top);
  double absorbed = 0.0;
  std::vector<double> absorbed_after{absorbed};  // a_0
  absorbed_after.reserve(n_max + 1);

  // One uniformized step of block b into its own buffers:
  //   next_b = v - (v .* M)/q + ((v .* M) P)/q,  out_b = (v .* M) Q / q,
  // with the departing mass routed later in a serial merge so the block
  // fan-out stays deterministic.
  const auto step_block = [&](std::size_t b) {
    const net::LevelMatrices& lm = sp.level(blocks[b].level);
    const la::Vector& st = state[b];
    la::Vector& sc = scaled[b];
    for (std::size_t i = 0; i < sc.size(); ++i) {
      sc[i] = st[i] * lm.event_rates[i] / q;
    }
    la::Vector& nb = next[b];
    nb.fill(0.0);
    lm.p.apply_left_add(sc, nb);
    nb -= sc;
    nb += st;
    la::Vector& ob = out[b];
    ob.fill(0.0);
    lm.q.apply_left_add(sc, ob);
    if (blocks[b].replace) {
      la::Vector& hb = handoff[b];
      hb.fill(0.0);
      ltop.r.apply_left_add(ob, hb);
    }
  };

  const bool fan_out = blocks.size() >= 4 && pool.size() > 1 &&
                       !par::ThreadPool::on_worker_thread();
  const std::size_t grain =
      std::max<std::size_t>(1, blocks.size() / (4 * pool.size()));
  for (std::size_t step = 1; step <= n_max; ++step) {
    if (fan_out) {
      par::parallel_for(pool, 0, blocks.size(), step_block, grain);
    } else {
      for (std::size_t b = 0; b < blocks.size(); ++b) step_block(b);
    }
    // Serial merge in ascending block order: identical accumulation order
    // whether or not the blocks fanned out above.
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      if (b + 1 < blocks.size()) {
        next[b + 1] += blocks[b].replace ? handoff[b] : out[b];
      } else {
        absorbed += out[b].sum();
      }
    }
    state.swap(next);
    absorbed_after.push_back(absorbed);
    if (1.0 - absorbed < 1e-13) {
      // effectively done: later steps keep the same absorbed mass
      break;
    }
  }

  // Evaluate each time point: F(t) = sum_n Poisson(n; qt) a_n, with the
  // tail beyond the recorded steps charged at the final absorbed level.
  const auto a_of = [&](std::size_t n) {
    return n < absorbed_after.size() ? absorbed_after[n]
                                     : absorbed_after.back();
  };
  std::vector<double> result(times.size());
  for (std::size_t ti = 0; ti < times.size(); ++ti) {
    const double t = times[ti];
    result[ti] = t == 0.0 ? 0.0
                          : poisson_mixture(q * t, a_of, absorbed_after.back());
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
  const auto& states = sp.states(k);
  for (std::size_t is = 0; is < states.size(); ++is) {
    const double w = pi[is];
    if (w == 0.0) continue;
    for (std::size_t j = 0; j < s; ++j) {
      const net::StationModel& model = sp.model(j);
      const auto [n, local] = model.decode(states[is][j]);
      occ[j].mean_customers += w * static_cast<double>(n);
      const auto counts = model.phase_counts(n, local);
      std::size_t busy = 0;
      for (std::size_t c : counts) busy += c;
      occ[j].mean_in_service += w * static_cast<double>(busy);
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
  if (time_stationary_) return *time_stationary_;
  const obs::ObsSpan span("solver/time_stationary");
  // The saturated CTMC has off-diagonal rate matrix M (P + Q R).  With
  // z = pi .* M, stationarity reads z (P + Q R) = z: find z by (damped)
  // power iteration, then unscale by the rates and normalize.
  const net::LevelMatrices& lm = space().level(k_);
  const auto apply_jump = [&](const la::Vector& z) {
    la::Vector next = lm.p.apply_left(z);
    next += lm.r.apply_left(lm.q.apply_left(z));
    next += z;
    next *= 0.5;
    return next;
  };
  const la::IterativeResult res = la::power_iteration_left(
      apply_jump, initial_vector(), kTolerance, kMaxPowerIterations);
  if (!res.converged) {
    SolverErrorContext ctx;
    ctx.level = k_;
    ctx.dimension = res.x.size();
    ctx.residual = res.residual;
    ctx.iterations = res.iterations;
    ctx.detail = "time_stationary_distribution: power iteration stalled";
    throw SolverError(SolverErrorKind::kNonConvergence,
                      SolverStage::kPowerIteration, std::move(ctx));
  }
  la::Vector pi = res.x;
  for (std::size_t i = 0; i < pi.size(); ++i) pi[i] /= lm.event_rates[i];
  pi /= pi.sum();
  time_stationary_ = std::move(pi);
  return *time_stationary_;
}

const SteadyStateResult& TransientSolver::steady_state() const {
  if (steady_) return *steady_;
  const obs::ObsSpan span("solver/steady_state");
  // Fixed point of T = Y_K R_K, damped to (T + I)/2 to kill any period-2
  // component of the power iteration.
  const auto apply_t = [this](const la::Vector& pi) {
    la::Vector next = apply_r(k_, apply_y(k_, pi));
    next += pi;
    next *= 0.5;
    return next;
  };
  const la::Vector start = initial_vector();
  const la::IterativeResult res = la::power_iteration_left(
      apply_t, start, kTolerance, kMaxPowerIterations);
  SteadyStateResult ss;
  ss.distribution = res.x;
  if constexpr (check::kEnabled) {
    if (res.converged) {
      // The steady-state law: p_ss Y_K R_K = p_ss on the simplex.  The
      // damped map halves the residual, so allow a small multiple of the
      // power-iteration tolerance.
      check::check_probability_vector(ss.distribution, "p_ss", k_,
                                      1e3 * kTolerance);
      const la::Vector next = apply_r(k_, apply_y(k_, ss.distribution));
      check::check_fixed_point(ss.distribution, next, "p_ss Y_K R_K", k_,
                               1e3 * kTolerance);
    }
  }
  ss.interdeparture = mean_epoch_time(k_, ss.distribution);
  ss.throughput = 1.0 / ss.interdeparture;
  const double m2 = epoch_second_moment(k_, ss.distribution);
  ss.interdeparture_scv =
      (m2 - ss.interdeparture * ss.interdeparture) /
      (ss.interdeparture * ss.interdeparture);
  ss.iterations = res.iterations;
  ss.converged = res.converged;
  steady_ = std::move(ss);
  return *steady_;
}

}  // namespace finwork::core
