#include "ph/phase_type.h"

#include <cmath>
#include <stdexcept>

#include "check/invariants.h"
#include "linalg/expm.h"
#include "linalg/lu.h"

namespace finwork::ph {

namespace {
constexpr double kProbTol = 1e-9;
}

PhaseType::PhaseType(la::Vector entry, la::Matrix rate_matrix, std::string name)
    : entry_(std::move(entry)), b_(std::move(rate_matrix)), name_(std::move(name)) {
  const std::size_t m = entry_.size();
  if (m == 0) throw std::invalid_argument("PhaseType: empty entrance vector");
  if (b_.rows() != m || b_.cols() != m) {
    throw std::invalid_argument("PhaseType: B dimension mismatch");
  }
  double psum = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    if (entry_[i] < -kProbTol) {
      throw std::invalid_argument("PhaseType: negative entrance probability");
    }
    psum += entry_[i];
  }
  if (std::abs(psum - 1.0) > kProbTol) {
    throw std::invalid_argument("PhaseType: entrance vector must sum to 1");
  }

  // Derive the embedding pieces: B = M (I - P) with M = diag(B) gives
  // P = I - M^-1 B.
  phase_rates_ = la::Vector(m);
  jump_probs_ = la::Matrix(m, m, 0.0);
  exit_probs_ = la::Vector(m);
  for (std::size_t i = 0; i < m; ++i) {
    const double rate = b_(i, i);
    if (rate <= 0.0) {
      throw std::invalid_argument("PhaseType: B diagonal must be positive");
    }
    phase_rates_[i] = rate;
    double row_jump = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      if (j == i) continue;
      const double pij = -b_(i, j) / rate;
      if (pij < -kProbTol) {
        throw std::invalid_argument(
            "PhaseType: positive off-diagonal in B (not a sub-generator)");
      }
      jump_probs_(i, j) = std::max(0.0, pij);
      row_jump += jump_probs_(i, j);
    }
    if (row_jump > 1.0 + kProbTol) {
      throw std::invalid_argument("PhaseType: internal jump mass exceeds 1");
    }
    exit_probs_[i] = std::max(0.0, 1.0 - row_jump);
  }
  if constexpr (check::kEnabled) {
    // Re-validate the derived embedding: the ad-hoc input screening above
    // guards user input, these guard the derivation itself.
    check::check_probability_vector(entry_, "PhaseType entry vector",
                                    check::kNoLevel, kProbTol);
    check::check_positive_rates(phase_rates_, "diag(M)");
    check::check_finite(exit_probs_, "PhaseType exit probabilities");
  }
}

PhaseType PhaseType::exponential(double rate) {
  if (rate <= 0.0) throw std::invalid_argument("exponential: rate must be > 0");
  return PhaseType(la::Vector{1.0}, la::Matrix{{rate}}, "Exp");
}

PhaseType PhaseType::erlang(std::size_t stages, double mean) {
  if (stages == 0) throw std::invalid_argument("erlang: need >= 1 stage");
  if (mean <= 0.0) throw std::invalid_argument("erlang: mean must be > 0");
  const double rate = static_cast<double>(stages) / mean;
  la::Vector p(stages, 0.0);
  p[0] = 1.0;
  la::Matrix b(stages, stages, 0.0);
  for (std::size_t i = 0; i < stages; ++i) {
    b(i, i) = rate;
    if (i + 1 < stages) b(i, i + 1) = -rate;
  }
  return PhaseType(std::move(p), std::move(b),
                   std::string("E").append(std::to_string(stages)));
}

PhaseType PhaseType::hyperexponential(std::vector<double> probs,
                                      std::vector<double> rates) {
  if (probs.empty() || probs.size() != rates.size()) {
    throw std::invalid_argument("hyperexponential: probs/rates mismatch");
  }
  const std::size_t m = probs.size();
  la::Vector p(m);
  la::Matrix b(m, m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    if (rates[i] <= 0.0) {
      throw std::invalid_argument("hyperexponential: rates must be > 0");
    }
    p[i] = probs[i];
    b(i, i) = rates[i];
  }
  return PhaseType(std::move(p), std::move(b),
                   std::string("H").append(std::to_string(m)));
}

double PhaseType::phase_rate(std::size_t i) const {
  if (i >= phases()) throw std::out_of_range("phase_rate");
  return phase_rates_[i];
}

double PhaseType::jump_probability(std::size_t i, std::size_t j) const {
  if (i >= phases() || j >= phases()) throw std::out_of_range("jump_probability");
  return jump_probs_(i, j);
}

double PhaseType::exit_probability(std::size_t i) const {
  if (i >= phases()) throw std::out_of_range("exit_probability");
  return exit_probs_[i];
}

double PhaseType::moment(std::size_t n) const {
  if (n == 0) return 1.0;
  // E(T^n) = n! Psi[V^n]; computed with n solves against eps instead of
  // forming V: x_0 = eps, x_k = V x_{k-1} = B^-1 x_{k-1}.
  const la::LuDecomposition lu(b_);
  la::Vector x = la::ones(phases());
  double factorial = 1.0;
  for (std::size_t k = 1; k <= n; ++k) {
    x = lu.solve(x);
    factorial *= static_cast<double>(k);
  }
  return factorial * la::dot(entry_, x);
}

double PhaseType::variance() const {
  const double m1 = moment(1);
  return moment(2) - m1 * m1;
}

double PhaseType::scv() const {
  const double m1 = moment(1);
  return variance() / (m1 * m1);
}

double PhaseType::pdf(double t) const {
  if (t < 0.0) return 0.0;
  // p exp(-tB) B eps; exit rates vector B eps first, then the expm action.
  const la::Vector exit_rates = b_ * la::ones(phases());
  la::Matrix neg_b = b_;
  neg_b *= -1.0;
  const la::Vector w = la::expm_action_left(entry_, neg_b, t);
  return la::dot(w, exit_rates);
}

double PhaseType::cdf(double t) const {
  if (t <= 0.0) return 0.0;
  return 1.0 - reliability(t);
}

double PhaseType::reliability(double t) const {
  if (t <= 0.0) return 1.0;
  la::Matrix neg_b = b_;
  neg_b *= -1.0;
  const la::Vector w = la::expm_action_left(entry_, neg_b, t);
  return w.sum();
}

double PhaseType::psi(const la::Matrix& x) const {
  if (x.rows() != phases() || x.cols() != phases()) {
    throw std::invalid_argument("psi: dimension mismatch");
  }
  return la::dot(entry_ * x, la::ones(phases()));
}

PhaseType PhaseType::with_mean(double new_mean) const {
  if (new_mean <= 0.0) throw std::invalid_argument("with_mean: mean must be > 0");
  const double factor = mean() / new_mean;  // rates scale by old/new
  la::Matrix b = b_;
  b *= factor;
  return PhaseType(entry_, std::move(b), name_);
}

double PhaseType::sample(rng::Xoshiro256& rng) const {
  std::size_t phase = sample_entry_phase(rng);
  double t = 0.0;
  while (phase < phases()) {
    t += rng::exponential(rng, phase_rates_[phase]);
    phase = sample_next_phase(rng, phase);
  }
  return t;
}

std::size_t PhaseType::sample_entry_phase(rng::Xoshiro256& rng) const {
  const double u = rng::uniform01(rng);
  double acc = 0.0;
  for (std::size_t i = 0; i < phases(); ++i) {
    acc += entry_[i];
    if (u < acc) return i;
  }
  return phases() - 1;  // guard against rounding
}

std::size_t PhaseType::sample_next_phase(rng::Xoshiro256& rng,
                                         std::size_t from) const {
  if (from >= phases()) throw std::out_of_range("sample_next_phase");
  const double u = rng::uniform01(rng);
  double acc = 0.0;
  for (std::size_t j = 0; j < phases(); ++j) {
    acc += jump_probs_(from, j);
    if (u < acc) return j;
  }
  return phases();  // exit
}

}  // namespace finwork::ph
