#include "network/state_space.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "check/fault_inject.h"
#include "check/invariants.h"
#include "obs/counters.h"
#include "obs/trace.h"

namespace finwork::net {

namespace {

/// a * b + c, or std::length_error if it overflows: the state counts of a
/// model too large to enumerate.
std::size_t mul_add(std::size_t a, std::size_t b, std::size_t c) {
  std::size_t r = 0;
  if (__builtin_mul_overflow(a, b, &r) || __builtin_add_overflow(r, c, &r)) {
    throw std::length_error("StateSpace: state count overflows");
  }
  return r;
}

}  // namespace

StateSpace::StateSpace(const NetworkSpec& spec, std::size_t max_population)
    : spec_(spec), max_pop_(max_population) {
  if (max_pop_ == 0) {
    throw std::invalid_argument("StateSpace: population must be >= 1");
  }
  {
    // The per-station local state tables are part of the enumeration's
    // cost, so the span covers them too.
    const obs::ObsSpan span("state_space/enumerate");
    const std::size_t s = spec_.num_stations();
    const std::size_t stride = max_pop_ + 1;
    models_.reserve(s);
    for (std::size_t j = 0; j < s; ++j) {
      models_.emplace_back(spec_.station(j), max_pop_);
    }
    // N(s, r) is 1 for r = 0 and 0 otherwise; N(j, r) sums, over the
    // customers n at station j, count_j(n) N(j + 1, r - n), and below
    // keeps the partial sums.
    ways_.assign((s + 1) * stride, 0);
    ways_[s * stride] = 1;
    below_.assign(s * stride * stride, 0);
    for (std::size_t j = s; j-- > 0;) {
      for (std::size_t r = 0; r <= max_pop_; ++r) {
        std::size_t sum = 0;
        for (std::size_t n = 0; n <= r; ++n) {
          below_[(j * stride + r) * stride + n] = sum;
          sum = mul_add(models_[j].count(n), ways(j + 1, r - n), sum);
        }
        ways_[j * stride + r] = sum;
      }
    }
    level_codes_.resize(max_pop_ + 1);
    levels_ = std::make_unique<par::OnceCell<LevelMatrices>[]>(max_pop_ + 1);
    for (std::size_t k = 0; k <= max_pop_; ++k) enumerate_level(k);
  }
  std::uint64_t total = 0;
  for (std::size_t k = 0; k <= max_pop_; ++k) total += dimension(k);
  obs::counter_add(obs::Counter::kStatesEnumerated, total);
}

void StateSpace::enumerate_level(std::size_t k) {
  const std::size_t s = models_.size();
  std::vector<std::uint32_t>& out = level_codes_[k];
  out.resize(mul_add(ways(0, k), s, 0));
  std::uint32_t* next = out.data();
  std::vector<std::uint32_t> current(s, 0);

  // Distribute k customers over the stations in ascending code order at
  // each station, so the states come out in lexicographic order; a branch
  // that leaves customers no later station can hold is skipped.
  auto recurse = [&](auto&& self, std::size_t j, std::size_t remaining)
      -> void {
    const StationModel& m = models_[j];
    for (std::size_t n = 0; n <= remaining; ++n) {
      if (ways(j + 1, remaining - n) == 0) continue;
      const std::size_t end = m.code_offset(n + 1);
      for (std::size_t c = m.code_offset(n); c < end; ++c) {
        current[j] = static_cast<std::uint32_t>(c);
        if (j + 1 == s) {
          next = std::copy(current.begin(), current.end(), next);
        } else {
          self(self, j + 1, remaining - n);
        }
      }
    }
  };
  recurse(recurse, 0, k);
}

std::size_t StateSpace::dimension(std::size_t k) const {
  if (k > max_pop_) throw std::out_of_range("StateSpace::dimension");
  return ways(0, k);
}

std::span<const std::uint32_t> StateSpace::state(std::size_t k,
                                                 std::size_t i) const {
  if (i >= dimension(k)) throw std::out_of_range("StateSpace::state");
  const std::size_t s = models_.size();
  return {level_codes_[k].data() + i * s, s};
}

std::size_t StateSpace::rank(std::size_t k,
                             const std::uint32_t* codes) const noexcept {
  // States before this one: for each station j, those that agree on
  // stations 0..j-1 and hold a smaller code at j.  With r customers left
  // for stations j..s-1 and n = pop(c_j), they are the ones with fewer than
  // n customers at j, then (c_j - code_offset(n)) blocks of N(j + 1, r - n).
  std::size_t r = k;
  std::size_t i = 0;
  for (std::size_t j = 0; j < models_.size(); ++j) {
    const StationModel& m = models_[j];
    const std::uint32_t c = codes[j];
    const std::size_t n = m.population()[c];
    i += below(j, r, n) + (c - m.code_offset(n)) * ways(j + 1, r - n);
    r -= n;
  }
  return i;
}

std::size_t StateSpace::index_of(std::size_t k,
                                 std::span<const std::uint32_t> s) const {
  if (k > max_pop_ || s.size() != models_.size()) {
    throw std::out_of_range("StateSpace::index_of: wrong level or length");
  }
  std::size_t customers = 0;
  for (std::size_t j = 0; j < s.size(); ++j) {
    if (s[j] >= models_[j].total_codes()) {
      throw std::out_of_range("StateSpace::index_of: code out of range");
    }
    customers += models_[j].population()[s[j]];
  }
  if (customers != k) {
    throw std::out_of_range("StateSpace::index_of: population is not k");
  }
  return rank(k, s.data());
}

std::vector<std::size_t> StateSpace::occupancy(std::size_t k,
                                               std::size_t idx) const {
  const std::span<const std::uint32_t> s = state(k, idx);
  std::vector<std::size_t> occ(models_.size());
  for (std::size_t j = 0; j < models_.size(); ++j) {
    occ[j] = models_[j].population()[s[j]];
  }
  return occ;
}

std::string StateSpace::describe(std::size_t k, std::size_t idx) const {
  const std::span<const std::uint32_t> s = state(k, idx);
  std::ostringstream ss;
  for (std::size_t j = 0; j < models_.size(); ++j) {
    if (j) ss << " | ";
    const auto [n, local] = models_[j].decode(s[j]);
    ss << models_[j].name() << ' ' << models_[j].describe(n, local);
  }
  return ss.str();
}

const LevelMatrices& StateSpace::level(std::size_t k) const {
  if (k == 0 || k > max_pop_) throw std::out_of_range("StateSpace::level");
  return levels_[k].get_or_init([&] { return build_level(k); });
}

LevelMatrices StateSpace::build_level(std::size_t k) const {
  const obs::ObsSpan span("state_space/build_level");
  obs::counter_add(obs::Counter::kLevelsBuilt);
  if (check::fault_at("state_space/assemble")) {
    throw std::runtime_error("injected level assembly failure");
  }
  const std::size_t d = dimension(k);
  const std::size_t d_prev = dimension(k - 1);
  obs::gauge_raise(obs::Gauge::kMaxLevelDimension, d);
  const std::size_t s = models_.size();
  const la::Matrix& routing = spec_.routing();
  const la::Vector& sys_exit = spec_.exit();
  const la::Vector& sys_entry = spec_.entry();

  LevelMatrices lm;
  lm.level = k;
  lm.event_rates = la::Vector(d, 0.0);

  // One serial pass, state by state: each state is one row of P_k and of
  // Q_k.  A move edits one or two codes of the state buffer, ranks it and
  // puts the codes back.
  la::CsrBuilder p(d, d);
  la::CsrBuilder q(d, d_prev);
  std::vector<std::uint32_t> cur(s);
  for (std::size_t is = 0; is < d; ++is) {
    const std::uint32_t* const state = level_codes_[k].data() + is * s;
    std::copy_n(state, s, cur.begin());

    // The total event rate over every station's activities.
    double total_rate = 0.0;
    for (std::size_t j = 0; j < s; ++j) {
      for (const LocalActivity& a : models_[j].activities(state[j])) {
        total_rate += a.rate;
      }
    }
    if (total_rate <= 0.0) {
      throw std::logic_error("StateSpace: state with no outgoing activity");
    }
    lm.event_rates[is] = total_rate;
    lm.max_event_rate = std::max(lm.max_event_rate, total_rate);

    for (std::size_t j = 0; j < s; ++j) {
      const StationModel& mj = models_[j];
      for (const LocalActivity& act : mj.activities(state[j])) {
        const double event_prob = act.rate / total_rate;

        // Internal phase move within station j: population unchanged.
        for (const LocalMove& o : mj.internal(act)) {
          cur[j] = o.code;
          p.add(rank(k, cur.data()), event_prob * o.probability);
        }

        // Service completion at station j: the customer routes onward.
        for (const LocalMove& done : mj.completions(act)) {
          cur[j] = done.code;
          const double base = event_prob * done.probability;

          // Move to station l (population stays k): arrival applied on top
          // of the post-completion state (handles l == j correctly).
          for (std::size_t l = 0; l < s; ++l) {
            const double rjl = routing(j, l);
            if (rjl <= 0.0) continue;
            const std::uint32_t cl = cur[l];
            for (const LocalMove& arr : models_[l].arrivals(cl)) {
              cur[l] = arr.code;
              p.add(rank(k, cur.data()), base * rjl * arr.probability);
            }
            cur[l] = cl;
          }
          // Leave the system: level drops to k-1.
          const double qj = sys_exit[j];
          if (qj > 0.0) q.add(rank(k - 1, cur.data()), base * qj);
        }
        cur[j] = state[j];
      }
    }
    p.end_row();
    q.end_row();
  }
  lm.p = p.finish();
  lm.q = q.finish();

  // R_k: a new task enters the system at station l ~ sys_entry.
  la::CsrBuilder r(d_prev, d);
  for (std::size_t is = 0; is < d_prev; ++is) {
    const std::uint32_t* const state = level_codes_[k - 1].data() + is * s;
    std::copy_n(state, s, cur.begin());
    for (std::size_t l = 0; l < s; ++l) {
      const double pl = sys_entry[l];
      if (pl <= 0.0) continue;
      for (const LocalMove& arr : models_[l].arrivals(state[l])) {
        cur[l] = arr.code;
        r.add(rank(k, cur.data()), pl * arr.probability);
      }
      cur[l] = state[l];
    }
    r.end_row();
  }
  lm.r = r.finish();

  // The LAQT recursion assumes these laws; a violation here means the
  // assembly above is wrong, not the solver downstream.
  if constexpr (check::kEnabled) {
    check::check_positive_rates(lm.event_rates, "M_k", k);
    check::check_substochastic(lm.p, "P_k", k);
    check::check_level_flow(lm.p, lm.q, k);
    check::check_stochastic(lm.r, "R_k", k);
  }
  return lm;
}

la::Vector StateSpace::initial_vector(std::size_t k) const {
  if (k == 0 || k > max_pop_) {
    throw std::out_of_range("StateSpace::initial_vector");
  }
  // Stream tasks in one at a time from the empty system: pi_0 = [1] on the
  // unique empty state, pi_j = pi_{j-1} R_j.
  la::Vector pi(1, 1.0);
  for (std::size_t j = 1; j <= k; ++j) {
    pi = level(j).r.apply_left(pi);
  }
  if constexpr (check::kEnabled) {
    check::check_probability_vector(pi, "p_k (initial vector)", k);
  }
  return pi;
}

std::size_t StateSpace::reduced_product_dimension(std::size_t stations,
                                                  std::size_t customers) {
  // C(stations + customers - 1, customers), computed stably in integers.
  std::size_t result = 1;
  for (std::size_t i = 1; i <= customers; ++i) {
    result = result * (stations - 1 + i) / i;
  }
  return result;
}

}  // namespace finwork::net
