#include "network/state_space.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "check/fault_inject.h"
#include "check/invariants.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

namespace finwork::net {

StateSpace::StateSpace(const NetworkSpec& spec, std::size_t max_population)
    : spec_(spec), max_pop_(max_population) {
  if (max_pop_ == 0) {
    throw std::invalid_argument("StateSpace: population must be >= 1");
  }
  {
    // The per-station local state tables are part of the enumeration's
    // cost, so the span covers them too.
    const obs::ObsSpan span("state_space/enumerate");
    models_.reserve(spec_.num_stations());
    for (std::size_t j = 0; j < spec_.num_stations(); ++j) {
      models_.emplace_back(spec_.station(j), max_pop_);
    }
    level_states_.resize(max_pop_ + 1);
    level_index_.resize(max_pop_ + 1);
    level_matrices_.resize(max_pop_ + 1);
    level_once_ = std::make_unique<std::once_flag[]>(max_pop_ + 1);
    for (std::size_t k = 0; k <= max_pop_; ++k) enumerate_level(k);
  }
  if constexpr (obs::kEnabled) {
    std::uint64_t total = 0;
    for (const auto& states : level_states_) total += states.size();
    obs::counter_add(obs::Counter::kStatesEnumerated, total);
  }
}

void StateSpace::enumerate_level(std::size_t k) {
  const std::size_t s = models_.size();
  std::vector<GlobalState>& out = level_states_[k];
  GlobalState current(s, 0);

  // Distribute k customers over stations recursively; for each station count,
  // iterate its local states.
  auto recurse = [&](auto&& self, std::size_t station,
                     std::size_t remaining) -> void {
    if (station == s - 1) {
      if (remaining > max_pop_) return;
      const std::size_t cnt = models_[station].count(remaining);
      const std::size_t base = models_[station].code_offset(remaining);
      for (std::size_t idx = 0; idx < cnt; ++idx) {
        current[station] = static_cast<std::uint32_t>(base + idx);
        out.push_back(current);
      }
      return;
    }
    for (std::size_t n = 0; n <= remaining; ++n) {
      const std::size_t cnt = models_[station].count(n);
      const std::size_t base = models_[station].code_offset(n);
      for (std::size_t idx = 0; idx < cnt; ++idx) {
        current[station] = static_cast<std::uint32_t>(base + idx);
        self(self, station + 1, remaining - n);
      }
    }
  };
  recurse(recurse, 0, k);

  auto& index = level_index_[k];
  index.reserve(out.size() * 2);
  for (std::size_t i = 0; i < out.size(); ++i) index.emplace(out[i], i);
}

std::size_t StateSpace::dimension(std::size_t k) const {
  if (k > max_pop_) throw std::out_of_range("StateSpace::dimension");
  return level_states_[k].size();
}

const std::vector<GlobalState>& StateSpace::states(std::size_t k) const {
  if (k > max_pop_) throw std::out_of_range("StateSpace::states");
  return level_states_[k];
}

std::size_t StateSpace::index_of(std::size_t k, const GlobalState& s) const {
  const auto& index = level_index_.at(k);
  const auto it = index.find(s);
  if (it == index.end()) {
    throw std::out_of_range("StateSpace::index_of: unknown state");
  }
  return it->second;
}

std::vector<std::size_t> StateSpace::occupancy(std::size_t k,
                                               std::size_t idx) const {
  const GlobalState& s = states(k).at(idx);
  std::vector<std::size_t> occ(models_.size());
  for (std::size_t j = 0; j < models_.size(); ++j) {
    occ[j] = models_[j].decode(s[j]).first;
  }
  return occ;
}

std::string StateSpace::describe(std::size_t k, std::size_t idx) const {
  const GlobalState& s = states(k).at(idx);
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
  std::call_once(level_once_[k], [&] { build_level(k); });
  return level_matrices_[k];
}

void StateSpace::build_level(std::size_t k) const {
  const obs::ObsSpan span("state_space/build_level");
  obs::counter_add(obs::Counter::kLevelsBuilt);
  obs::gauge_raise(obs::Gauge::kMaxLevelDimension, level_states_[k].size());
  const std::size_t s = models_.size();
  const auto& states_k = level_states_[k];
  const auto& index_k = level_index_[k];
  const auto& index_km1 = level_index_[k - 1];
  const la::Matrix& routing = spec_.routing();
  const la::Vector& sys_exit = spec_.exit();
  const la::Vector& sys_entry = spec_.entry();

  LevelMatrices lm;
  lm.level = k;
  lm.event_rates = la::Vector(states_k.size(), 0.0);

  // Per-state transition assembly: a range of states appends to its own
  // triplet buffers and writes disjoint event_rates entries.
  const auto process_range = [&](std::size_t begin, std::size_t end,
                                 std::vector<la::Triplet>& p_trips,
                                 std::vector<la::Triplet>& q_trips) {
  for (std::size_t is = begin; is < end; ++is) {
    const GlobalState& state = states_k[is];

    // Gather activities across stations and the total event rate.
    double total_rate = 0.0;
    struct Act {
      std::size_t station;
      std::size_t n;
      LocalActivity activity;
    };
    std::vector<Act> acts;
    for (std::size_t j = 0; j < s; ++j) {
      const auto [n, local] = models_[j].decode(state[j]);
      if (n == 0) continue;
      for (LocalActivity& a : models_[j].activities(n, local)) {
        total_rate += a.rate;
        acts.push_back({j, n, std::move(a)});
      }
    }
    if (total_rate <= 0.0) {
      throw std::logic_error("StateSpace: state with no outgoing activity");
    }
    lm.event_rates[is] = total_rate;

    for (const Act& act : acts) {
      const std::size_t j = act.station;
      const double event_prob = act.activity.rate / total_rate;

      // Internal phase move within station j: population unchanged.
      for (const LocalOutcome& o : act.activity.internal) {
        GlobalState next = state;
        next[j] = static_cast<std::uint32_t>(models_[j].code_offset(act.n) +
                                             o.index);
        p_trips.push_back(
            {is, index_k.at(next), event_prob * o.probability});
      }

      // Service completion at station j: the customer routes onward.
      for (const LocalOutcome& done : act.activity.completion) {
        GlobalState after = state;
        after[j] = static_cast<std::uint32_t>(
            models_[j].code_offset(act.n - 1) + done.index);
        const double base = event_prob * done.probability;

        // Move to station l (population stays k): arrival applied on top of
        // the post-completion state (handles l == j correctly).
        for (std::size_t l = 0; l < s; ++l) {
          const double rjl = routing(j, l);
          if (rjl <= 0.0) continue;
          const auto [nl, locall] = models_[l].decode(after[l]);
          for (const LocalOutcome& arr : models_[l].arrival(nl, locall)) {
            GlobalState next = after;
            next[l] = static_cast<std::uint32_t>(
                models_[l].code_offset(nl + 1) + arr.index);
            p_trips.push_back(
                {is, index_k.at(next), base * rjl * arr.probability});
          }
        }
        // Leave the system: level drops to k-1.
        const double qj = sys_exit[j];
        if (qj > 0.0) {
          q_trips.push_back({is, index_km1.at(after), base * qj});
        }
      }
    }
  }
  };  // process_range

  // Levels of kParallelThreshold states or more assemble in contiguous
  // chunks on the pool (inline on a pool worker); each chunk fills its own
  // buffers and the merge runs in chunk order, so the triplets reach the
  // CSR constructors in the serial order and the matrices match bit for bit.
  constexpr std::size_t kParallelThreshold = 4096;
  const std::size_t d = states_k.size();
  const std::size_t chunks =
      d < kParallelThreshold
          ? 1
          : std::min<std::size_t>(par::ThreadPool::global().size() * 4,
                                  (d + 1023) / 1024);
  const std::size_t step = (d + chunks - 1) / chunks;
  struct Buffers {
    std::vector<la::Triplet> p;
    std::vector<la::Triplet> q;
  };
  std::vector<Buffers> bufs(chunks);
  par::parallel_for(0, chunks, [&](std::size_t c) {
    if (check::fault_at("state_space/assemble")) {
      throw std::runtime_error("injected level assembly failure");
    }
    const std::size_t lo = std::min(d, c * step);
    process_range(lo, std::min(d, lo + step), bufs[c].p, bufs[c].q);
  });
  std::vector<la::Triplet> p_trips = std::move(bufs[0].p);
  std::vector<la::Triplet> q_trips = std::move(bufs[0].q);
  for (std::size_t c = 1; c < chunks; ++c) {
    p_trips.insert(p_trips.end(), bufs[c].p.begin(), bufs[c].p.end());
    q_trips.insert(q_trips.end(), bufs[c].q.begin(), bufs[c].q.end());
  }

  for (std::size_t i = 0; i < lm.event_rates.size(); ++i) {
    lm.max_event_rate = std::max(lm.max_event_rate, lm.event_rates[i]);
  }

  lm.p = la::CsrMatrix(states_k.size(), states_k.size(), std::move(p_trips));
  lm.q = la::CsrMatrix(states_k.size(), level_states_[k - 1].size(),
                       std::move(q_trips));

  // R_k: a new task enters the system at station l ~ sys_entry.
  std::vector<la::Triplet> r_trips;
  const auto& states_km1 = level_states_[k - 1];
  for (std::size_t is = 0; is < states_km1.size(); ++is) {
    const GlobalState& state = states_km1[is];
    for (std::size_t l = 0; l < s; ++l) {
      const double pl = sys_entry[l];
      if (pl <= 0.0) continue;
      const auto [nl, locall] = models_[l].decode(state[l]);
      for (const LocalOutcome& arr : models_[l].arrival(nl, locall)) {
        GlobalState next = state;
        next[l] = static_cast<std::uint32_t>(models_[l].code_offset(nl + 1) +
                                             arr.index);
        r_trips.push_back({is, index_k.at(next), pl * arr.probability});
      }
    }
  }
  lm.r = la::CsrMatrix(states_km1.size(), states_k.size(), std::move(r_trips));

  // The LAQT recursion assumes these laws; a violation here means the
  // assembly above is wrong, not the solver downstream.
  if constexpr (check::kEnabled) {
    check::check_positive_rates(lm.event_rates, "M_k", k);
    check::check_substochastic(lm.p, "P_k", k);
    check::check_level_flow(lm.p, lm.q, k);
    check::check_stochastic(lm.r, "R_k", k);
  }

  level_matrices_[k] = std::move(lm);
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
