#include "network/station.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace finwork::net {

namespace {

/// All compositions of n into m non-negative parts, lexicographically by the
/// first part descending recursion (stable enumeration order).
void enumerate_compositions(std::size_t n, std::size_t m,
                            std::vector<std::size_t>& current,
                            std::vector<std::vector<std::size_t>>& out) {
  if (m == 1) {
    current.push_back(n);
    out.push_back(current);
    current.pop_back();
    return;
  }
  for (std::size_t first = 0; first <= n; ++first) {
    current.push_back(first);
    enumerate_compositions(n - first, m - 1, current, out);
    current.pop_back();
  }
}

}  // namespace

StationModel::StationModel(Station station, std::size_t max_population)
    : station_(std::move(station)), max_pop_(max_population) {
  if (station_.multiplicity == 0) {
    throw std::invalid_argument("StationModel: multiplicity must be >= 1");
  }
  const std::size_t m = station_.service.phases();
  ample_ = station_.multiplicity >= max_pop_;
  if (!ample_ && m > 1 && station_.multiplicity != 1) {
    throw std::invalid_argument(
        "StationModel: multi-server stations with several phases are not "
        "supported exactly; use multiplicity 1 (shared) or >= population "
        "(dedicated) — station '" + station_.name + "'");
  }

  // offsets_[n + 1] first holds count(n), then the prefix sum makes it the
  // end of the n-block.
  offsets_.assign(max_pop_ + 2, 0);
  if (ample_ && m > 1) {
    comps_.resize(max_pop_ + 1);
    std::vector<std::size_t> cur;
    for (std::size_t n = 0; n <= max_pop_; ++n) {
      enumerate_compositions(n, m, cur, comps_[n]);
      offsets_[n + 1] = comps_[n].size();
    }
  } else {
    // queued single-server PH: (n, phase), one empty state at n = 0;
    // single-phase (m = 1), ample or queued: just the count n
    for (std::size_t n = 0; n <= max_pop_; ++n) {
      offsets_[n + 1] = n > 0 ? m : 1;
    }
  }
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  const std::size_t codes = offsets_.back();
  if (codes > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("StationModel: local codes beyond 32 bits");
  }

  pop_.reserve(codes);
  busy_.reserve(codes);
  act_begin_.assign(1, 0);
  arr_begin_.assign(1, 0);
  for (std::size_t n = 0; n <= max_pop_; ++n) {
    for (std::size_t idx = 0; idx < count(n); ++idx) tabulate(n, idx);
  }
}

void StationModel::tabulate(std::size_t n, std::size_t idx) {
  const ph::PhaseType& svc = station_.service;
  const std::size_t m = svc.phases();
  const auto code = [this](std::size_t pop, std::size_t i) {
    return static_cast<std::uint32_t>(offsets_[pop] + i);
  };
  const auto at = [this] { return static_cast<std::uint32_t>(moves_.size()); };
  // An activity's moves are appended right after it: internal moves first,
  // then completions.
  const auto activity = [&](double rate) {
    acts_.push_back({rate, at(), at(), at()});
  };
  const auto internal = [&](std::size_t i, double p) {
    moves_.push_back({code(n, i), p});
    acts_.back().internal_end = acts_.back().end = at();
  };
  const auto completion = [&](std::size_t i, double p) {
    moves_.push_back({code(n - 1, i), p});
    acts_.back().end = at();
  };
  const auto arrival = [&](std::size_t i, double p) {
    arrivals_.push_back({code(n + 1, i), p});
  };

  pop_.push_back(static_cast<std::uint32_t>(n));
  // An ample station's multiplicity is at least n and a queued PH station's
  // is 1, so min(n, c) customers are in service at every kind.
  busy_.push_back(
      static_cast<std::uint32_t>(std::min(n, station_.multiplicity)));

  if (ample_ && m > 1) {
    // One activity per occupied phase i, at rate alpha_i mu_i.
    const std::vector<std::size_t>& alpha = comps_[n][idx];
    std::vector<std::size_t> next = alpha;
    for (std::size_t i = 0; i < m; ++i) {
      if (alpha[i] == 0) continue;
      activity(static_cast<double>(alpha[i]) * svc.phase_rate(i));
      --next[i];
      for (std::size_t j = 0; j < m; ++j) {
        const double pij = svc.jump_probability(i, j);
        if (pij <= 0.0) continue;
        ++next[j];
        internal(comp_index(next), pij);
        --next[j];
      }
      const double q = svc.exit_probability(i);
      if (q > 0.0) completion(comp_index(next), q);
      ++next[i];
    }
    if (n < max_pop_) {
      for (std::size_t i = 0; i < m; ++i) {
        const double pi = svc.entry()[i];
        if (pi <= 0.0) continue;
        ++next[i];
        arrival(comp_index(next), pi);
        --next[i];
      }
    }
  } else if (!ample_ && m > 1) {
    // queued single-server PH: local state (n, phase = idx)
    if (n > 0) {
      const std::size_t phase = idx;
      activity(svc.phase_rate(phase));
      for (std::size_t j = 0; j < m; ++j) {
        const double pij = svc.jump_probability(phase, j);
        if (pij > 0.0) internal(j, pij);
      }
      const double q = svc.exit_probability(phase);
      if (q > 0.0) {
        if (n == 1) {
          completion(0, q);  // station drains to its empty state
        } else {
          // next customer starts service: starting phase from the entrance
          // vector
          for (std::size_t j = 0; j < m; ++j) {
            const double pj = svc.entry()[j];
            if (pj > 0.0) completion(j, q * pj);
          }
        }
      }
    }
    if (n < max_pop_) {
      if (n == 0) {
        // arrival starts service immediately; phase from the entrance vector
        for (std::size_t i = 0; i < m; ++i) {
          const double pi = svc.entry()[i];
          if (pi > 0.0) arrival(i, pi);
        }
      } else {
        arrival(idx, 1.0);  // joins the queue; in-service phase unchanged
      }
    }
  } else {
    // single-phase station, ample or queued with multiplicity c
    if (n > 0) {
      activity(static_cast<double>(busy_.back()) * svc.phase_rate(0));
      const double self = svc.jump_probability(0, 0);
      if (self > 0.0) internal(0, self);
      const double q = svc.exit_probability(0);
      if (q > 0.0) completion(0, q);
    }
    if (n < max_pop_) arrival(0, 1.0);
  }
  act_begin_.push_back(static_cast<std::uint32_t>(acts_.size()));
  arr_begin_.push_back(static_cast<std::uint32_t>(arrivals_.size()));
}

std::pair<std::size_t, std::size_t> StationModel::decode(
    std::size_t code) const {
  if (code >= pop_.size()) throw std::out_of_range("StationModel::decode");
  const std::size_t n = pop_[code];
  return {n, code - offsets_[n]};
}

std::size_t StationModel::comp_index(const std::vector<std::size_t>& c) const {
  const std::size_t n = std::accumulate(c.begin(), c.end(), std::size_t{0});
  const auto& block = comps_[n];
  const auto it = std::lower_bound(block.begin(), block.end(), c);
  if (it == block.end() || *it != c) {
    throw std::logic_error("StationModel: composition not found");
  }
  return static_cast<std::size_t>(it - block.begin());
}

std::vector<std::size_t> StationModel::phase_counts(std::size_t n,
                                                    std::size_t idx) const {
  if (idx >= count(n)) {
    throw std::out_of_range("StationModel::phase_counts");
  }
  const std::size_t m = station_.service.phases();
  std::vector<std::size_t> counts(m, 0);
  if (n == 0) return counts;
  if (ample_ && m > 1) return comps_[n][idx];
  if (!ample_ && m > 1) {
    counts[idx] = 1;  // the in-service customer
    return counts;
  }
  counts[0] = std::min(n, station_.multiplicity);
  return counts;
}

std::string StationModel::describe(std::size_t n, std::size_t idx) const {
  std::ostringstream ss;
  const std::size_t m = station_.service.phases();
  if (ample_ && m > 1) {
    ss << '(';
    const auto& alpha = comps_[n][idx];
    for (std::size_t i = 0; i < alpha.size(); ++i) {
      if (i) ss << ',';
      ss << alpha[i];
    }
    ss << ')';
  } else if (!ample_ && m > 1) {
    ss << "n=" << n;
    if (n > 0) ss << " ph=" << idx;
  } else {
    ss << "n=" << n;
  }
  return ss.str();
}

}  // namespace finwork::net
