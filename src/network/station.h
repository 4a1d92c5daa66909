#pragma once
// A station is one service device of the network (CPU bank, disk, channel).
// StationModel turns a station description into the *local* state machinery
// the reduced-product builder composes, written once at construction as one
// table indexed by local code: each code's customers, busy servers,
// activities (a rate with its internal and completion moves) and arrival
// moves.  The local states are:
//
//   * ample stations (multiplicity >= population bound) — every customer has
//     its own server, so the phase counts (alpha_1..alpha_m) are a sufficient
//     local state; phase i completes at rate alpha_i * mu_i.  This is the
//     paper's "replace the server by m exponential stages" rule, which is
//     exact exactly in this case.
//   * queued exponential stations (1 phase, any multiplicity c) — local state
//     is the customer count n; service completes at rate min(n, c) * mu.
//   * queued single-server PH stations (multiplicity 1, m > 1 phases) — local
//     state is (n, phase of the in-service customer); on a completion with
//     n > 1 the next customer's starting phase is drawn from the entrance
//     vector.  This is the exact FCFS PH/./1 embedding (see DESIGN.md §3).
//
// Multi-server (1 < c < population) stations with more than one phase are
// rejected: their exact state space needs per-server phases, which the paper
// never uses.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ph/phase_type.h"

namespace finwork::net {

/// Station description: name, service-time distribution, number of parallel
/// servers.  Use multiplicity >= the max population for dedicated devices.
struct Station {
  std::string name;
  ph::PhaseType service;
  std::size_t multiplicity = 1;
};

/// A local move: the station's local code after it, and its probability.
struct LocalMove {
  std::uint32_t code = 0;
  double probability = 0.0;
};

/// One exponential activity of a local state: a Poisson event stream; when
/// the event fires the station either moves internally (customer count
/// unchanged) or completes one customer's service.  [begin, internal_end)
/// and [internal_end, end) index its internal moves and its completions in
/// the station's move table (StationModel::internal and completions); their
/// probabilities sum to 1.
struct LocalActivity {
  double rate = 0.0;
  std::uint32_t begin = 0;
  std::uint32_t internal_end = 0;
  std::uint32_t end = 0;
};

/// Expanded per-station state machinery for populations 0..max_population:
/// one table indexed by local code.  The codes of n customers are
/// code_offset(n) .. code_offset(n) + count(n) - 1, so codes ascend with n.
class StationModel {
 public:
  /// Throws std::invalid_argument for a multiplicity of 0 or a multi-server
  /// multi-phase station, std::length_error for local codes beyond 32 bits.
  StationModel(Station station, std::size_t max_population);

  [[nodiscard]] const Station& station() const noexcept { return station_; }
  [[nodiscard]] const std::string& name() const noexcept {
    return station_.name;
  }
  [[nodiscard]] std::size_t max_population() const noexcept { return max_pop_; }
  /// True when every customer present is always in service (no queueing).
  [[nodiscard]] bool is_ample() const noexcept { return ample_; }

  /// Sum of count(n') for n' < n: the first code with n customers, and
  /// total_codes() for n = max_population() + 1.  Throws std::out_of_range
  /// beyond that.
  [[nodiscard]] std::size_t code_offset(std::size_t n) const {
    return offsets_.at(n);
  }
  /// Number of local states with n customers present.  Throws
  /// std::out_of_range for n > max_population().
  [[nodiscard]] std::size_t count(std::size_t n) const {
    return code_offset(n + 1) - offsets_[n];
  }
  /// Total number of local codes (all n in 0..max_population).
  [[nodiscard]] std::size_t total_codes() const noexcept { return pop_.size(); }
  /// Decode a local code into (n, index within the n-block).
  [[nodiscard]] std::pair<std::size_t, std::size_t> decode(
      std::size_t code) const;

  /// Customers present, per code.
  [[nodiscard]] std::span<const std::uint32_t> population() const noexcept {
    return pop_;
  }
  /// Customers in service, per code: all of them at an ample station, at
  /// most the multiplicity at a queued one.
  [[nodiscard]] std::span<const std::uint32_t> busy() const noexcept {
    return busy_;
  }
  /// Activities of a code (< total_codes(), not range-checked), in phase
  /// order.  Empty for the empty station.
  [[nodiscard]] std::span<const LocalActivity> activities(
      std::uint32_t code) const noexcept {
    return {acts_.data() + act_begin_[code],
            acts_.data() + act_begin_[code + 1]};
  }
  /// Internal moves of an activity: targets with the same customers.
  [[nodiscard]] std::span<const LocalMove> internal(
      const LocalActivity& a) const noexcept {
    return {moves_.data() + a.begin, moves_.data() + a.internal_end};
  }
  /// Completions of an activity: targets with one customer fewer.
  [[nodiscard]] std::span<const LocalMove> completions(
      const LocalActivity& a) const noexcept {
    return {moves_.data() + a.internal_end, moves_.data() + a.end};
  }
  /// Where an arriving customer lands from a code (< total_codes(), not
  /// range-checked): targets with one customer more.  Empty at
  /// max_population.
  [[nodiscard]] std::span<const LocalMove> arrivals(
      std::uint32_t code) const noexcept {
    return {arrivals_.data() + arr_begin_[code],
            arrivals_.data() + arr_begin_[code + 1]};
  }

  /// Per-phase counts of the customers currently *in service* in local state
  /// (n, idx); size is service.phases().  Waiting customers (possible only at
  /// queued stations) have no phase and are n minus the sum of the counts.
  [[nodiscard]] std::vector<std::size_t> phase_counts(std::size_t n,
                                                      std::size_t idx) const;
  /// Human-readable description of a local state, e.g. "(2,0,1)" or "n=3 ph=1".
  [[nodiscard]] std::string describe(std::size_t n, std::size_t idx) const;

 private:
  /// Append the activities and arrivals of local state (n, idx).
  void tabulate(std::size_t n, std::size_t idx);

  Station station_;
  std::size_t max_pop_;
  bool ample_;

  // Ample stations: compositions of n into m phases, per n, in enumeration
  // order; comp_index_ maps a composition to its index within its n-block.
  std::vector<std::vector<std::vector<std::size_t>>> comps_;
  [[nodiscard]] std::size_t comp_index(const std::vector<std::size_t>& c) const;

  std::vector<std::size_t> offsets_;  // code_offset(n), n = 0..K + 1
  // Per code: customers, busy servers, and the activities of code c are
  // acts_[act_begin_[c] .. act_begin_[c + 1]), its arrivals
  // arrivals_[arr_begin_[c] .. arr_begin_[c + 1]).
  std::vector<std::uint32_t> pop_;
  std::vector<std::uint32_t> busy_;
  std::vector<std::uint32_t> act_begin_;
  std::vector<std::uint32_t> arr_begin_;
  std::vector<LocalActivity> acts_;
  std::vector<LocalMove> moves_;
  std::vector<LocalMove> arrivals_;
};

}  // namespace finwork::net
