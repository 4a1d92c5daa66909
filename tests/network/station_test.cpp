// Tests for StationModel: local state counts, the per-code tables of
// populations, busy servers, activities and arrivals, and the probability
// invariants each local state must satisfy.

#include "network/station.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>

#include "ph/fitting.h"

namespace net = finwork::net;
namespace ph = finwork::ph;

namespace {

net::StationModel make_model(ph::PhaseType svc, std::size_t mult,
                             std::size_t max_pop) {
  return net::StationModel({"S", std::move(svc), mult}, max_pop);
}

/// The local code of state (n, idx).
std::uint32_t code(const net::StationModel& m, std::size_t n, std::size_t idx) {
  return static_cast<std::uint32_t>(m.code_offset(n) + idx);
}

/// Sum of internal + completion probabilities of one activity.
double outcome_mass(const net::StationModel& m, const net::LocalActivity& a) {
  double s = 0.0;
  for (const auto& o : m.internal(a)) s += o.probability;
  for (const auto& o : m.completions(a)) s += o.probability;
  return s;
}

}  // namespace

TEST(StationModel, QueuedExponentialCounts) {
  const auto m = make_model(ph::PhaseType::exponential(1.0), 1, 5);
  for (std::size_t n = 0; n <= 5; ++n) EXPECT_EQ(m.count(n), 1u);
  EXPECT_EQ(m.total_codes(), 6u);
  EXPECT_EQ(m.code_offset(6), m.total_codes());
  EXPECT_THROW((void)m.count(6), std::out_of_range);
  EXPECT_THROW((void)m.code_offset(7), std::out_of_range);
  EXPECT_FALSE(m.is_ample());
}

TEST(StationModel, AmpleExponentialCounts) {
  const auto m = make_model(ph::PhaseType::exponential(1.0), 5, 5);
  for (std::size_t n = 0; n <= 5; ++n) EXPECT_EQ(m.count(n), 1u);
  EXPECT_TRUE(m.is_ample());
}

TEST(StationModel, AmplePhCountsAreCompositions) {
  // Erlang-2, ample: count(n) = n + 1 (compositions of n into 2 parts).
  const auto m = make_model(ph::PhaseType::erlang(2, 1.0), 4, 4);
  for (std::size_t n = 0; n <= 4; ++n) EXPECT_EQ(m.count(n), n + 1);
}

TEST(StationModel, AmpleH3Counts) {
  // 3 phases: count(n) = C(n+2, 2).
  const auto m = make_model(
      ph::PhaseType::hyperexponential({0.2, 0.3, 0.5}, {1.0, 2.0, 3.0}), 4, 4);
  EXPECT_EQ(m.count(0), 1u);
  EXPECT_EQ(m.count(1), 3u);
  EXPECT_EQ(m.count(2), 6u);
  EXPECT_EQ(m.count(3), 10u);
}

TEST(StationModel, QueuedPhCounts) {
  // Single-server H2: one empty state, (n, phase) for n >= 1.
  const auto m = make_model(ph::hyperexponential_balanced(1.0, 4.0), 1, 3);
  EXPECT_EQ(m.count(0), 1u);
  EXPECT_EQ(m.count(1), 2u);
  EXPECT_EQ(m.count(2), 2u);
  EXPECT_EQ(m.count(3), 2u);
}

TEST(StationModel, MultiServerPhRejected) {
  EXPECT_THROW((void)make_model(ph::hyperexponential_balanced(1.0, 4.0), 2, 5),
               std::invalid_argument);
}

TEST(StationModel, MultiServerExponentialAllowed) {
  const auto m = make_model(ph::PhaseType::exponential(2.0), 3, 6);
  // Rate scales with min(n, c).
  EXPECT_DOUBLE_EQ(m.activities(code(m, 1, 0))[0].rate, 2.0);
  EXPECT_DOUBLE_EQ(m.activities(code(m, 2, 0))[0].rate, 4.0);
  EXPECT_DOUBLE_EQ(m.activities(code(m, 3, 0))[0].rate, 6.0);
  // Capped at c = 3.
  EXPECT_DOUBLE_EQ(m.activities(code(m, 5, 0))[0].rate, 6.0);
  // One code per n: n customers, min(n, c) of them in service.
  for (std::size_t n = 0; n <= 6; ++n) {
    EXPECT_EQ(m.population()[code(m, n, 0)], n);
    EXPECT_EQ(m.busy()[code(m, n, 0)], std::min<std::size_t>(n, 3));
  }
}

TEST(StationModel, ZeroMultiplicityRejected) {
  EXPECT_THROW((void)make_model(ph::PhaseType::exponential(1.0), 0, 3),
               std::invalid_argument);
}

TEST(StationModel, DecodeRoundTrips) {
  const auto m = make_model(ph::PhaseType::erlang(2, 1.0), 4, 4);
  for (std::size_t n = 0; n <= 4; ++n) {
    for (std::size_t idx = 0; idx < m.count(n); ++idx) {
      const auto [dn, didx] = m.decode(m.code_offset(n) + idx);
      EXPECT_EQ(dn, n);
      EXPECT_EQ(didx, idx);
    }
  }
  EXPECT_THROW((void)m.decode(m.total_codes()), std::out_of_range);
}

TEST(StationModel, EmptyStateHasNoActivities) {
  const auto m = make_model(ph::PhaseType::exponential(1.0), 1, 3);
  EXPECT_TRUE(m.activities(code(m, 0, 0)).empty());
}

TEST(StationModel, ActivityOutcomesAreStochastic) {
  // Every activity's outcome mass must be exactly 1 across all station kinds.
  const std::vector<net::StationModel> models = {
      make_model(ph::PhaseType::exponential(1.0), 1, 4),
      make_model(ph::PhaseType::exponential(1.0), 4, 4),
      make_model(ph::PhaseType::erlang(3, 1.0), 4, 4),
      make_model(ph::hyperexponential_balanced(1.0, 9.0), 1, 4),
      make_model(ph::PhaseType::erlang(2, 1.0), 1, 4),
  };
  for (const auto& m : models) {
    for (std::size_t n = 1; n <= 4; ++n) {
      for (std::size_t idx = 0; idx < m.count(n); ++idx) {
        const auto acts = m.activities(code(m, n, idx));
        EXPECT_FALSE(acts.empty()) << m.describe(n, idx);
        for (const auto& act : acts) {
          EXPECT_NEAR(outcome_mass(m, act), 1.0, 1e-12)
              << m.describe(n, idx);
          EXPECT_GT(act.rate, 0.0);
          // Internal moves keep n customers, completions leave n - 1.
          for (const auto& o : m.internal(act)) {
            EXPECT_EQ(m.population()[o.code], n);
          }
          for (const auto& o : m.completions(act)) {
            EXPECT_EQ(m.population()[o.code], n - 1);
          }
        }
      }
    }
  }
}

TEST(StationModel, ArrivalOutcomesAreStochastic) {
  const std::vector<net::StationModel> models = {
      make_model(ph::PhaseType::exponential(1.0), 1, 4),
      make_model(ph::PhaseType::erlang(3, 1.0), 4, 4),
      make_model(ph::hyperexponential_balanced(1.0, 9.0), 1, 4),
  };
  for (const auto& m : models) {
    for (std::size_t n = 0; n < 4; ++n) {
      for (std::size_t idx = 0; idx < m.count(n); ++idx) {
        double mass = 0.0;
        for (const auto& o : m.arrivals(code(m, n, idx))) {
          mass += o.probability;
          EXPECT_EQ(m.population()[o.code], n + 1);
        }
        EXPECT_NEAR(mass, 1.0, 1e-12) << m.describe(n, idx);
      }
    }
    // A full station takes no arrival.
    for (std::size_t idx = 0; idx < m.count(4); ++idx) {
      EXPECT_TRUE(m.arrivals(code(m, 4, idx)).empty());
    }
  }
}

TEST(StationModel, QueuedPhCompletionDrawsNextEntryPhase) {
  const auto m = make_model(
      ph::PhaseType::hyperexponential({0.3, 0.7}, {1.0, 5.0}), 1, 3);
  // In state (2, phase 0), a completion hands service to the next customer
  // whose phase follows the entrance vector.
  const auto acts = m.activities(code(m, 2, 0));
  ASSERT_EQ(acts.size(), 1u);
  const auto done = m.completions(acts[0]);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].code, code(m, 1, 0));
  EXPECT_EQ(done[1].code, code(m, 1, 1));
  EXPECT_NEAR(done[0].probability, 0.3, 1e-12);
  EXPECT_NEAR(done[1].probability, 0.7, 1e-12);
}

TEST(StationModel, QueuedPhDrainToEmpty) {
  const auto m = make_model(
      ph::PhaseType::hyperexponential({0.3, 0.7}, {1.0, 5.0}), 1, 3);
  const auto acts = m.activities(code(m, 1, 1));
  ASSERT_EQ(acts.size(), 1u);
  const auto done = m.completions(acts[0]);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].code, code(m, 0, 0));
  EXPECT_NEAR(done[0].probability, 1.0, 1e-12);
}

TEST(StationModel, AmplePhaseRatesScaleWithOccupancy) {
  const auto m = make_model(ph::PhaseType::erlang(2, 2.0), 4, 4);  // stage rate 1
  // Find the composition (3, 0): all three tasks in stage 1.
  for (std::size_t idx = 0; idx < m.count(3); ++idx) {
    const auto counts = m.phase_counts(3, idx);
    if (counts[0] == 3 && counts[1] == 0) {
      const auto acts = m.activities(code(m, 3, idx));
      ASSERT_EQ(acts.size(), 1u);
      EXPECT_DOUBLE_EQ(acts[0].rate, 3.0);
      EXPECT_EQ(m.busy()[code(m, 3, idx)], 3u);  // every customer in service
      return;
    }
  }
  FAIL() << "composition (3,0) not found";
}

TEST(StationModel, PhaseCountsConsistent) {
  const auto m = make_model(ph::hyperexponential_balanced(1.0, 4.0), 1, 3);
  // Queued station: only the in-service customer carries a phase.
  const auto counts = m.phase_counts(3, 1);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0u), 1u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(m.population()[code(m, 3, 1)], 3u);
  EXPECT_EQ(m.busy()[code(m, 3, 1)], 1u);
  EXPECT_EQ(m.busy()[code(m, 0, 0)], 0u);
  // At every station kind, the busy servers of a code are its phase counts'
  // sum.
  const std::vector<net::StationModel> models = {
      make_model(ph::PhaseType::exponential(1.0), 2, 4),
      make_model(ph::PhaseType::exponential(1.0), 4, 4),
      make_model(ph::PhaseType::erlang(3, 1.0), 4, 4),
      make_model(ph::hyperexponential_balanced(1.0, 9.0), 1, 4),
  };
  for (const auto& model : models) {
    for (std::size_t n = 0; n <= 4; ++n) {
      for (std::size_t idx = 0; idx < model.count(n); ++idx) {
        const auto phases = model.phase_counts(n, idx);
        EXPECT_EQ(model.busy()[code(model, n, idx)],
                  std::accumulate(phases.begin(), phases.end(), 0u))
            << model.describe(n, idx);
      }
    }
  }
}

TEST(StationModel, DescribeProducesText) {
  const auto amp = make_model(ph::PhaseType::erlang(2, 1.0), 3, 3);
  EXPECT_FALSE(amp.describe(2, 0).empty());
  const auto q = make_model(ph::hyperexponential_balanced(1.0, 4.0), 1, 3);
  EXPECT_NE(q.describe(2, 1).find("ph="), std::string::npos);
  const auto e = make_model(ph::PhaseType::exponential(1.0), 1, 3);
  EXPECT_EQ(e.describe(2, 0), "n=2");
}
