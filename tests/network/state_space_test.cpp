// Tests for the reduced-product state space and the level matrices
// M_k, P_k, Q_k, R_k: dimensions, stochasticity invariants, known examples.

#include "network/state_space.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "cluster/builders.h"
#include "cluster/experiments.h"
#include "ph/fitting.h"

namespace net = finwork::net;
namespace ph = finwork::ph;
namespace la = finwork::la;
namespace cluster = finwork::cluster;

namespace {

/// Closed tandem of M exponential single-server stations with exit from the
/// last one.
net::NetworkSpec tandem(std::size_t m, double rate = 1.0) {
  std::vector<net::Station> st;
  for (std::size_t j = 0; j < m; ++j) {
    st.push_back({"S" + std::to_string(j), ph::PhaseType::exponential(rate), 1});
  }
  la::Vector entry(m, 0.0);
  entry[0] = 1.0;
  la::Matrix routing(m, m, 0.0);
  for (std::size_t j = 0; j + 1 < m; ++j) routing(j, j + 1) = 1.0;
  la::Vector exit(m, 0.0);
  exit[m - 1] = 1.0;
  return net::NetworkSpec(std::move(st), std::move(entry), std::move(routing),
                          std::move(exit));
}

}  // namespace

TEST(StateSpace, ReducedProductDimensionFormula) {
  EXPECT_EQ(net::StateSpace::reduced_product_dimension(4, 0), 1u);
  EXPECT_EQ(net::StateSpace::reduced_product_dimension(4, 1), 4u);
  EXPECT_EQ(net::StateSpace::reduced_product_dimension(4, 5), 56u);  // C(8,5)
  EXPECT_EQ(net::StateSpace::reduced_product_dimension(11, 5), 3003u);
}

TEST(StateSpace, TandemDimensionsMatchFormula) {
  const net::StateSpace space(tandem(3), 4);
  for (std::size_t k = 0; k <= 4; ++k) {
    EXPECT_EQ(space.dimension(k),
              net::StateSpace::reduced_product_dimension(3, k))
        << "k = " << k;
  }
}

TEST(StateSpace, PaperCentralClusterDimension) {
  // The paper's reduced space for the 4-station central cluster with K
  // customers is C(K+3, K): D(5) = 56 for K = 5.
  cluster::ApplicationModel app;
  const net::NetworkSpec spec = cluster::central_cluster(5, app);
  const net::StateSpace space(spec, 5);
  EXPECT_EQ(space.dimension(5), 56u);
}

TEST(StateSpace, PaperDistributedClusterDimension) {
  // Our distributed model has K + 3 stations (CPU, LDisk, Comm, D_1..D_K).
  cluster::ApplicationModel app;
  const net::NetworkSpec spec = cluster::distributed_cluster(5, app);
  const net::StateSpace space(spec, 5);
  EXPECT_EQ(space.dimension(5),
            net::StateSpace::reduced_product_dimension(8, 5));
}

TEST(StateSpace, OccupancySumsToLevel) {
  cluster::ApplicationModel app;
  const net::StateSpace space(cluster::central_cluster(4, app), 4);
  for (std::size_t k = 0; k <= 4; ++k) {
    for (std::size_t i = 0; i < space.dimension(k); ++i) {
      const auto occ = space.occupancy(k, i);
      std::size_t total = 0;
      for (std::size_t n : occ) total += n;
      EXPECT_EQ(total, k);
    }
  }
}

TEST(StateSpace, IndexOfRoundTrips) {
  const net::StateSpace space(tandem(3), 3);
  for (std::size_t k = 0; k <= 3; ++k) {
    const auto& states = space.states(k);
    for (std::size_t i = 0; i < states.size(); ++i) {
      EXPECT_EQ(space.index_of(k, states[i]), i);
    }
  }
}

TEST(StateSpace, LevelRowsAreStochastic) {
  // P_k eps + Q_k eps = eps and R_k eps = eps for every level of several
  // representative networks.
  cluster::ApplicationModel app;
  cluster::ClusterShapes h2_shapes;
  h2_shapes.remote_disk = cluster::ServiceShape::hyperexponential(10.0);
  cluster::ClusterShapes cpu_shapes;
  cpu_shapes.cpu = cluster::ServiceShape::erlang(3);
  const std::vector<net::NetworkSpec> specs = {
      tandem(3),
      cluster::central_cluster(4, app),
      cluster::central_cluster(3, app, h2_shapes),
      cluster::central_cluster(3, app, cpu_shapes),
      cluster::distributed_cluster(3, app, h2_shapes),
  };
  for (const auto& spec : specs) {
    const net::StateSpace space(spec, 3);
    for (std::size_t k = 1; k <= 3; ++k) {
      const net::LevelMatrices& lm = space.level(k);
      const la::Vector prow = lm.p.row_sums();
      const la::Vector qrow = lm.q.row_sums();
      for (std::size_t i = 0; i < space.dimension(k); ++i) {
        EXPECT_NEAR(prow[i] + qrow[i], 1.0, 1e-10)
            << "level " << k << " state " << space.describe(k, i);
      }
      const la::Vector rrow = lm.r.row_sums();
      for (std::size_t i = 0; i < space.dimension(k - 1); ++i) {
        EXPECT_NEAR(rrow[i], 1.0, 1e-10);
      }
      for (std::size_t i = 0; i < space.dimension(k); ++i) {
        EXPECT_GT(lm.event_rates[i], 0.0);
      }
    }
  }
}

TEST(StateSpace, SingleStationLevelMatricesExact) {
  // One exponential single-server station with direct exit: level k has one
  // state, M_k = rate, P_k = 0, Q_k = 1, R_k = 1.
  std::vector<net::Station> st{{"S", ph::PhaseType::exponential(3.0), 1}};
  const net::NetworkSpec spec(std::move(st), la::Vector{1.0},
                              la::Matrix(1, 1, 0.0), la::Vector{1.0});
  const net::StateSpace space(spec, 2);
  const net::LevelMatrices& l1 = space.level(1);
  EXPECT_DOUBLE_EQ(l1.event_rates[0], 3.0);
  EXPECT_EQ(l1.p.nnz(), 0u);
  EXPECT_DOUBLE_EQ(l1.q.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(l1.r.at(0, 0), 1.0);
  // Level 2: single server, rate still 3.
  EXPECT_DOUBLE_EQ(space.level(2).event_rates[0], 3.0);
}

TEST(StateSpace, TwoStationFeedbackTransitions) {
  // Station A routes to B, B exits; with k = 1 the P_1 matrix moves the
  // customer from A to B with probability 1.
  const net::NetworkSpec spec = tandem(2, 2.0);
  const net::StateSpace space(spec, 1);
  const net::LevelMatrices& lm = space.level(1);
  // States of level 1: customer at A (1,0) or at B (0,1); find indices.
  std::size_t at_a = 0, at_b = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    const auto occ = space.occupancy(1, i);
    if (occ[0] == 1) at_a = i;
    if (occ[1] == 1) at_b = i;
  }
  EXPECT_DOUBLE_EQ(lm.p.at(at_a, at_b), 1.0);
  EXPECT_DOUBLE_EQ(lm.q.at(at_b, 0), 1.0);
  EXPECT_DOUBLE_EQ(lm.q.at(at_a, 0), 0.0);
}

TEST(StateSpace, InitialVectorIsDistribution) {
  cluster::ApplicationModel app;
  const net::StateSpace space(cluster::central_cluster(4, app), 4);
  const la::Vector p4 = space.initial_vector(4);
  EXPECT_EQ(p4.size(), space.dimension(4));
  EXPECT_NEAR(p4.sum(), 1.0, 1e-12);
  for (std::size_t i = 0; i < p4.size(); ++i) EXPECT_GE(p4[i], -1e-15);
}

TEST(StateSpace, InitialVectorAllAtEntryStations) {
  // With instantaneous streaming-in and entry at the CPU only, every task
  // starts at the (ample) CPU: the initial vector concentrates on the state
  // with all K customers there.
  cluster::ApplicationModel app;
  const net::StateSpace space(cluster::central_cluster(3, app), 3);
  const la::Vector p3 = space.initial_vector(3);
  std::size_t support = 0;
  for (std::size_t i = 0; i < p3.size(); ++i) {
    if (p3[i] > 0.0) {
      ++support;
      EXPECT_EQ(space.occupancy(3, i)[0], 3u);
    }
  }
  EXPECT_EQ(support, 1u);
}

TEST(StateSpace, GuardsBadArguments) {
  const net::StateSpace space(tandem(2), 2);
  EXPECT_THROW((void)space.level(0), std::out_of_range);
  EXPECT_THROW((void)space.level(3), std::out_of_range);
  EXPECT_THROW((void)space.dimension(3), std::out_of_range);
  EXPECT_THROW((void)space.initial_vector(0), std::out_of_range);
  EXPECT_THROW((void)net::StateSpace(tandem(2), 0), std::invalid_argument);
}

TEST(StateSpace, DescribeMentionsStations) {
  const net::StateSpace space(tandem(2), 2);
  const std::string d = space.describe(2, 0);
  EXPECT_NE(d.find("S0"), std::string::npos);
  EXPECT_NE(d.find("S1"), std::string::npos);
}

TEST(StateSpace, ConcurrentLevelAccessBuildsOnce) {
  // StateSpace::level is documented thread-safe and builds lazily: hammer
  // every level from many threads; call_once must serialise the builders
  // and everyone must see fully built matrices.
  cluster::ExperimentConfig cfg;
  cfg.architecture = cluster::Architecture::kDistributed;
  cfg.workstations = 4;
  const net::StateSpace space(cluster::build_cluster(cfg), cfg.workstations);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (std::size_t k = 1; k <= cfg.workstations; ++k) {
        const net::LevelMatrices& lm = space.level(k);
        if (lm.level != k || lm.p.rows() != space.dimension(k) ||
            lm.event_rates.size() != space.dimension(k) ||
            lm.max_event_rate <= 0.0) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Property: level dimensions are consistent with per-station local counts
// across mixed-shape clusters.
class LevelDimensions : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LevelDimensions, QAndRHaveMatchingShapes) {
  cluster::ApplicationModel app;
  cluster::ClusterShapes shapes;
  shapes.remote_disk = cluster::ServiceShape::hyperexponential(5.0);
  const std::size_t k = GetParam();
  const net::StateSpace space(cluster::central_cluster(k, app, shapes), k);
  for (std::size_t lvl = 1; lvl <= k; ++lvl) {
    const net::LevelMatrices& lm = space.level(lvl);
    EXPECT_EQ(lm.p.rows(), space.dimension(lvl));
    EXPECT_EQ(lm.p.cols(), space.dimension(lvl));
    EXPECT_EQ(lm.q.rows(), space.dimension(lvl));
    EXPECT_EQ(lm.q.cols(), space.dimension(lvl - 1));
    EXPECT_EQ(lm.r.rows(), space.dimension(lvl - 1));
    EXPECT_EQ(lm.r.cols(), space.dimension(lvl));
  }
}

INSTANTIATE_TEST_SUITE_P(Populations, LevelDimensions,
                         ::testing::Values(1, 2, 3, 5));
