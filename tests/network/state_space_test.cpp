// Tests for the reduced-product state space and the level matrices
// M_k, P_k, Q_k, R_k: dimensions, stochasticity invariants, known examples.

#include "network/state_space.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <stdexcept>
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
    std::string name = "S";
    name += std::to_string(j);  // GCC 12 -Wrestrict misfires on "S" + ...
    st.push_back({std::move(name), ph::PhaseType::exponential(rate), 1});
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

/// The cluster models of the benchmark and the paper's figures.
cluster::ExperimentConfig figure_config(cluster::Architecture arch,
                                        std::size_t workstations) {
  cluster::ExperimentConfig c;
  c.architecture = arch;
  c.workstations = workstations;
  return c;
}

/// The benchmark's large_n model: distributed, K = 6.
net::NetworkSpec large_n_model() {
  return cluster::build_cluster(
      figure_config(cluster::Architecture::kDistributed, 6));
}

/// Figure 6's C^2 = 10 model: distributed, K = 5, H2 remote disk.
net::NetworkSpec fig6_scv10_model() {
  cluster::ExperimentConfig c =
      figure_config(cluster::Architecture::kDistributed, 5);
  c.shapes.remote_disk = cluster::ServiceShape::from_scv(10.0);
  return cluster::build_cluster(c);
}

/// Figure 10's distributed K = 5 coarse-grained model with the given
/// dedicated-CPU shape: an ample multi-phase station for H2 or E3.
net::NetworkSpec fig10_model(const cluster::ServiceShape& cpu) {
  cluster::ExperimentConfig c =
      figure_config(cluster::Architecture::kDistributed, 5);
  c.app = cluster::ApplicationModel::coarse_grained();
  c.shapes.cpu = cpu;
  return cluster::build_cluster(c);
}

/// Two two-server exponential stations and a single-server Erlang-2 one: at
/// K = 4 they are queued multi-server stations (1 < c < K) and a queued
/// PH station with internal stage moves.
net::NetworkSpec two_server_model() {
  std::vector<net::Station> st = {
      {"A", ph::PhaseType::exponential(2.0), 2},
      {"B", ph::PhaseType::erlang(2, 1.0), 1},
      {"C", ph::PhaseType::exponential(0.5), 2},
  };
  la::Matrix routing(3, 3, 0.0);
  routing(0, 1) = 0.6;
  routing(0, 2) = 0.4;
  routing(1, 0) = 0.5;
  routing(2, 0) = 0.3;
  routing(2, 1) = 0.2;
  return net::NetworkSpec(std::move(st), la::Vector{0.7, 0.0, 0.3},
                          std::move(routing), la::Vector{0.0, 0.5, 0.5});
}

/// Every state of every level ranks to its own index, and the states come
/// in strictly increasing lexicographic order of their codes.
void expect_rank_round_trips(const net::StateSpace& space) {
  for (std::size_t k = 0; k <= space.max_population(); ++k) {
    for (std::size_t i = 0; i < space.dimension(k); ++i) {
      const auto s = space.state(k, i);
      ASSERT_EQ(space.index_of(k, s), i) << "level " << k;
      if (i > 0) {
        const auto prev = space.state(k, i - 1);
        ASSERT_TRUE(std::lexicographical_compare(prev.begin(), prev.end(),
                                                 s.begin(), s.end()))
            << "level " << k << " state " << i;
      }
    }
  }
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
    for (std::size_t i = 0; i < space.dimension(k); ++i) {
      EXPECT_EQ(space.index_of(k, space.state(k, i)), i);
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
  // every level from many threads; each level's cell must serialise the
  // builders and everyone must see fully built matrices.
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

// --- Flat ranked states ---

TEST(StateSpaceRank, LargeNModelRoundTrips) {
  expect_rank_round_trips(net::StateSpace(large_n_model(), 6));
}

TEST(StateSpaceRank, Fig5CentralK8Scv100RoundTrips) {
  cluster::ExperimentConfig c =
      figure_config(cluster::Architecture::kCentral, 8);
  c.shapes.remote_disk = cluster::ServiceShape::from_scv(100.0);
  expect_rank_round_trips(net::StateSpace(cluster::build_cluster(c), 8));
}

TEST(StateSpaceRank, Fig6Scv10RoundTrips) {
  expect_rank_round_trips(net::StateSpace(fig6_scv10_model(), 5));
}

TEST(StateSpaceRank, Fig10H2RoundTrips) {
  expect_rank_round_trips(net::StateSpace(
      fig10_model(cluster::ServiceShape::hyperexponential(2.0)), 5));
}

TEST(StateSpaceRank, Fig15K10RoundTrips) {
  cluster::ExperimentConfig c =
      figure_config(cluster::Architecture::kCentral, 10);
  c.app = cluster::ApplicationModel::coarse_grained();
  for (const cluster::ServiceShape& cpu :
       {cluster::ServiceShape::erlang(2),
        cluster::ServiceShape::hyperexponential(2.0)}) {
    c.shapes.cpu = cpu;
    expect_rank_round_trips(net::StateSpace(cluster::build_cluster(c), 10));
  }
}

TEST(StateSpaceRank, DimensionsMatchABruteForceCount) {
  // Every tuple of local codes, counted by population: D(k) from the
  // tables is the number of tuples holding k customers, and the tuples of
  // level k, in lexicographic order, are exactly states 0, 1, ... of level
  // k.  Covers single-phase, queued PH and ample PH stations.
  cluster::ApplicationModel app;
  cluster::ClusterShapes mixed;
  mixed.cpu = cluster::ServiceShape::erlang(3);
  mixed.remote_disk = cluster::ServiceShape::hyperexponential(10.0);
  for (const net::NetworkSpec& spec :
       {tandem(3), cluster::central_cluster(3, app, mixed),
        cluster::distributed_cluster(3, app, mixed)}) {
    const net::StateSpace space(spec, 3);
    const std::size_t s = space.num_stations();
    std::vector<std::size_t> seen(4, 0);
    std::vector<std::uint32_t> codes(s, 0);
    const std::function<void(std::size_t, std::size_t)> visit =
        [&](std::size_t j, std::size_t customers) {
          if (j == s) {
            if (customers > 3) return;
            const auto i = seen[customers]++;
            ASSERT_EQ(space.index_of(customers, codes), i);
            const auto st = space.state(customers, i);
            ASSERT_TRUE(std::equal(st.begin(), st.end(), codes.begin()));
            return;
          }
          const net::StationModel& m = space.model(j);
          for (std::size_t c = 0; c < m.total_codes(); ++c) {
            codes[j] = static_cast<std::uint32_t>(c);
            visit(j + 1, customers + m.decode(c).first);
          }
        };
    visit(0, 0);
    for (std::size_t k = 0; k <= 3; ++k) EXPECT_EQ(space.dimension(k), seen[k]);
  }
}

TEST(StateSpaceRank, SinglePhaseDimensionsAreTheReducedProduct) {
  for (std::size_t m : {1u, 3u, 8u}) {
    const net::StateSpace space(tandem(m), 6);
    for (std::size_t k = 0; k <= 6; ++k) {
      EXPECT_EQ(space.dimension(k),
                net::StateSpace::reduced_product_dimension(m, k));
    }
  }
  const net::StateSpace space(large_n_model(), 6);
  EXPECT_EQ(space.dimension(6),
            net::StateSpace::reduced_product_dimension(9, 6));
}

TEST(StateSpaceRank, RejectsMalformedStates) {
  const net::StateSpace space(fig6_scv10_model(), 5);
  const auto s = space.state(3, 7);
  std::vector<std::uint32_t> codes(s.begin(), s.end());
  EXPECT_EQ(space.index_of(3, codes), 7u);
  // Wrong length.
  const std::vector<std::uint32_t> shorter(codes.begin(), codes.end() - 1);
  EXPECT_THROW((void)space.index_of(3, shorter), std::out_of_range);
  std::vector<std::uint32_t> longer = codes;
  longer.push_back(0);
  EXPECT_THROW((void)space.index_of(3, longer), std::out_of_range);
  // A code past the station's last local state.
  std::vector<std::uint32_t> bad = codes;
  bad[0] = static_cast<std::uint32_t>(space.model(0).total_codes());
  EXPECT_THROW((void)space.index_of(3, bad), std::out_of_range);
  // A valid tuple of level 3 asked for at levels 2 and 4, and a level
  // beyond K.
  EXPECT_THROW((void)space.index_of(2, codes), std::out_of_range);
  EXPECT_THROW((void)space.index_of(4, codes), std::out_of_range);
  EXPECT_THROW((void)space.index_of(6, codes), std::out_of_range);
  // States out of range.
  EXPECT_THROW((void)space.state(3, space.dimension(3)), std::out_of_range);
  EXPECT_THROW((void)space.state(6, 0), std::out_of_range);
}

namespace {

/// FNV-1a over (row, col, value bits) of every stored entry, with the
/// shape first.
std::uint64_t csr_digest(const la::CsrMatrix& m) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t w) {
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(m.rows());
  mix(m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t p = m.row_ptr()[r]; p < m.row_ptr()[r + 1]; ++p) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &m.values()[p], sizeof bits);
      mix(r);
      mix(m.col_idx()[p]);
      mix(bits);
    }
  }
  return h;
}

struct LevelDigest {
  std::uint64_t p, q, r;
};

void expect_level_digests(const net::StateSpace& space,
                          const std::vector<LevelDigest>& want) {
  ASSERT_EQ(want.size(), space.max_population());
  for (std::size_t k = 1; k <= want.size(); ++k) {
    const net::LevelMatrices& lm = space.level(k);
    EXPECT_EQ(csr_digest(lm.p), want[k - 1].p) << "P_" << k;
    EXPECT_EQ(csr_digest(lm.q), want[k - 1].q) << "Q_" << k;
    EXPECT_EQ(csr_digest(lm.r), want[k - 1].r) << "R_" << k;
  }
}

}  // namespace

// The large_n and Fig 6 digests were recorded from the hash-indexed
// assembly that the ranked one replaced, the Fig 10 and two-server ones from
// the per-state activity vectors that the station tables replaced: every
// level keeps its entries and their bits.  Between them they cover every
// station kind: ample and queued single-phase, ample multi-phase with and
// without internal stage moves, queued multi-server exponential and queued
// single-server PH.
TEST(StateSpaceRank, LargeNLevelsKeepTheirBits) {
  expect_level_digests(
      net::StateSpace(large_n_model(), 6),
      {{0xb5eea5e2766a0467ULL, 0x36cd97ae6efefbfaULL, 0x4a6a13511051205aULL},
       {0x0b9e6b90aa9c12d0ULL, 0x2f1a0569b172c026ULL, 0x83b6f4561a1184baULL},
       {0x82fdc05b1d2314a4ULL, 0x223ddddfe86c83e9ULL, 0xa0335c5212ef131aULL},
       {0x8feeb6221d94c8edULL, 0x492853b8185222c5ULL, 0x6496d298829e3466ULL},
       {0x28db4e092681467dULL, 0x92a0f2f821e3d586ULL, 0x308142d774f9605aULL},
       {0xdfd20e45a1788d05ULL, 0x2824be3d6887ae6dULL,
        0xde695fddaf222fc2ULL}});
}

TEST(StateSpaceRank, Fig6Scv10LevelsKeepTheirBits) {
  expect_level_digests(
      net::StateSpace(fig6_scv10_model(), 5),
      {{0x5487b787580432c9ULL, 0x169f15e944a1bcfaULL, 0x23d487cb4fd5c15aULL},
       {0x411398531c4a1292ULL, 0x0c7d6d99480716ddULL, 0x58fc2e78c12bf760ULL},
       {0xaa8d7031dcd764f9ULL, 0x6f726926bd66cf6bULL, 0xa8237e681eafbcb8ULL},
       {0x27fa88503a1c742aULL, 0xbbb837816816fe50ULL, 0xd6913c4eb4832fb6ULL},
       {0x64ef76a591edc970ULL, 0x65b29fbf5dca5923ULL,
        0x8901bd9ae6279762ULL}});
}

TEST(StateSpaceRank, Fig10H2LevelsKeepTheirBits) {
  expect_level_digests(
      net::StateSpace(fig10_model(cluster::ServiceShape::hyperexponential(2.0)),
                      5),
      {{0x7f56cf4385e46e23ULL, 0xaf963c75c08beac4ULL, 0xaaade9a3104a8bdbULL},
       {0x1a853b777a1e2258ULL, 0xaca6e8eff69d9cd0ULL, 0xe9ad42e138634cfbULL},
       {0x5800cbd1750f4b4dULL, 0x5eed62d5142b690bULL, 0x70541cae320de9ebULL},
       {0x3b7e57b2ba38c64aULL, 0xacc2d203333b98c9ULL, 0xab2b299aa8a62e2eULL},
       {0x7990544d75f00e21ULL, 0xa5e778733763c4d9ULL,
        0x947fca642165b7bcULL}});
}

TEST(StateSpaceRank, Fig10E3LevelsKeepTheirBits) {
  expect_level_digests(
      net::StateSpace(fig10_model(cluster::ServiceShape::erlang(3)), 5),
      {{0xc26178db01e6673dULL, 0xf0ad9aba9c1bbf9eULL, 0x8c56fc653d09ac3cULL},
       {0xc12e39cf3d88f4edULL, 0x7f9ec89365252f6dULL, 0x0407e1e3060f008dULL},
       {0x46aa66efb5dac2d8ULL, 0x44cbc3366329908bULL, 0x07b93a85765bfd5eULL},
       {0x3008a68a97afb64aULL, 0x8c7f2f3dab839b19ULL, 0x8dbd5b4db804e560ULL},
       {0x2f0cd05f35a04e0cULL, 0x9d5bd59718ec0f63ULL,
        0xa3d6d72dfbe85a24ULL}});
}

TEST(StateSpaceRank, TwoServerLevelsKeepTheirBits) {
  expect_level_digests(net::StateSpace(two_server_model(), 4),
      {{0x2776bbd25af15e8eULL, 0x7c43e9ff5eb46ac8ULL, 0xbb5e0908828988d6ULL},
       {0x5a32cece98377022ULL, 0x69ec8e943d0b790eULL, 0xafcebe0b5499a9e8ULL},
       {0xb87b14ddd75851a5ULL, 0x844e03005fe2412fULL, 0x453fa69966e7a174ULL},
       {0x47a086ebe6eedb07ULL, 0x184819336266aacbULL,
        0x190bf932dfb9f522ULL}});
}
