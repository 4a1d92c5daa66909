// Content-addressed model cache: canonical byte keys with structural
// equality, concurrent misses that share one model, LRU capacity bounds, and
// artifact sharing across solver instances.

#include "core/model_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/builders.h"
#include "cluster/experiments.h"
#include "core/transient_solver.h"
#include "network/network_spec.h"
#include "obs/counters.h"
#include "parallel/thread_pool.h"

namespace {

using namespace finwork;

net::NetworkSpec make_cluster(std::size_t workstations, double disk_scv) {
  cluster::ExperimentConfig cfg;
  cfg.architecture = cluster::Architecture::kCentral;
  cfg.workstations = workstations;
  cfg.shapes.remote_disk = cluster::ServiceShape::from_scv(disk_scv);
  return cluster::build_cluster(cfg);
}

TEST(CanonicalKeyTest, StructurallyEqualSpecsShareTheKey) {
  // Two independently built copies of the same cluster must encode to the
  // same bytes — the cache is content-addressed, not identity-addressed.
  const auto key_a = core::canonical_model_key(make_cluster(3, 4.0), 3);
  const auto key_b = core::canonical_model_key(make_cluster(3, 4.0), 3);
  EXPECT_EQ(key_a, key_b);
}

TEST(CanonicalKeyTest, DistinguishesShapePopulationAndOptions) {
  const auto base = core::canonical_model_key(make_cluster(3, 4.0), 3);
  // A different service shape is a different model.
  EXPECT_NE(base, core::canonical_model_key(make_cluster(3, 6.0), 3));
  // A different population bound changes the state space.
  EXPECT_NE(base, core::canonical_model_key(make_cluster(3, 4.0), 2));
  // Model options shape the artifacts, so they are part of the key.
  core::ModelOptions iterative;
  iterative.dense_threshold = 0;
  EXPECT_NE(base,
            core::canonical_model_key(make_cluster(3, 4.0), 3, iterative));
}

TEST(CanonicalKeyTest, EncodesEveryModelOptionAtTheTail) {
  // Version 5 layout: the model inputs, then dense_threshold (u64, little
  // endian) and max_condition (the double's bits).
  const core::ModelOptions opts{7, 0.5};
  const auto base = core::canonical_model_key(make_cluster(3, 4.0), 3);
  const auto key = core::canonical_model_key(make_cluster(3, 4.0), 3, opts);
  ASSERT_EQ(key.size(), base.size());
  ASSERT_GT(key.size(), 16u);
  EXPECT_EQ(key.front(), 5u);
  const std::size_t tail = key.size() - 16;
  EXPECT_TRUE(std::equal(key.begin(), key.begin() + tail, base.begin()));
  std::vector<std::uint8_t> want;
  for (int i = 0; i < 8; ++i) want.push_back(i == 0 ? 7 : 0);
  const auto bits = std::bit_cast<std::uint64_t>(0.5);
  for (int i = 0; i < 8; ++i) {
    want.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  EXPECT_EQ(std::vector<std::uint8_t>(key.begin() + tail, key.end()), want);
}

TEST(CanonicalKeyTest, ExponentializedModelIsSharedAcrossScvSweep) {
  // The paper's prediction-error sweeps compare each C^2 against the
  // exponentialized cluster; that comparison model is the SAME for every
  // C^2 value, which is what makes the sweep cache-friendly.
  const auto exp_a =
      core::canonical_model_key(make_cluster(3, 4.0).exponentialized(), 3);
  const auto exp_b =
      core::canonical_model_key(make_cluster(3, 25.0).exponentialized(), 3);
  EXPECT_EQ(exp_a, exp_b);
}

TEST(ModelCacheTest, HitsReuseTheSameArtifacts) {
  core::ModelCache cache(4);
  const auto a = cache.acquire(make_cluster(3, 4.0), 3);
  const auto b = cache.acquire(make_cluster(3, 4.0), 3);
  EXPECT_EQ(a.get(), b.get());
  const core::ModelCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1U);
  EXPECT_EQ(stats.hits, 1U);
  EXPECT_EQ(stats.size, 1U);
}

TEST(ModelCacheTest, LruEvictsTheColdestEntry) {
  core::ModelCache cache(2);
  const auto a = cache.acquire(make_cluster(2, 0.5), 2);
  (void)cache.acquire(make_cluster(2, 2.0), 2);
  // Touch A so B becomes the LRU entry, then insert C to push B out.
  (void)cache.acquire(make_cluster(2, 0.5), 2);
  (void)cache.acquire(make_cluster(2, 10.0), 2);
  EXPECT_EQ(cache.stats().evictions, 1U);
  EXPECT_EQ(cache.stats().size, 2U);

  // A survived (hit); B was evicted (miss rebuilds it).
  const std::uint64_t misses_before = cache.stats().misses;
  EXPECT_EQ(cache.acquire(make_cluster(2, 0.5), 2).get(), a.get());
  EXPECT_EQ(cache.stats().misses, misses_before);
  (void)cache.acquire(make_cluster(2, 2.0), 2);
  EXPECT_EQ(cache.stats().misses, misses_before + 1);
}

TEST(ModelCacheTest, EvictedModelSurvivesForHolders) {
  core::ModelCache cache(1);
  const auto a = cache.acquire(make_cluster(2, 0.5), 2);
  (void)cache.acquire(make_cluster(2, 2.0), 2);  // evicts a's entry
  EXPECT_EQ(cache.stats().evictions, 1U);
  // The shared_ptr keeps the artifacts alive and usable.
  const core::TransientSolver solver(a);
  EXPECT_GT(solver.makespan(10), 0.0);
}

TEST(ModelCacheTest, ConcurrentMissesShareOneModel) {
  // Threads that miss the same key at once may each enumerate the state
  // space, but every one of them returns the model inserted first.
  core::ModelCache cache(4);
  constexpr std::size_t kThreads = 8;
  std::vector<std::shared_ptr<const core::ModelArtifacts>> models(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&cache, &models, t] {
        models[t] = cache.acquire(make_cluster(3, 10.0), 3);
      });
    }
    for (std::thread& th : threads) th.join();
  }
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(models[t].get(), models[0].get());
  }
  const core::ModelCacheStats stats = cache.stats();
  EXPECT_EQ(stats.size, 1U);
  EXPECT_EQ(stats.hits + stats.misses, kThreads);
}

TEST(ModelCacheTest, ClearDropsEntriesAndResetsStats) {
  core::ModelCache cache(4);
  (void)cache.acquire(make_cluster(2, 0.5), 2);
  (void)cache.acquire(make_cluster(2, 0.5), 2);
  cache.clear();
  const core::ModelCacheStats stats = cache.stats();
  EXPECT_EQ(stats.size, 0U);
  EXPECT_EQ(stats.hits, 0U);
  EXPECT_EQ(stats.misses, 0U);
  // Re-acquire rebuilds.
  (void)cache.acquire(make_cluster(2, 0.5), 2);
  EXPECT_EQ(cache.stats().misses, 1U);
}

TEST(ModelCacheTest, SharedModelMatchesPrivatelyBuiltSolver) {
  const net::NetworkSpec spec = make_cluster(3, 10.0);
  const core::TransientSolver direct(spec, 3);
  core::ModelCache cache(4);
  const core::TransientSolver shared(cache.acquire(spec, 3));
  for (std::size_t n : {std::size_t{3}, std::size_t{30}, std::size_t{200}}) {
    EXPECT_NEAR(shared.makespan(n), direct.makespan(n),
                1e-10 * direct.makespan(n));
  }
  EXPECT_NEAR(shared.steady_state().interdeparture,
              direct.steady_state().interdeparture, 1e-12);
}

TEST(ModelCacheTest, SmallLevelsBuildOnTheCallingThread) {
  // Central K = 4 with a C^2 = 10 remote disk: every level is below the
  // 4096 states where assembly fans out, so building the model and
  // answering mean and moments queries from the main thread leaves the pool
  // idle — levels are built where they are first needed, not prefetched.
  const net::NetworkSpec spec = make_cluster(4, 10.0);
  ASSERT_LT(net::StateSpace(spec, 4).dimension(4), 4096u);
  ASSERT_FALSE(par::ThreadPool::on_worker_thread());
  const std::uint64_t before =
      obs::counter_value(obs::Counter::kPoolTasksExecuted);
  const core::TransientSolver solver(
      std::make_shared<const core::ModelArtifacts>(spec, 4));
  EXPECT_GT(solver.makespan(50), 0.0);
  EXPECT_GT(solver.makespan_moments(50).variance, 0.0);
  EXPECT_EQ(obs::counter_value(obs::Counter::kPoolTasksExecuted), before);
}

TEST(ModelCacheTest, DrainVectorsBuiltOncePerLevel) {
  // Central K = 4 with level 4 iterative and levels 1..3 dense: the drain
  // vectors are one column solve per level, paid by the first query only.
  const net::NetworkSpec spec = make_cluster(4, 10.0);
  core::ModelOptions opts;
  opts.dense_threshold = net::StateSpace(spec, 3).dimension(3);
  const auto model =
      std::make_shared<const core::ModelArtifacts>(spec, 4, opts);
  ASSERT_GT(model->space().dimension(4), opts.dense_threshold);
  const core::TransientSolver solver(model);
  for (std::size_t k = 1; k <= 4; ++k) (void)model->tau(k);
  const auto bitwise_equal = [](const la::Vector& a, const la::Vector& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), sizeof(double) * a.size()) == 0;
  };

  const std::vector<std::size_t> grid{2, 4, 50};
  const auto solves = [] {
    return std::pair{obs::counter_value(obs::Counter::kDenseSolves),
                     obs::counter_value(obs::Counter::kIterativeSolves)};
  };
  obs::counters_reset();
  const std::vector<double> first = solver.makespan_grid(grid);
  const auto [dense1, iterative1] = solves();
  // A second solver over the same model runs the recursion again (the
  // first solver would answer from its saturated memo) but reuses h_k.
  obs::counters_reset();
  const std::vector<double> second =
      core::TransientSolver(model).makespan_grid(grid);
  const auto [dense2, iterative2] = solves();
  EXPECT_EQ(dense1, 3U);  // h_1, h_2, h_3
  EXPECT_EQ(dense2, 0U);
  EXPECT_EQ(iterative1, iterative2 + 1);  // h_4
  EXPECT_EQ(first, second);

  // The grid queries never built x_k: its first request pays one solve
  // per level, the next one none.
  obs::counters_reset();
  (void)model->drain_second(4);
  const auto [dense3, iterative3] = solves();
  EXPECT_EQ(dense3, 3U);
  EXPECT_EQ(iterative3, 1U);
  obs::counters_reset();
  (void)solver.makespan_moments(3);
  (void)model->drain_second(4);
  EXPECT_EQ(solves(), std::pair(std::uint64_t{0}, std::uint64_t{0}));

  // Concurrent first use: every thread sees the same, fully built vectors.
  const auto fresh =
      std::make_shared<const core::ModelArtifacts>(spec, 4, opts);
  constexpr std::size_t kThreads = 8;
  std::vector<la::Vector> h(kThreads);
  std::vector<la::Vector> x(kThreads);
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        x[t] = fresh->drain_second(4 - t % 2);
        h[t] = fresh->drain_mean(4 - t % 2);
      });
    }
    for (std::thread& th : threads) th.join();
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    const std::size_t k = 4 - t % 2;
    EXPECT_TRUE(bitwise_equal(h[t], model->drain_mean(k))) << t;
    EXPECT_TRUE(bitwise_equal(x[t], model->drain_second(k))) << t;
  }
}

}  // namespace
