// Thread independence of the per-level actions: every CSR action on a level
// is the serial kernel, so a query returns the same bits whether it runs on
// the main thread or inside a pool task — also on levels big enough that a
// row-panel fan-out (and its reassociating merge) could pay off, for the
// makespan CDF, which steps its population blocks serially on the calling
// thread, and for the assembly of a large level, whose chunks of states fan
// out onto the pool only from a thread outside it.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/builders.h"
#include "cluster/experiments.h"
#include "core/transient_solver.h"
#include "network/state_space.h"
#include "obs/counters.h"
#include "parallel/thread_pool.h"

namespace {

using namespace finwork;

TEST(ThreadIndependence, EpochReliabilityBitwiseOnAnyThread) {
  cluster::ExperimentConfig cfg;
  cfg.architecture = cluster::Architecture::kDistributed;
  cfg.workstations = 6;
  cfg.shapes.remote_disk = cluster::ServiceShape::hyperexponential(10.0);
  const core::TransientSolver solver(cluster::build_cluster(cfg),
                                     cfg.workstations);
  constexpr std::size_t k = 6;
  // D(6) = 22 180 and nnz(P_6) = 187 491: well above 2^15 stored entries,
  // where a pooled SpMV would split P_6 into row panels.
  ASSERT_GE(solver.space().level(k).p.nnz(), std::size_t{1} << 15);
  const la::Vector p = solver.space().initial_vector(k);
  const double t_bar = solver.mean_epoch_time(k, p);

  const double main_thread = solver.epoch_reliability(k, p, t_bar);
  EXPECT_FALSE(par::ThreadPool::on_worker_thread());
  const double on_worker =
      par::ThreadPool::global()
          .submit([&] {
            EXPECT_TRUE(par::ThreadPool::on_worker_thread());
            return solver.epoch_reliability(k, p, t_bar);
          })
          .get();
  EXPECT_EQ(main_thread, on_worker);
  EXPECT_GT(main_thread, 0.0);
  EXPECT_LT(main_thread, 1.0);
}

TEST(ThreadIndependence, MakespanCdfBitwiseOnAnyThread) {
  // Central K = 5 with a C^2 = 4 remote disk at N = 12: 12 population
  // blocks, stepped in one serial descending pass per uniformization step
  // on whichever thread calls, so a worker reproduces the main thread.
  cluster::ExperimentConfig cfg;
  cfg.workstations = 5;
  cfg.shapes.remote_disk = cluster::ServiceShape::from_scv(4.0);
  const core::TransientSolver solver(cluster::build_cluster(cfg),
                                     cfg.workstations);
  constexpr std::size_t n = 12;
  const double mean = solver.makespan(n);
  const std::vector<double> times = {0.8 * mean, mean, 1.4 * mean};

  const std::vector<double> main_thread = solver.makespan_cdf(n, times);
  EXPECT_FALSE(par::ThreadPool::on_worker_thread());
  const std::vector<double> on_worker =
      par::ThreadPool::global()
          .submit([&] {
            EXPECT_TRUE(par::ThreadPool::on_worker_thread());
            return solver.makespan_cdf(n, times);
          })
          .get();
  ASSERT_EQ(main_thread.size(), times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_EQ(main_thread[i], on_worker[i]) << "t = " << times[i];
    EXPECT_GT(main_thread[i], 0.0);
    EXPECT_LT(main_thread[i], 1.0);
  }
}

TEST(ThreadIndependence, MakespanCdfDispatchesNoPoolTask) {
  // The same model and N as above, from the main thread: no solver query
  // dispatches to the pool, so the pool's task counter stays put.
  cluster::ExperimentConfig cfg;
  cfg.workstations = 5;
  cfg.shapes.remote_disk = cluster::ServiceShape::from_scv(4.0);
  const core::TransientSolver solver(cluster::build_cluster(cfg),
                                     cfg.workstations);
  constexpr std::size_t n = 12;
  const double mean = solver.makespan(n);  // builds every level first
  EXPECT_FALSE(par::ThreadPool::on_worker_thread());
  const std::uint64_t tasks_before =
      obs::counter_value(obs::Counter::kPoolTasksExecuted);
  const std::vector<double> cdf = solver.makespan_cdf(n, {mean, 1.4 * mean});
  EXPECT_EQ(obs::counter_value(obs::Counter::kPoolTasksExecuted),
            tasks_before);
  EXPECT_GT(cdf[0], 0.0);
  EXPECT_LT(cdf[1], 1.0);
}

bool same_bits(const la::CsrMatrix& a, const la::CsrMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         a.row_ptr() == b.row_ptr() && a.col_idx() == b.col_idx() &&
         a.values() == b.values();
}

TEST(ThreadIndependence, LevelAssemblyBitwiseOnAnyThread) {
  // Distributed K = 5 with a C^2 = 10 remote disk and an H2 CPU: level 5
  // has D(5) = 5908 states.  A level builds in one serial pass on the
  // calling thread, on the main thread as on a pool worker.
  cluster::ExperimentConfig cfg;
  cfg.architecture = cluster::Architecture::kDistributed;
  cfg.workstations = 5;
  cfg.shapes.remote_disk = cluster::ServiceShape::from_scv(10.0);
  cfg.shapes.cpu = cluster::ServiceShape::hyperexponential(2.0);
  const net::NetworkSpec spec = cluster::build_cluster(cfg);
  constexpr std::size_t k = 5;
  const net::StateSpace on_main(spec, k);
  const net::StateSpace on_pool(spec, k);
  ASSERT_EQ(on_main.dimension(k), 5908u);

  EXPECT_FALSE(par::ThreadPool::on_worker_thread());
  const std::uint64_t tasks_before =
      obs::counter_value(obs::Counter::kPoolTasksExecuted);
  const net::LevelMatrices& a = on_main.level(k);
  // The main-thread build ran no pool task.
  EXPECT_EQ(obs::counter_value(obs::Counter::kPoolTasksExecuted),
            tasks_before);
  const net::LevelMatrices& b =
      *par::ThreadPool::global()
           .submit([&] {
             EXPECT_TRUE(par::ThreadPool::on_worker_thread());
             return &on_pool.level(k);
           })
           .get();

  EXPECT_EQ(a.event_rates.size(), b.event_rates.size());
  for (std::size_t i = 0; i < a.event_rates.size(); ++i) {
    ASSERT_EQ(a.event_rates[i], b.event_rates[i]) << "state " << i;
  }
  EXPECT_EQ(a.max_event_rate, b.max_event_rate);
  EXPECT_TRUE(same_bits(a.p, b.p));
  EXPECT_TRUE(same_bits(a.q, b.q));
  EXPECT_TRUE(same_bits(a.r, b.r));
  EXPECT_GT(a.p.nnz(), 0u);
}

}  // namespace
