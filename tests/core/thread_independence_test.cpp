// Thread independence of the per-level actions: every CSR action on a level
// is the serial kernel, so a query returns the same bits whether it runs on
// the main thread or inside a pool task — also on levels big enough that a
// row-panel fan-out (and its reassociating merge) could pay off.

#include <gtest/gtest.h>

#include <cstddef>

#include "cluster/builders.h"
#include "cluster/experiments.h"
#include "core/transient_solver.h"
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

}  // namespace
