// Microbenchmarks of the solver kernels: state-space enumeration, level
// matrix assembly, LU factorization (dense input and sparse levels) and its
// column and row solves, the Neumann level solve, epoch propagation,
// steady-state iteration, matrix exponential, PH sampling and one simulator
// replication.

#include <benchmark/benchmark.h>

#include "perf_record_main.h"

#include "cluster/experiments.h"
#include "core/transient_solver.h"
#include "linalg/expm.h"
#include "linalg/iterative.h"
#include "linalg/lu.h"
#include "linalg/sparse.h"
#include "pf/product_form.h"
#include "ph/fitting.h"
#include "sim/simulator.h"

namespace {

using namespace finwork;

cluster::ExperimentConfig central_h2(std::size_t k) {
  cluster::ExperimentConfig cfg;
  cfg.architecture = cluster::Architecture::kCentral;
  cfg.workstations = k;
  cfg.shapes.remote_disk = cluster::ServiceShape::hyperexponential(10.0);
  return cfg;
}

void BM_StateSpaceEnumeration(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const net::NetworkSpec spec = cluster::build_cluster(central_h2(k));
  for (auto _ : state) {
    net::StateSpace space(spec, k);
    benchmark::DoNotOptimize(space.dimension(k));
  }
  state.counters["states"] =
      static_cast<double>(net::StateSpace(spec, k).dimension(k));
}
BENCHMARK(BM_StateSpaceEnumeration)->Arg(4)->Arg(8)->Arg(12);

void BM_LevelMatrixAssembly(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const net::NetworkSpec spec = cluster::build_cluster(central_h2(k));
  for (auto _ : state) {
    net::StateSpace space(spec, k);
    benchmark::DoNotOptimize(space.level(k).p.nnz());
  }
}
BENCHMARK(BM_LevelMatrixAssembly)->Arg(4)->Arg(8)->Arg(12);

// Enumeration and every level of one benchmark model: all the state-space
// work a model does before its first solve.
void BM_LevelMatrixAssembly(benchmark::State& state,
                            const cluster::ExperimentConfig& cfg) {
  const net::NetworkSpec spec = cluster::build_cluster(cfg);
  const std::size_t k = cfg.workstations;
  std::size_t nnz = 0;
  for (auto _ : state) {
    net::StateSpace space(spec, k);
    nnz = 0;
    for (std::size_t j = 1; j <= k; ++j) nnz += space.level(j).p.nnz();
    benchmark::DoNotOptimize(nnz);
  }
  state.counters["nnz_p"] = static_cast<double>(nnz);
}

/// I - P_k of the top level of the central H2 cluster with k workstations.
la::Matrix top_level_operator(const net::StateSpace& space, std::size_t k) {
  la::Matrix a = space.level(k).p.to_dense();
  a *= -1.0;
  for (std::size_t i = 0; i < a.rows(); ++i) a(i, i) += 1.0;
  return a;
}

void BM_DenseLuFactorTopLevel(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const net::StateSpace space(cluster::build_cluster(central_h2(k)), k);
  const la::Matrix a = top_level_operator(space, k);
  for (auto _ : state) {
    la::LuDecomposition lu(a);
    benchmark::DoNotOptimize(lu.determinant());
  }
  state.counters["dim"] = static_cast<double>(a.rows());
}
BENCHMARK(BM_DenseLuFactorTopLevel)->Arg(8)->Arg(12);

// The two sweeps against the factor BM_DenseLuFactorTopLevel builds: a
// column solve (I - P_K) x = eps and a row solve x (I - P_K) = p_K.  Each
// walks the stored entries of L and U once.
void BM_DenseLuSolveTopLevel(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const net::StateSpace space(cluster::build_cluster(central_h2(k)), k);
  const la::LuDecomposition lu(top_level_operator(space, k));
  const la::Vector eps = la::ones(lu.dim());
  for (auto _ : state) {
    benchmark::DoNotOptimize(lu.solve(eps).data());
  }
  state.counters["dim"] = static_cast<double>(lu.dim());
  state.counters["stored_entries"] = static_cast<double>(lu.stored_entries());
}
BENCHMARK(BM_DenseLuSolveTopLevel)
    ->Arg(8)
    ->Arg(12)
    ->Unit(benchmark::kMicrosecond);

void BM_DenseLuSolveLeftTopLevel(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const net::StateSpace space(cluster::build_cluster(central_h2(k)), k);
  const la::LuDecomposition lu(top_level_operator(space, k));
  const la::Vector pi = space.initial_vector(k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lu.solve_left(pi).data());
  }
  state.counters["dim"] = static_cast<double>(lu.dim());
  state.counters["stored_entries"] = static_cast<double>(lu.stored_entries());
}
BENCHMARK(BM_DenseLuSolveLeftTopLevel)
    ->Arg(8)
    ->Arg(12)
    ->Unit(benchmark::kMicrosecond);

// One row solve x (I - P_4) = pi against a prebuilt factorization: level 4
// of the Figure 6 C^2 = 10 model (distributed K = 5, D = 1375), the dense
// solve each of its saturated epochs makes.
void BM_LuSolveLeft(benchmark::State& state) {
  cluster::ExperimentConfig cfg;
  cfg.architecture = cluster::Architecture::kDistributed;
  cfg.workstations = 5;
  cfg.shapes.remote_disk = cluster::ServiceShape::from_scv(10.0);
  const net::StateSpace space(cluster::build_cluster(cfg), 5);
  la::Matrix a = space.level(4).p.to_dense();
  a *= -1.0;
  for (std::size_t i = 0; i < a.rows(); ++i) a(i, i) += 1.0;
  const la::LuDecomposition lu(a);
  const la::Vector pi = space.initial_vector(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lu.solve_left(pi).data());
  }
  state.counters["dim"] = static_cast<double>(a.rows());
}
BENCHMARK(BM_LuSolveLeft)->Unit(benchmark::kMicrosecond);

// One sparse factorization of I - P_k, assembled from the CSR level as the
// model cache assembles it: Figure 6 C^2 = 10 level 4 (distributed K = 5,
// D = 1375), level 5 of the `large_n` model (distributed K = 6, D = 1287)
// and Figure 10's H2 CPU level 5 (coarse-grained, D = 1287, the most fill).
void BM_LuFactorLevel(benchmark::State& state, cluster::ExperimentConfig cfg,
                      std::size_t level) {
  const net::StateSpace space(cluster::build_cluster(cfg), cfg.workstations);
  const la::CsrMatrix a =
      la::CsrMatrix::identity_minus(space.level(level).p);
  for (auto _ : state) {
    la::LuDecomposition lu(a);
    benchmark::DoNotOptimize(lu.determinant());
  }
  state.counters["dim"] = static_cast<double>(a.rows());
  state.counters["stored_entries"] =
      static_cast<double>(la::LuDecomposition(a).stored_entries());
}

cluster::ExperimentConfig distributed(std::size_t k) {
  cluster::ExperimentConfig cfg;
  cfg.architecture = cluster::Architecture::kDistributed;
  cfg.workstations = k;
  return cfg;
}

cluster::ExperimentConfig distributed_scv10(std::size_t k) {
  cluster::ExperimentConfig cfg = distributed(k);
  cfg.shapes.remote_disk = cluster::ServiceShape::from_scv(10.0);
  return cfg;
}

cluster::ExperimentConfig fig06_scv10() { return distributed_scv10(5); }

cluster::ExperimentConfig fig10_h2() {
  cluster::ExperimentConfig cfg = distributed(5);
  cfg.app = cluster::ApplicationModel::coarse_grained();
  cfg.shapes.cpu = cluster::ServiceShape::hyperexponential(2.0);
  return cfg;
}

BENCHMARK_CAPTURE(BM_LevelMatrixAssembly, fig06_scv10, fig06_scv10());
BENCHMARK_CAPTURE(BM_LevelMatrixAssembly, large_n, distributed(6));
// Level 6 holds 22 180 states, the largest level assembled on the kernel
// bench.
BENCHMARK_CAPTURE(BM_LevelMatrixAssembly, dist6_scv10, distributed_scv10(6))
    ->Unit(benchmark::kMillisecond);

BENCHMARK_CAPTURE(BM_LuFactorLevel, fig06_l4, fig06_scv10(), 4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_LuFactorLevel, large_n_l5, distributed(6), 5)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_LuFactorLevel, fig10_h2_l5, fig10_h2(), 5)
    ->Unit(benchmark::kMillisecond);

/// The state space of the `large_n` model, the distributed K = 6 cluster,
/// whose level 6 (D = 3003) is above the dense threshold.
net::StateSpace distributed_k6_space() {
  cluster::ExperimentConfig cfg;
  cfg.architecture = cluster::Architecture::kDistributed;
  cfg.workstations = 6;
  return net::StateSpace(cluster::build_cluster(cfg), 6);
}

// One cold Neumann level solve on level 6 of the distributed K = 6 cluster:
// the row solve pi (I - P_6)^-1 runs the kernel over the grouped gather
// operator of P_6^T (`left`), the column solve (I - P_6)^-1 M_6^-1 eps over
// that of P_6 itself (`right`).  Both run the host's sweep kernel; the
// `_portable` variants run the portable sweep on the same layout, so the
// pair of benches times the AVX-512 kernel against its fallback.
void BM_NeumannLevelSolve(benchmark::State& state, bool left, bool portable) {
  const net::StateSpace space = distributed_k6_space();
  const net::LevelMatrices& lm = space.level(6);
  const la::GatherMatrix a =
      left ? la::GatherMatrix::transpose_of(lm.p) : la::GatherMatrix(lm.p);
  la::Vector b = space.initial_vector(6);
  if (!left) {
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = 1.0 / lm.event_rates[i];
  }
  const la::detail::SweepKernel kernel =
      portable ? la::detail::SweepKernel::kPortable
               : la::detail::host_sweep_kernel();
  double iterations = 0.0;
  for (auto _ : state) {
    const la::IterativeResult res =
        la::detail::neumann_solve(a, b, 1e-12, 20000, kernel);
    iterations = static_cast<double>(res.iterations);
    benchmark::DoNotOptimize(res.x.data());
  }
  state.counters["dim"] = static_cast<double>(a.rows());
  state.counters["iterations_per_solve"] = iterations;
}
BENCHMARK_CAPTURE(BM_NeumannLevelSolve, left, true, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_NeumannLevelSolve, right, false, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_NeumannLevelSolve, left_portable, true, true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_NeumannLevelSolve, right_portable, false, true)
    ->Unit(benchmark::kMillisecond);

// One column action y = P_6 x on the same level: the CSR row loop
// (CsrMatrix::apply) against the grouped gather operator, same bits.
void BM_GatherApply(benchmark::State& state, bool grouped) {
  const net::StateSpace space = distributed_k6_space();
  const la::CsrMatrix& p = space.level(6).p;
  const la::GatherMatrix g(p);
  la::Vector x(p.cols());
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 1.0 / (1.0 + static_cast<double>(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize((grouped ? g.apply(x) : p.apply(x)).data());
  }
  state.counters["dim"] = static_cast<double>(p.rows());
  state.counters["nnz"] = static_cast<double>(p.nnz());
}
BENCHMARK_CAPTURE(BM_GatherApply, csr, false)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_GatherApply, grouped, true)
    ->Unit(benchmark::kMicrosecond);

void BM_EpochStep(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const core::TransientSolver solver(cluster::build_cluster(central_h2(k)), k);
  la::Vector pi = solver.initial_vector();
  for (auto _ : state) {
    pi = solver.apply_r(k, solver.apply_y(k, pi));
    benchmark::DoNotOptimize(pi.data());
  }
}
BENCHMARK(BM_EpochStep)->Arg(5)->Arg(8);

void BM_FullTimelineN30(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const core::TransientSolver solver(cluster::build_cluster(central_h2(k)), k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(30).makespan);
  }
}
BENCHMARK(BM_FullTimelineN30)->Arg(5)->Arg(8);

// One steady-state query on a fresh solver: the bordered Krylov solve of
// the jump chain P_K + Q_K R_K, after the level is prepared.
void BM_SteadyStateSolve(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const net::NetworkSpec spec = cluster::build_cluster(central_h2(k));
  for (auto _ : state) {
    core::TransientSolver solver(spec, k);
    benchmark::DoNotOptimize(solver.steady_state().interdeparture);
  }
}
BENCHMARK(BM_SteadyStateSolve)->Arg(5)->Arg(8);

void BM_MatrixExponential(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  // A stable sub-generator-like matrix.
  la::Matrix a(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = -2.0;
    a(i, (i + 1) % n) = 1.5;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::expm(a).trace());
  }
}
BENCHMARK(BM_MatrixExponential)->Arg(8)->Arg(32)->Arg(128);

void BM_PhSampling(benchmark::State& state) {
  const ph::PhaseType h = ph::hyperexponential_balanced(1.0, 25.0);
  rng::Xoshiro256 g(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.sample(g));
  }
}
BENCHMARK(BM_PhSampling);

void BM_SimulatorReplication(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const net::NetworkSpec spec = cluster::build_cluster(central_h2(k));
  const sim::NetworkSimulator simulator(spec, k);
  rng::Xoshiro256 g(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.run_once(30, g).back());
  }
}
BENCHMARK(BM_SimulatorReplication)->Arg(5)->Arg(8);

void BM_BuzenConvolution(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  cluster::ApplicationModel app;
  // Size the cluster so the dedicated banks stay ample at every population.
  const net::NetworkSpec spec = cluster::central_cluster(512, app);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pf::convolution(spec, n).system_throughput);
  }
}
BENCHMARK(BM_BuzenConvolution)->Arg(8)->Arg(64)->Arg(512);

void BM_ExactMva(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  cluster::ApplicationModel app;
  const net::NetworkSpec spec = cluster::central_cluster(512, app);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pf::exact_mva(spec, n).system_throughput);
  }
}
BENCHMARK(BM_ExactMva)->Arg(8)->Arg(64)->Arg(512);


void BM_SerialMatmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  la::Matrix a(n, n, 0.5), b(n, n, 0.25);
  for (auto _ : state) {
    benchmark::DoNotOptimize((a * b).data());
  }
}
BENCHMARK(BM_SerialMatmul)->Arg(128)->Arg(384);

}  // namespace

FINWORK_PERF_RECORD_MAIN("kernels")

