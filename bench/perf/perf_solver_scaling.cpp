// Scaling study: transient-solver cost versus cluster size and architecture,
// and the dense-LU versus matrix-free iterative path on the same network.
// This is the ablation DESIGN.md calls out for the solver-backend choice.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>

#include "perf_record_main.h"

#include "cluster/experiments.h"
#include "core/metrics.h"
#include "core/model_cache.h"
#include "core/transient_solver.h"
#include "obs/counters.h"

namespace {

using namespace finwork;

cluster::ExperimentConfig config(cluster::Architecture arch, std::size_t k,
                                 double remote_scv) {
  cluster::ExperimentConfig cfg;
  cfg.architecture = arch;
  cfg.workstations = k;
  if (remote_scv != 1.0) {
    cfg.shapes.remote_disk = cluster::ServiceShape::from_scv(remote_scv);
  }
  return cfg;
}

void BM_CentralMakespanVsK(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto cfg = config(cluster::Architecture::kCentral, k, 10.0);
  const net::NetworkSpec spec = cluster::build_cluster(cfg);
  for (auto _ : state) {
    core::TransientSolver solver(spec, k);
    benchmark::DoNotOptimize(solver.makespan(30));
  }
  state.counters["states"] =
      static_cast<double>(net::StateSpace(spec, k).dimension(k));
}
BENCHMARK(BM_CentralMakespanVsK)->DenseRange(2, 12, 2)
    ->Unit(benchmark::kMillisecond);

void BM_DistributedMakespanVsK(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto cfg = config(cluster::Architecture::kDistributed, k, 1.0);
  const net::NetworkSpec spec = cluster::build_cluster(cfg);
  for (auto _ : state) {
    core::TransientSolver solver(spec, k);
    benchmark::DoNotOptimize(solver.makespan(2 * k));
  }
  state.counters["states"] =
      static_cast<double>(net::StateSpace(spec, k).dimension(k));
}
BENCHMARK(BM_DistributedMakespanVsK)->DenseRange(2, 7, 1)
    ->Unit(benchmark::kMillisecond);

void BM_DenseBackend(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto cfg = config(cluster::Architecture::kDistributed, k, 4.0);
  const net::NetworkSpec spec = cluster::build_cluster(cfg);
  core::ModelOptions opts;  // defaults choose dense below the threshold
  for (auto _ : state) {
    core::TransientSolver solver(spec, k, opts);
    benchmark::DoNotOptimize(solver.makespan(2 * k));
  }
}
BENCHMARK(BM_DenseBackend)->Arg(3)->Arg(5)->Unit(benchmark::kMillisecond);

// Saturated-phase cost versus workload size N on a fixed K=6 distributed
// cluster.  D(6) = 3003 is just above dense_threshold = 3000, so the level-6
// solves take the iterative path (the Neumann gather kernel), not dense LU.
// With the quasi-steady-state fast-forward the curve must go near-flat once
// N exceeds the mixing time; without it the cost is linear in N.  The model
// is built once and each iteration runs a fresh solver over it (a
// shared_ptr copy), so every iteration times the epoch recursion itself,
// not the solver's saturated memo.
const std::shared_ptr<const core::ModelArtifacts>& saturated_model() {
  static const std::shared_ptr<const core::ModelArtifacts> model =
      std::make_shared<const core::ModelArtifacts>(
          cluster::build_cluster(
              config(cluster::Architecture::kDistributed, 6, 1.0)),
          6, core::ModelOptions{});
  return model;
}

void BM_SaturatedPhaseVsN(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto& model = saturated_model();
  for (auto _ : state) {
    const core::TransientSolver solver(model);
    benchmark::DoNotOptimize(solver.makespan(n));
  }
  state.counters["tasks"] = static_cast<double>(n);
}
BENCHMARK(BM_SaturatedPhaseVsN)
    ->RangeMultiplier(10)
    ->Range(100, 1000000)
    ->Unit(benchmark::kMillisecond);

// The same queries on one solver whose saturated memo a first, untimed
// query filled: each iteration is a memo read (O(1) past mixing), with no
// level solve.
void BM_SaturatedPhaseMemoHit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const core::TransientSolver solver(saturated_model());
  (void)solver.makespan(1000000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.makespan(n));
  }
  state.counters["tasks"] = static_cast<double>(n);
}
BENCHMARK(BM_SaturatedPhaseMemoHit)
    ->RangeMultiplier(10)
    ->Range(100, 1000000)
    ->Unit(benchmark::kNanosecond);

// The moments pass behind makespan_moments: a fresh solver over the shared
// K = 6 model (levels prepared by an untimed first call) runs the
// admission loop to N = 10^5, which closes by fast-forward.  Every level-6
// column solve is iterative and warm-started from the trajectory, so the
// Neumann terms per pass are the hardware-independent cost.
void BM_MomentsPass(benchmark::State& state) {
  const auto& model = saturated_model();
  (void)model->drain_second(6);
  const std::uint64_t before =
      obs::counter_value(obs::Counter::kNeumannIterations);
  for (auto _ : state) {
    const core::TransientSolver solver(model);
    benchmark::DoNotOptimize(solver.makespan_moments(100000).variance);
  }
  state.counters["neumann_iterations"] =
      static_cast<double>(
          obs::counter_value(obs::Counter::kNeumannIterations) - before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_MomentsPass)->Unit(benchmark::kMillisecond);

// Figure-scale sweep throughput: the prediction-error family (3 C^2 values
// x 3 workloads) through the content-addressed model cache and the
// single-pass N grid, versus the per-point baseline below that rebuilds
// both solvers for every grid point.  The global cache is cleared inside
// the timed region, so each iteration pays the true cold-sweep cost:
// O(distinct models x one pass) against the baseline's
// O(points x build+solve).
const std::vector<double>& sweep_scvs() {
  static const std::vector<double> v{0.5, 4.0, 10.0};
  return v;
}
const std::vector<std::size_t>& sweep_tasks() {
  static const std::vector<std::size_t> v{100, 1000, 10000};
  return v;
}

void BM_FigureSweep(benchmark::State& state) {
  const auto base = config(cluster::Architecture::kCentral, 10, 1.0);
  const std::uint64_t misses_before =
      obs::counter_value(obs::Counter::kModelCacheMisses);
  for (auto _ : state) {
    // The clear forces every iteration to pay the cold-sweep cost; the
    // flush itself (and freeing the previous iteration's artifacts) is
    // measurement scaffolding, not sweep work, so it stays untimed.
    state.PauseTiming();
    core::ModelCache::global().clear();
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        cluster::prediction_error_vs_scv(base, sweep_scvs(), sweep_tasks()));
  }
  // Distinct models per cold sweep: one per C^2 plus ONE shared
  // exponentialized comparison model (identical across the whole sweep).
  state.counters["model_misses_per_sweep"] =
      static_cast<double>(obs::counter_value(
          obs::Counter::kModelCacheMisses) -
                          misses_before) /
      static_cast<double>(state.iterations());
  state.counters["grid_points"] =
      static_cast<double>(sweep_scvs().size() * sweep_tasks().size());
}
BENCHMARK(BM_FigureSweep)->Unit(benchmark::kMillisecond);

void BM_FigureSweepBaseline(benchmark::State& state) {
  // The pre-cache shape of the sweep: every grid point constructs the
  // actual AND the exponentialized solver from scratch and runs its own
  // full recursion.
  const auto base = config(cluster::Architecture::kCentral, 10, 1.0);
  for (auto _ : state) {
    double acc = 0.0;
    for (double scv : sweep_scvs()) {
      for (std::size_t n : sweep_tasks()) {
        cluster::ExperimentConfig cfg = base;
        cfg.shapes.remote_disk = cluster::ServiceShape::from_scv(scv);
        const net::NetworkSpec spec = cluster::build_cluster(cfg);
        const core::TransientSolver actual(spec, cfg.workstations);
        const core::TransientSolver expo(spec.exponentialized(),
                                         cfg.workstations);
        acc += core::prediction_error_percent(actual.makespan(n),
                                              expo.makespan(n));
      }
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_FigureSweepBaseline)->Unit(benchmark::kMillisecond);

void BM_IterativeBackend(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto cfg = config(cluster::Architecture::kDistributed, k, 4.0);
  const net::NetworkSpec spec = cluster::build_cluster(cfg);
  core::ModelOptions opts;
  opts.dense_threshold = 0;  // force the matrix-free sparse path
  for (auto _ : state) {
    core::TransientSolver solver(spec, k, opts);
    benchmark::DoNotOptimize(solver.makespan(2 * k));
  }
}
BENCHMARK(BM_IterativeBackend)->Arg(3)->Arg(5)->Unit(benchmark::kMillisecond);

}  // namespace

FINWORK_PERF_RECORD_MAIN("solver")
