#include "obs/counters.h"

#include <array>
#include <atomic>

namespace finwork::obs {

namespace {

constexpr std::size_t kNumCounters = static_cast<std::size_t>(Counter::kCount);
constexpr std::size_t kNumGauges = static_cast<std::size_t>(Gauge::kCount);

// Plain zero-initialized globals: trivially destructible, so recording from
// worker threads during static teardown can never touch a dead object.
std::array<std::atomic<std::uint64_t>, kNumCounters> g_counters{};
std::array<std::atomic<std::uint64_t>, kNumGauges> g_gauges{};

constexpr std::array<std::string_view, kNumCounters> kCounterNames = {
    "linalg.lu_factorizations",
    "solver.lu_reuse_hits",
    "solver.dense_solves",
    "solver.iterative_solves",
    "linalg.neumann_iterations",
    "linalg.bicgstab_iterations",
    "linalg.gmres_iterations",
    "solver.epoch_recursions",
    "solver.fast_forward_activations",
    "solver.epochs_skipped",
    "linalg.parallel_spmv_chunks",
    "state_space.levels_built",
    "state_space.states_enumerated",
    "linalg.kron_products",
    "pool.tasks_executed",
    "pool.task_wait_ns",
    "sim.replications",
    "check.invariant_checks",
    "check.invariant_violations",
    "trace.events_dropped",
    "cache.model_hits",
    "cache.model_misses",
    "cache.model_evictions",
    "solver.grid_points_per_pass",
    "linalg.condition_estimates",
    "solver.trajectory_reuses",
    "linalg.simd_sweeps",
};

constexpr std::array<std::string_view, kNumGauges> kGaugeNames = {
    "state_space.max_level_dimension",
    "pool.max_queue_depth",
};

}  // namespace

std::string_view counter_name(Counter c) noexcept {
  return kCounterNames[static_cast<std::size_t>(c)];
}

std::string_view gauge_name(Gauge g) noexcept {
  return kGaugeNames[static_cast<std::size_t>(g)];
}

void counter_add(Counter c, std::uint64_t v) noexcept {
  g_counters[static_cast<std::size_t>(c)].fetch_add(
      v, std::memory_order_relaxed);
}

void gauge_raise(Gauge g, std::uint64_t v) noexcept {
  std::atomic<std::uint64_t>& slot = g_gauges[static_cast<std::size_t>(g)];
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (cur < v &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::uint64_t counter_value(Counter c) noexcept {
  return g_counters[static_cast<std::size_t>(c)].load(
      std::memory_order_relaxed);
}

std::uint64_t gauge_value(Gauge g) noexcept {
  return g_gauges[static_cast<std::size_t>(g)].load(std::memory_order_relaxed);
}

std::vector<CounterSnapshot> counters_snapshot() {
  std::vector<CounterSnapshot> out;
  out.reserve(kNumCounters + kNumGauges);
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    out.push_back({std::string(kCounterNames[i]),
                   g_counters[i].load(std::memory_order_relaxed)});
  }
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    out.push_back({std::string(kGaugeNames[i]),
                   g_gauges[i].load(std::memory_order_relaxed)});
  }
  return out;
}

void counters_reset() noexcept {
  for (auto& c : g_counters) c.store(0, std::memory_order_relaxed);
  for (auto& g : g_gauges) g.store(0, std::memory_order_relaxed);
}

}  // namespace finwork::obs
