#include "core/approximation.h"

#include <algorithm>
#include <stdexcept>

#include "core/model_cache.h"
#include "pf/product_form.h"

namespace finwork::core {

ApproximateMakespan approximate_makespan(const TransientSolver& solver,
                                         std::size_t tasks,
                                         const ApproximationOptions& options) {
  if (tasks == 0) {
    throw std::invalid_argument("approximate_makespan: need >= 1 task");
  }
  const std::size_t k = solver.workstations();
  const std::size_t top = std::min(tasks, k);
  ApproximateMakespan result;

  if (top < k || tasks == top) {
    // Pure draining (N <= K): the exact recursion is already O(K); no
    // approximation needed or possible.
    const DepartureTimeline tl = solver.solve(tasks);
    result.makespan = result.warmup_time = tl.makespan;
    result.exact_epochs = tl.epoch_times.size();
    return result;
  }

  const std::size_t saturated_epochs = tasks - k + 1;
  const std::size_t warmup = std::min(options.warmup_epochs, saturated_epochs);

  // Exact leading epochs.
  la::Vector pi = solver.initial_vector();
  for (std::size_t i = 0; i < warmup; ++i) {
    result.warmup_time += solver.mean_epoch_time(k, pi);
    if (i + 1 < saturated_epochs) {
      pi = solver.apply_r(k, solver.apply_y(k, pi));
    }
  }
  result.exact_epochs = warmup;

  // Bulk epochs at the steady-state rate.
  const SteadyStateResult& ss = solver.steady_state();
  result.saturated_time =
      static_cast<double>(saturated_epochs - warmup) * ss.interdeparture;

  // Drain from the steady-state distribution — or from the true state when
  // the warmup already covered every saturated epoch (then the result is
  // exact): the mean drain time from level K-1 is pi Y_K h_{K-1}, with h the
  // model's cached drain vector (model_cache.h).
  if (k > 1) {
    const la::Vector& start =
        warmup == saturated_epochs ? pi : ss.distribution;
    result.draining_time =
        la::dot(solver.apply_y(k, start), solver.model()->drain_mean(k - 1));
  }

  result.makespan =
      result.warmup_time + result.saturated_time + result.draining_time;
  return result;
}

double product_form_makespan_estimate(const net::NetworkSpec& spec,
                                      std::size_t workstations,
                                      std::size_t tasks) {
  if (tasks == 0) {
    throw std::invalid_argument(
        "product_form_makespan_estimate: need >= 1 task");
  }
  const net::NetworkSpec expo = spec.exponentialized();
  const std::size_t top = std::min(tasks, workstations);
  // Saturated bulk at the population-K product-form rate.
  double total = 0.0;
  if (tasks > top) {
    total += static_cast<double>(tasks - top) *
             pf::convolution(expo, top).cycle_time;
  }
  // Draining: one departure at each population level's own rate.
  for (std::size_t level = top; level >= 1; --level) {
    total += pf::convolution(expo, level).cycle_time;
  }
  return total;
}

}  // namespace finwork::core
