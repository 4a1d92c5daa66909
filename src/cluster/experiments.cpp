#include "cluster/experiments.h"

#include <array>
#include <stdexcept>
#include <utility>

#include "core/metrics.h"
#include "core/model_cache.h"
#include "parallel/thread_pool.h"

namespace finwork::cluster {

net::NetworkSpec build_cluster(const ExperimentConfig& config) {
  switch (config.architecture) {
    case Architecture::kCentral:
      return central_cluster(config.workstations, config.app, config.shapes,
                             config.contention);
    case Architecture::kDistributed:
      return distributed_cluster(config.workstations, config.app,
                                 config.shapes, {}, config.contention);
  }
  throw std::logic_error("build_cluster: unknown architecture");
}

double cluster_makespan(const ExperimentConfig& config, std::size_t tasks) {
  return cluster_makespan_grid(config, {&tasks, 1})[0];
}

std::vector<double> cluster_makespan_grid(const ExperimentConfig& config,
                                          std::span<const std::size_t> tasks) {
  const core::TransientSolver solver(core::ModelCache::global().acquire(
      build_cluster(config), config.workstations));
  return solver.makespan_grid(tasks);
}

double cluster_speedup(const ExperimentConfig& config, std::size_t tasks) {
  return core::speedup(tasks, config.app.task_mean_time(),
                       cluster_makespan(config, tasks));
}

double cluster_prediction_error(const ExperimentConfig& config,
                                std::size_t tasks) {
  return cluster_prediction_error_grid(config, {&tasks, 1})[0];
}

std::vector<double> cluster_prediction_error_grid(
    const ExperimentConfig& config, std::span<const std::size_t> tasks) {
  const net::NetworkSpec actual = build_cluster(config);
  const core::TransientSolver actual_solver(
      core::ModelCache::global().acquire(actual, config.workstations));
  const core::TransientSolver exp_solver(core::ModelCache::global().acquire(
      actual.exponentialized(), config.workstations));
  const std::vector<double> actual_et = actual_solver.makespan_grid(tasks);
  const std::vector<double> exp_et = exp_solver.makespan_grid(tasks);
  std::vector<double> errors(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    errors[i] = core::prediction_error_percent(actual_et[i], exp_et[i]);
  }
  return errors;
}

io::Table interdeparture_series(const ExperimentConfig& base,
                                const std::vector<ShapeVariant>& variants,
                                std::size_t tasks) {
  std::vector<std::string> headers{"task_order"};
  for (const ShapeVariant& v : variants) headers.push_back(v.label);
  io::Table table(std::move(headers));

  std::vector<core::DepartureTimeline> timelines(variants.size());
  par::parallel_for(0, variants.size(), [&](std::size_t i) {
    ExperimentConfig config = base;
    config.shapes = variants[i].shapes;
    const core::TransientSolver solver(core::ModelCache::global().acquire(
        build_cluster(config), config.workstations));
    timelines[i] = solver.solve(tasks);
  });

  for (std::size_t t = 0; t < tasks; ++t) {
    std::vector<double> row{static_cast<double>(t + 1)};
    for (const core::DepartureTimeline& tl : timelines) {
      row.push_back(tl.epoch_times[t]);
    }
    table.add_row(row);
  }
  return table;
}

io::Table steady_state_vs_scv(const ExperimentConfig& base,
                              const std::vector<double>& scv_values) {
  io::Table table({"C2", "t_ss_contention", "t_ss_no_contention"});
  std::vector<std::array<double, 2>> rows(scv_values.size());
  par::parallel_for(0, scv_values.size(), [&](std::size_t i) {
    for (int variant = 0; variant < 2; ++variant) {
      ExperimentConfig config = base;
      config.shapes.remote_disk = ServiceShape::from_scv(scv_values[i]);
      config.contention =
          variant == 0 ? Contention::kShared : Contention::kNone;
      const core::TransientSolver solver(core::ModelCache::global().acquire(
          build_cluster(config), config.workstations));
      rows[i][variant] = solver.steady_state().interdeparture;
    }
  });
  for (std::size_t i = 0; i < scv_values.size(); ++i) {
    table.add_row({scv_values[i], rows[i][0], rows[i][1]});
  }
  return table;
}

namespace {

enum class ScvMetric { kPredictionError, kSpeedup };

/// Shared sweep scaffold for the "metric vs C2 per N" figure families.
/// Each C^2 value is one or two distinct models (built once through the
/// cache and shared with every other point needing them) and the whole N
/// grid of a model is harvested from a single recursion pass, so the sweep
/// costs O(distinct models x one pass) instead of O(points x build+solve).
io::Table metric_vs_scv(const ExperimentConfig& base,
                        const std::vector<double>& scv_values,
                        const std::vector<std::size_t>& task_counts,
                        const std::string& metric_name, bool cpu_shape,
                        ScvMetric metric) {
  std::vector<std::string> headers{"C2"};
  for (std::size_t n : task_counts) {
    headers.push_back(metric_name + "_N" + std::to_string(n));
  }
  io::Table table(std::move(headers));

  // exponentialized() erases the swept shape (only the means survive), so
  // every C^2 row compares against the SAME model — build it and harvest its
  // N grid once, outside the row fan-out, instead of once per row.
  std::vector<double> exponential_et;
  if (metric == ScvMetric::kPredictionError) {
    const core::TransientSolver expo(core::ModelCache::global().acquire(
        build_cluster(base).exponentialized(), base.workstations));
    exponential_et = expo.makespan_grid(task_counts);
  }

  std::vector<std::vector<double>> values(scv_values.size());
  par::parallel_for(0, scv_values.size(), [&](std::size_t i) {
    ExperimentConfig config = base;
    if (cpu_shape) {
      config.shapes.cpu = ServiceShape::from_scv(scv_values[i]);
    } else {
      config.shapes.remote_disk = ServiceShape::from_scv(scv_values[i]);
    }
    values[i] = cluster_makespan_grid(config, task_counts);
    for (std::size_t jn = 0; jn < task_counts.size(); ++jn) {
      double& v = values[i][jn];
      v = metric == ScvMetric::kPredictionError
              ? core::prediction_error_percent(v, exponential_et[jn])
              : core::speedup(task_counts[jn], config.app.task_mean_time(), v);
    }
  });

  for (std::size_t i = 0; i < scv_values.size(); ++i) {
    std::vector<double> row{scv_values[i]};
    for (std::size_t jn = 0; jn < task_counts.size(); ++jn) {
      row.push_back(values[i][jn]);
    }
    table.add_row(row);
  }
  return table;
}

}  // namespace

io::Table prediction_error_vs_scv(const ExperimentConfig& base,
                                  const std::vector<double>& scv_values,
                                  const std::vector<std::size_t>& task_counts) {
  return metric_vs_scv(base, scv_values, task_counts, "E%", false,
                       ScvMetric::kPredictionError);
}

io::Table speedup_vs_scv(const ExperimentConfig& base,
                         const std::vector<double>& scv_values,
                         const std::vector<std::size_t>& task_counts) {
  return metric_vs_scv(base, scv_values, task_counts, "SP", false,
                       ScvMetric::kSpeedup);
}

io::Table prediction_error_vs_cpu_scv(
    const ExperimentConfig& base, const std::vector<double>& scv_values,
    const std::vector<std::size_t>& task_counts) {
  return metric_vs_scv(base, scv_values, task_counts, "E%", true,
                       ScvMetric::kPredictionError);
}

io::Table speedup_vs_k(const ExperimentConfig& base,
                       const std::vector<std::size_t>& k_values,
                       const std::vector<std::size_t>& task_counts) {
  std::vector<std::string> headers{"K"};
  for (std::size_t n : task_counts) headers.push_back("SP_N" + std::to_string(n));
  io::Table table(std::move(headers));

  // One model per K; its whole N grid comes from a single pass.
  std::vector<std::vector<double>> values(k_values.size());
  par::parallel_for(0, k_values.size(), [&](std::size_t i) {
    ExperimentConfig config = base;
    config.workstations = k_values[i];
    values[i] = cluster_makespan_grid(config, task_counts);
    for (std::size_t jn = 0; jn < task_counts.size(); ++jn) {
      values[i][jn] = core::speedup(task_counts[jn],
                                    config.app.task_mean_time(), values[i][jn]);
    }
  });

  for (std::size_t i = 0; i < k_values.size(); ++i) {
    std::vector<double> row{static_cast<double>(k_values[i])};
    for (std::size_t jn = 0; jn < task_counts.size(); ++jn) {
      row.push_back(values[i][jn]);
    }
    table.add_row(row);
  }
  return table;
}

io::Table speedup_vs_k_shapes(const ExperimentConfig& base,
                              const std::vector<std::size_t>& k_values,
                              const std::vector<ShapeVariant>& variants,
                              std::size_t tasks) {
  std::vector<std::string> headers{"K"};
  for (const ShapeVariant& v : variants) headers.push_back("SP_" + v.label);
  io::Table table(std::move(headers));

  const std::size_t points = k_values.size() * variants.size();
  std::vector<double> values(points);
  par::parallel_for(0, points, [&](std::size_t p) {
    const std::size_t i = p / variants.size();
    const std::size_t jv = p % variants.size();
    ExperimentConfig config = base;
    config.workstations = k_values[i];
    config.shapes = variants[jv].shapes;
    values[p] = cluster_speedup(config, tasks);
  });

  for (std::size_t i = 0; i < k_values.size(); ++i) {
    std::vector<double> row{static_cast<double>(k_values[i])};
    for (std::size_t jv = 0; jv < variants.size(); ++jv) {
      row.push_back(values[i * variants.size() + jv]);
    }
    table.add_row(row);
  }
  return table;
}

}  // namespace finwork::cluster
