#include "cluster/config.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/metrics.h"
#include "core/model_cache.h"
#include "core/transient_solver.h"

namespace finwork::cluster {

namespace {

/// A count field: an integer in [0, 2^53), so the cast is defined and exact.
std::size_t to_count(double v, const std::string& what) {
  if (!(v >= 0.0 && v < 0x1p53 && v == std::floor(v))) {
    throw std::invalid_argument(what + " must be a non-negative integer");
  }
  return static_cast<std::size_t>(v);
}

/// A shape's phase count: a count of at most kMaxShapePhases.
std::size_t phase_count(double v, const std::string& what) {
  const std::size_t n = to_count(v, what);
  if (n > kMaxShapePhases) {
    throw std::invalid_argument(what + " must be at most " +
                                std::to_string(kMaxShapePhases));
  }
  return n;
}

/// A shape's "scv" field: finite and at least `lo`.
double scv_at_least(const io::JsonValue& value, double lo) {
  const double scv = value.at("scv").as_number();
  if (!(scv >= lo && std::isfinite(scv))) {
    throw std::invalid_argument("scv must be finite and >= " +
                                std::to_string(lo));
  }
  return scv;
}

/// Rejects a misspelt field rather than letting it fall back to its
/// default: throws io::JsonError naming the first key of the object `value`
/// that `known` does not list.
void reject_unknown_keys(const io::JsonValue& value,
                         std::initializer_list<std::string_view> known,
                         const char* where) {
  for (const auto& [key, member] : value.as_object()) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      throw io::JsonError("unknown key '" + key + "' in " + where);
    }
  }
}

}  // namespace

ServiceShape parse_shape(const io::JsonValue& value) {
  const std::string type = value.string_or("type", "exponential");
  if (type == "exponential" || type == "exp") {
    return ServiceShape::exponential();
  }
  if (type == "erlang") {
    return ServiceShape::erlang(
        phase_count(value.at("stages").as_number(), "stages"));
  }
  if (type == "hyperexponential" || type == "h2") {
    return ServiceShape::hyperexponential(scv_at_least(value, 1.0));
  }
  if (type == "scv") {
    // Below 1 the fit is a mixed Erlang of ceil(1 / scv) stages.
    return ServiceShape::from_scv(
        scv_at_least(value, 1.0 / static_cast<double>(kMaxShapePhases)));
  }
  if (type == "power_tail" || type == "tpt") {
    const double alpha = value.at("alpha").as_number();
    const std::size_t levels =
        phase_count(value.number_or("levels", 8.0), "levels");
    return ServiceShape::power_tail(alpha, levels);
  }
  throw std::invalid_argument("unknown shape type '" + type + "'");
}

ApplicationModel parse_application(const io::JsonValue& value) {
  reject_unknown_keys(value,
                      {"preset", "local_time", "cpu_fraction", "remote_time",
                       "comm_factor", "mean_cycles", "remote_share",
                       "scheduler_overhead"},
                      "application");
  ApplicationModel app;
  if (value.string_or("preset", "") == "coarse_grained") {
    app = ApplicationModel::coarse_grained();
  }
  app.local_time = value.number_or("local_time", app.local_time);
  app.cpu_fraction = value.number_or("cpu_fraction", app.cpu_fraction);
  app.remote_time = value.number_or("remote_time", app.remote_time);
  app.comm_factor = value.number_or("comm_factor", app.comm_factor);
  app.mean_cycles = value.number_or("mean_cycles", app.mean_cycles);
  app.remote_share = value.number_or("remote_share", app.remote_share);
  app.scheduler_overhead =
      value.number_or("scheduler_overhead", app.scheduler_overhead);
  app.validate();
  return app;
}

net::NetworkSpec parse_network(const io::JsonValue& value) {
  const auto& stations_json = value.at("stations").as_array();
  std::vector<net::Station> stations;
  stations.reserve(stations_json.size());
  for (const io::JsonValue& sj : stations_json) {
    const double mean = sj.at("mean").as_number();
    const std::size_t mult =
        to_count(sj.number_or("multiplicity", 1.0), "multiplicity");
    const ServiceShape shape = sj.contains("shape")
                                   ? parse_shape(sj.at("shape"))
                                   : ServiceShape::exponential();
    stations.push_back(
        {sj.string_or("name",
                      std::string("S").append(std::to_string(stations.size()))),
         shape.make(mean), mult});
  }
  const std::size_t s = stations.size();

  const auto parse_vector = [&](const std::string& key) {
    const auto& arr = value.at(key).as_array();
    la::Vector v(arr.size());
    for (std::size_t i = 0; i < arr.size(); ++i) v[i] = arr[i].as_number();
    return v;
  };
  la::Vector entry = parse_vector("entry");
  la::Vector exit = parse_vector("exit");
  const auto& rows = value.at("routing").as_array();
  la::Matrix routing(rows.size(), s, 0.0);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const auto& row = rows[r].as_array();
    if (row.size() != s) {
      throw std::invalid_argument("routing row width mismatch");
    }
    for (std::size_t c = 0; c < s; ++c) routing(r, c) = row[c].as_number();
  }
  return net::NetworkSpec(std::move(stations), std::move(entry),
                          std::move(routing), std::move(exit));
}

ExperimentSpec parse_experiment(const io::JsonValue& value) {
  if (!value.is_object()) throw io::JsonError("config must be a JSON object");
  reject_unknown_keys(value,
                      {"tasks", "workstations", "network", "architecture",
                       "application", "shapes", "contention", "simulate",
                       "outputs", "sweep"},
                      "config");
  ExperimentSpec spec;
  spec.tasks = to_count(value.number_or("tasks", 1.0), "tasks");
  if (spec.tasks == 0) throw std::invalid_argument("tasks must be >= 1");

  if (value.contains("network")) {
    spec.network = parse_network(value.at("network"));
    spec.workstations =
        to_count(value.number_or("workstations", 1.0), "workstations");
  } else {
    ExperimentConfig cfg;
    const std::string arch = value.string_or("architecture", "central");
    if (arch == "central") {
      cfg.architecture = Architecture::kCentral;
    } else if (arch == "distributed") {
      cfg.architecture = Architecture::kDistributed;
    } else {
      throw std::invalid_argument("unknown architecture '" + arch + "'");
    }
    cfg.workstations =
        to_count(value.number_or("workstations", 5.0), "workstations");
    if (value.contains("application")) {
      cfg.app = parse_application(value.at("application"));
    }
    if (value.contains("shapes")) {
      const io::JsonValue& shapes = value.at("shapes");
      reject_unknown_keys(shapes, {"cpu", "local_disk", "comm", "remote_disk"},
                          "shapes");
      if (shapes.contains("cpu")) cfg.shapes.cpu = parse_shape(shapes.at("cpu"));
      if (shapes.contains("local_disk")) {
        cfg.shapes.local_disk = parse_shape(shapes.at("local_disk"));
      }
      if (shapes.contains("comm")) {
        cfg.shapes.comm = parse_shape(shapes.at("comm"));
      }
      if (shapes.contains("remote_disk")) {
        cfg.shapes.remote_disk = parse_shape(shapes.at("remote_disk"));
      }
    }
    const std::string contention = value.string_or("contention", "shared");
    if (contention == "shared") {
      cfg.contention = Contention::kShared;
    } else if (contention == "none") {
      cfg.contention = Contention::kNone;
    } else {
      throw std::invalid_argument("unknown contention '" + contention + "'");
    }
    spec.workstations = cfg.workstations;
    spec.config = std::move(cfg);
  }

  if (value.contains("simulate")) {
    const io::JsonValue& simj = value.at("simulate");
    reject_unknown_keys(simj, {"replications", "seed"}, "simulate");
    spec.replications =
        to_count(simj.number_or("replications", 1000.0), "replications");
    // The CLI reports a 95% confidence interval, which needs two samples.
    if (spec.replications < 2) {
      throw std::invalid_argument("simulate: replications must be >= 2");
    }
    spec.seed = to_count(simj.number_or("seed", 1.0), "seed");
  }
  if (value.contains("outputs")) {
    for (const io::JsonValue& o : value.at("outputs").as_array()) {
      spec.outputs.push_back(o.as_string());
    }
  }
  if (value.contains("sweep")) {
    const io::JsonValue& sweep = value.at("sweep");
    spec.sweep_parameter = sweep.at("parameter").as_string();
    for (const io::JsonValue& v : sweep.at("values").as_array()) {
      spec.sweep_values.push_back(v.as_number());
    }
    if (spec.sweep_values.empty()) {
      throw std::invalid_argument("sweep: values must be non-empty");
    }
  }
  if (spec.workstations == 0) {
    throw std::invalid_argument("workstations must be >= 1");
  }
  return spec;
}

io::Table run_sweep(const ExperimentSpec& spec,
                    const core::ModelOptions& options) {
  if (!spec.config) {
    throw std::invalid_argument("run_sweep: sweeps need the cluster form");
  }
  const std::string& param = spec.sweep_parameter;
  io::Table table({param, "makespan", "speedup", "prediction_error_pct"});
  for (double value : spec.sweep_values) {
    ExperimentConfig cfg = *spec.config;
    std::size_t tasks = spec.tasks;
    if (param == "workstations") {
      cfg.workstations = to_count(value, "run_sweep: workstations");
      if (cfg.workstations == 0) {
        throw std::invalid_argument("run_sweep: workstations must be >= 1");
      }
    } else if (param == "tasks") {
      tasks = to_count(value, "run_sweep: tasks");
      if (tasks == 0) {
        throw std::invalid_argument("run_sweep: tasks must be >= 1");
      }
    } else if (param == "remote_scv") {
      cfg.shapes.remote_disk = ServiceShape::from_scv(value);
    } else if (param == "cpu_scv") {
      cfg.shapes.cpu = ServiceShape::from_scv(value);
    } else {
      throw std::invalid_argument("run_sweep: unknown parameter '" + param +
                                  "'");
    }
    // One pass per model: the cluster's makespan gives the speedup, and
    // with its exponentialized twin's, the prediction error.
    const auto makespan_of = [&](const net::NetworkSpec& model) {
      const core::TransientSolver solver(
          core::ModelCache::global().acquire(model, cfg.workstations,
                                             options));
      return solver.makespan_grid({&tasks, 1})[0];
    };
    const net::NetworkSpec actual = build_cluster(cfg);
    const double makespan = makespan_of(actual);
    table.add_row(
        {value, makespan,
         core::speedup(tasks, cfg.app.task_mean_time(), makespan),
         core::prediction_error_percent(
             makespan, makespan_of(actual.exponentialized()))});
  }
  return table;
}

net::NetworkSpec ExperimentSpec::build() const {
  if (network) return *network;
  if (config) return build_cluster(*config);
  throw std::logic_error("ExperimentSpec: neither network nor config set");
}

}  // namespace finwork::cluster
