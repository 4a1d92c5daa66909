#pragma once
// JSON experiment configuration: lets the CLI (and downstream tools) drive
// the library without writing C++.  Two top-level forms are supported:
//
//   cluster form                      custom-network form
//   {                                 {
//     "architecture": "central",        "network": {
//     "workstations": 5,                  "stations": [
//     "tasks": 30,                          {"name": "App", "mean": 1.0,
//     "application": {...},                  "multiplicity": 6,
//     "shapes": {                            "shape": {"type": "erlang",
//       "remote_disk":                                  "stages": 2}}, ...],
//         {"type": "hyperexponential",    "entry":   [1, 0, 0],
//          "scv": 10}},                    "routing": [[0,1,0], ...],
//     "contention": "shared"               "exit":    [0, 0.1, 0.5]},
//   }                                    "workstations": 6, "tasks": 60 }
//
// Shape objects: {"type": "exponential"} | {"type": "erlang", "stages": n}
// | {"type": "hyperexponential", "scv": x} | {"type": "scv", "scv": x}
// | {"type": "power_tail", "alpha": a, "levels": m}.

#include <cstdint>
#include <optional>

#include "cluster/experiments.h"
#include "io/json.h"

namespace finwork::cluster {

/// A parsed experiment: the model plus run parameters.
struct ExperimentSpec {
  /// Set when the config used the custom-network form.
  std::optional<net::NetworkSpec> network;
  /// Set when the config used the cluster form.
  std::optional<ExperimentConfig> config;
  std::size_t workstations = 1;
  std::size_t tasks = 1;
  /// Simulation controls (used when outputs request "simulate");
  /// parse_experiment rejects fewer than 2 replications.
  std::size_t replications = 1000;
  std::uint64_t seed = 1;
  /// Which outputs to produce; empty means the analytic defaults.
  std::vector<std::string> outputs;

  /// Optional sweep: vary one parameter over `sweep_values` and tabulate
  /// makespan / speedup / prediction error per point.  Supported parameters
  /// (cluster form only): "workstations", "tasks", "remote_scv", "cpu_scv".
  std::string sweep_parameter;
  std::vector<double> sweep_values;

  /// The network to analyze, whichever form was used.
  [[nodiscard]] net::NetworkSpec build() const;
};

/// Run the spec's sweep: one row per sweep value with columns
/// [value, makespan, speedup, prediction_error_pct], every point's models
/// built with `options`.  Throws std::invalid_argument for unknown
/// parameters or a custom-network spec.
[[nodiscard]] io::Table run_sweep(const ExperimentSpec& spec,
                                  const core::ModelOptions& options = {});

/// Most phases a parsed shape may give one service time: a dense phase-type
/// matrix is its order squared, and a station's states grow with it.
inline constexpr std::size_t kMaxShapePhases = 100;

/// Parse a shape object into a ServiceShape.  Throws std::invalid_argument,
/// naming the field, for an Erlang "stages" or power-tail "levels" above
/// kMaxShapePhases, an "scv" shape below 1/kMaxShapePhases (it would fit
/// that many Erlang stages), or a non-finite or out-of-range "scv".
[[nodiscard]] ServiceShape parse_shape(const io::JsonValue& value);

/// Parse an application-model object (all fields optional; defaults are the
/// paper's parameterisation).  An unknown key throws io::JsonError naming it.
[[nodiscard]] ApplicationModel parse_application(const io::JsonValue& value);

/// Parse a full experiment config (either form).  Throws io::JsonError or
/// std::invalid_argument with a descriptive message; an unknown key at the
/// top level or inside "application", "shapes" or "simulate" throws
/// io::JsonError naming it, so a misspelt field never falls back to its
/// default.
[[nodiscard]] ExperimentSpec parse_experiment(const io::JsonValue& value);

/// Parse the custom-network form's "network" object.
[[nodiscard]] net::NetworkSpec parse_network(const io::JsonValue& value);

}  // namespace finwork::cluster
