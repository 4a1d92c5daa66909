// finwork_cli — run a transient-model experiment from a JSON config.
//
// Usage:
//   finwork_cli [--trace-out=FILE] [--stats] [--max-condition=X]
//               <config.json>
//   finwork_cli --example          # print an annotated example config
//
// Observability (docs/OBSERVABILITY.md):
//   --trace-out=FILE   write a Chrome trace-event JSON of the run
//                      (open in chrome://tracing or ui.perfetto.dev)
//   --stats            print the span summary and counter registry
//
// Robustness (docs/ROBUSTNESS.md):
//   --max-condition=X  fail (exit 1, ill_conditioned/lu_factorize) when a
//                      dense level's condition number exceeds X;
//                      0 = unlimited
//
// Outputs: select them with the config's "outputs" array; kOutputs below
// lists every name, the default set and what a sweep prints.  An unknown
// name, or a name a sweep config asks for but a sweep does not print,
// exits 2.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/config.h"
#include "core/approximation.h"
#include "core/metrics.h"
#include "core/model_cache.h"
#include "core/transient_solver.h"
#include "linalg/solver_error.h"
#include "obs/trace.h"
#include "pf/product_form.h"
#include "sim/simulator.h"

namespace {

constexpr const char* kExample = R"({
  "architecture": "central",
  "workstations": 5,
  "tasks": 30,
  "application": {"local_time": 10.5, "cpu_fraction": 0.5,
                  "remote_time": 1.2, "comm_factor": 0.25,
                  "mean_cycles": 20, "remote_share": 0.4},
  "shapes": {"remote_disk": {"type": "hyperexponential", "scv": 10}},
  "contention": "shared",
  "outputs": ["summary", "timeline", "steady_state", "moments",
              "prediction_error", "simulate"],
  "simulate": {"replications": 2000, "seed": 7}
})";

struct Output {
  std::string_view name;
  bool by_default;  ///< printed when the config has no "outputs" array
  bool in_sweep;    ///< a column of the sweep table (makespan and speedup
                    ///< for "summary")
};

// Every output the config's "outputs" array may name.
constexpr std::array<Output, 10> kOutputs = {{
    {"summary", true, true},       // makespan, speedup, per-task time, regions
    {"timeline", true, false},     // per-epoch mean inter-departure times
    {"steady_state", true, false}, // t_ss and throughput (Y_K R_K fixed point)
    {"moments", false, false},     // makespan variance (absorbing chain)
    {"distribution", false, false},  // P(T <= t) around the mean
    {"occupancy", false, false},   // time-stationary per-station queue/util.
    {"prediction_error", false, true},  // error of the exponential assumption
    {"approximate", false, false},  // steady-state approximation and its error
    {"simulate", false, false},    // DES cross-check with a 95% CI
    {"product_form", false, false},  // Buzen/MVA baseline (exponentialized)
}};

const Output* find_output(std::string_view name) {
  const auto it = std::find_if(kOutputs.begin(), kOutputs.end(),
                               [&](const Output& o) { return o.name == name; });
  return it == kOutputs.end() ? nullptr : &*it;
}

bool wants(const finwork::cluster::ExperimentSpec& spec,
           std::string_view output) {
  if (spec.outputs.empty()) return find_output(output)->by_default;
  return std::find(spec.outputs.begin(), spec.outputs.end(), output) !=
         spec.outputs.end();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace finwork;
  std::string trace_out;
  bool stats = false;
  core::ModelOptions model_options;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--example") {
      std::cout << kExample << '\n';
      return 0;
    }
    if (arg == "--stats") {
      stats = true;
    } else if (arg.rfind("--max-condition=", 0) == 0) {
      const std::string value = arg.substr(16);
      std::size_t used = 0;
      try {
        model_options.max_condition = std::stod(value, &used);
      } catch (const std::exception&) {
        used = 0;
      }
      // std::stod accepts "nan" and "inf" and stops at trailing junk.
      if (used == 0 || used != value.size() ||
          !std::isfinite(model_options.max_condition)) {
        std::cerr << "bad --max-condition value: " << value << '\n';
        return 2;
      }
      if (model_options.max_condition < 0.0) {
        std::cerr << "--max-condition must be >= 0\n";
        return 2;
      }
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(12);
    } else if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << '\n';
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 1 || (!trace_out.empty() && trace_out[0] == '-')) {
    std::cerr << "usage: finwork_cli [--trace-out=FILE] [--stats] "
                 "[--max-condition=X] <config.json> | finwork_cli --example\n";
    return 2;
  }
  const std::string& config_path = positional[0];

  // Flush observability output even on early returns / exceptions.
  struct ObsFlush {
    const std::string& trace_out;
    bool stats;
    ~ObsFlush() {
      if (!trace_out.empty()) {
        std::ofstream trace(trace_out);
        if (trace) {
          obs::write_chrome_trace(trace);
        } else {
          std::cerr << "cannot write trace to " << trace_out << '\n';
        }
      }
      if (stats) {
        obs::write_text_summary(std::cout);
        const core::ModelCacheStats mc = core::ModelCache::global().stats();
        std::cout << "model cache: " << mc.hits << " hits, " << mc.misses
                  << " misses, " << mc.evictions << " evictions, " << mc.size
                  << '/' << mc.capacity << " resident\n";
      }
    }
  } obs_flush{trace_out, stats};

  try {
    std::ifstream in(config_path);
    if (!in) {
      std::cerr << "cannot open " << config_path << '\n';
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    const io::JsonValue doc = io::JsonValue::parse(buffer.str());
    const cluster::ExperimentSpec spec = cluster::parse_experiment(doc);
    for (const std::string& o : spec.outputs) {
      if (find_output(o) == nullptr) {
        std::cerr << "unknown output \"" << o << "\" in " << config_path
                  << '\n';
        return 2;
      }
    }

    if (!spec.sweep_parameter.empty()) {
      bool dropped = false;
      for (const std::string& o : spec.outputs) {
        if (find_output(o)->in_sweep) continue;
        std::cerr << "output \"" << o << "\" in " << config_path
                  << " is not printed by a sweep (it prints summary and "
                     "prediction_error)\n";
        dropped = true;
      }
      if (dropped) return 2;
      const io::Table table = cluster::run_sweep(spec, model_options);
      std::cout << "sweep over " << spec.sweep_parameter << ":\n";
      table.print(std::cout, 4);
      return 0;
    }

    const net::NetworkSpec network = spec.build();
    const core::TransientSolver solver(core::ModelCache::global().acquire(
        network, spec.workstations, model_options));
    const core::DepartureTimeline tl = solver.solve(spec.tasks);
    const core::SteadyStateResult& ss = solver.steady_state();

    if (wants(spec, "summary")) {
      const auto view = network.single_customer();
      std::cout << "single-task mean time: " << view.mean_task_time << '\n'
                << "state space at level K: "
                << solver.space().dimension(spec.workstations) << " states\n"
                << "makespan E(T): " << tl.makespan << '\n'
                << "speedup: "
                << core::speedup(spec.tasks, view.mean_task_time, tl.makespan)
                << " (of " << spec.workstations << ")\n";
      const auto regions = core::classify_regions(tl, ss.interdeparture);
      std::cout << "regions: " << 100.0 * regions.transient_fraction
                << "% transient, " << 100.0 * regions.steady_fraction
                << "% steady, " << 100.0 * regions.draining_fraction
                << "% draining\n";
    }
    if (wants(spec, "steady_state")) {
      std::cout << "steady-state inter-departure: " << ss.interdeparture
                << " (throughput " << ss.throughput << ")\n";
    }
    if (wants(spec, "timeline")) {
      std::cout << "epoch times:";
      for (std::size_t i = 0; i < tl.epoch_times.size(); ++i) {
        std::cout << (i % 8 == 0 ? "\n  " : " ") << tl.epoch_times[i];
      }
      std::cout << '\n';
    }
    if (wants(spec, "moments")) {
      const core::MakespanMoments mm = solver.makespan_moments(spec.tasks);
      std::cout << "makespan std-dev: " << mm.std_dev
                << " (C^2 = " << mm.scv << ")\n";
    }
    if (wants(spec, "distribution")) {
      const core::MakespanMoments mm = solver.makespan_moments(spec.tasks);
      std::cout << "makespan distribution:\n";
      for (double frac : {0.8, 0.9, 1.0, 1.1, 1.25, 1.5}) {
        const double at = frac * mm.mean;
        std::cout << "  P(T <= " << at
                  << ") = " << solver.makespan_cdf(spec.tasks, at) << '\n';
      }
    }
    if (wants(spec, "occupancy")) {
      const auto occ = solver.station_occupancy(
          spec.workstations, solver.time_stationary_distribution());
      std::cout << "time-stationary occupancy (saturated system):\n";
      for (std::size_t j = 0; j < occ.size(); ++j) {
        std::cout << "  " << network.station(j).name << ": E[n] = "
                  << occ[j].mean_customers
                  << ", utilization = " << occ[j].utilization << '\n';
      }
    }
    if (wants(spec, "prediction_error")) {
      const core::TransientSolver expo(core::ModelCache::global().acquire(
          network.exponentialized(), spec.workstations, model_options));
      std::cout << "exponential-assumption error: "
                << core::prediction_error_percent(tl.makespan,
                                                  expo.makespan(spec.tasks))
                << "%\n";
    }
    if (wants(spec, "approximate")) {
      const auto approx = core::approximate_makespan(solver, spec.tasks);
      std::cout << "steady-state approximation: " << approx.makespan
                << " (error "
                << 100.0 * (approx.makespan - tl.makespan) / tl.makespan
                << "%)\n";
    }
    if (wants(spec, "product_form")) {
      const auto conv =
          pf::convolution(network.exponentialized(), spec.workstations);
      std::cout << "product-form cycle time (exponentialized): "
                << conv.cycle_time << '\n';
    }
    if (wants(spec, "simulate")) {
      const sim::NetworkSimulator simulator(network, spec.workstations);
      sim::SimulationOptions opts;
      opts.replications = spec.replications;
      opts.seed = spec.seed;
      const sim::SimulationResult sr = simulator.run(spec.tasks, opts);
      std::cout << "simulated makespan: " << sr.makespan.mean() << " +- "
                << sr.makespan.ci_half_width() << " (95% CI, "
                << spec.replications << " reps; analytic " << tl.makespan
                << ")\n";
    }
    return 0;
  } catch (const SolverError& e) {
    std::cerr << "solver error [" << solver_error_kind_name(e.kind()) << '/'
              << solver_stage_name(e.stage()) << "]: " << e.what() << '\n';
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
