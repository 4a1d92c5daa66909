// Tests for the JSON experiment-config layer.

#include "cluster/config.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/transient_solver.h"
#include "linalg/solver_error.h"
#include "obs/counters.h"

namespace cluster = finwork::cluster;
namespace io = finwork::io;

namespace {

cluster::ExperimentSpec parse(const char* text) {
  return cluster::parse_experiment(io::JsonValue::parse(text));
}

}  // namespace

TEST(Config, ShapeParsing) {
  using io::JsonValue;
  EXPECT_NEAR(cluster::parse_shape(JsonValue::parse(R"({"type":"exponential"})"))
                  .make(2.0)
                  .scv(),
              1.0, 1e-9);
  const auto e4 =
      cluster::parse_shape(JsonValue::parse(R"({"type":"erlang","stages":4})"))
          .make(2.0);
  EXPECT_NEAR(e4.scv(), 0.25, 1e-9);
  const auto h2 = cluster::parse_shape(
                      JsonValue::parse(R"({"type":"hyperexponential","scv":9})"))
                      .make(1.0);
  EXPECT_NEAR(h2.scv(), 9.0, 1e-7);
  const auto fit =
      cluster::parse_shape(JsonValue::parse(R"({"type":"scv","scv":0.4})"))
          .make(1.0);
  EXPECT_NEAR(fit.scv(), 0.4, 1e-7);
  const auto tpt = cluster::parse_shape(JsonValue::parse(
                       R"({"type":"power_tail","alpha":1.4,"levels":6})"))
                       .make(3.0);
  EXPECT_NEAR(tpt.mean(), 3.0, 1e-8);
  EXPECT_EQ(tpt.phases(), 6u);
  EXPECT_THROW((void)cluster::parse_shape(JsonValue::parse(R"({"type":"weird"})")),
               std::invalid_argument);
}

TEST(Config, ApplicationDefaultsAndOverrides) {
  const auto app = cluster::parse_application(
      io::JsonValue::parse(R"({"remote_share": 0.3})"));
  EXPECT_DOUBLE_EQ(app.remote_share, 0.3);
  EXPECT_DOUBLE_EQ(app.local_time, 10.5);  // default preserved
  const auto coarse = cluster::parse_application(
      io::JsonValue::parse(R"({"preset": "coarse_grained"})"));
  EXPECT_DOUBLE_EQ(coarse.mean_cycles, 2.0);
  EXPECT_THROW((void)cluster::parse_application(
                   io::JsonValue::parse(R"({"cpu_fraction": 2.0})")),
               std::invalid_argument);
}

TEST(Config, ClusterFormRoundTrip) {
  const auto spec = parse(R"({
    "architecture": "distributed",
    "workstations": 4,
    "tasks": 25,
    "shapes": {"remote_disk": {"type": "hyperexponential", "scv": 5}},
    "contention": "shared"
  })");
  ASSERT_TRUE(spec.config.has_value());
  EXPECT_EQ(spec.workstations, 4u);
  EXPECT_EQ(spec.tasks, 25u);
  const auto network = spec.build();
  EXPECT_EQ(network.num_stations(), 7u);  // CPU, LDisk, Comm, D1..D4
  EXPECT_NEAR(network.station(3).service.scv(), 5.0, 1e-7);
}

TEST(Config, NoContention) {
  const auto spec = parse(R"({
    "architecture": "central", "workstations": 3, "tasks": 5,
    "contention": "none"
  })");
  const auto network = spec.build();
  EXPECT_EQ(network.station(3).multiplicity, 3u);
}

TEST(Config, CustomNetworkForm) {
  const auto spec = parse(R"({
    "tasks": 10,
    "workstations": 2,
    "network": {
      "stations": [
        {"name": "A", "mean": 0.5, "multiplicity": 2,
         "shape": {"type": "erlang", "stages": 2}},
        {"name": "B", "mean": 0.2, "multiplicity": 1}
      ],
      "entry": [1, 0],
      "routing": [[0, 1], [0, 0]],
      "exit": [0, 1]
    }
  })");
  ASSERT_TRUE(spec.network.has_value());
  const auto network = spec.build();
  EXPECT_EQ(network.num_stations(), 2u);
  EXPECT_EQ(network.station(0).service.phases(), 2u);
  EXPECT_NEAR(network.single_customer().mean_task_time, 0.7, 1e-10);
  // The parsed network is solvable end to end.
  const finwork::core::TransientSolver solver(network, spec.workstations);
  EXPECT_GT(solver.makespan(spec.tasks), 0.0);
}

TEST(Config, SimulationAndOutputs) {
  const auto spec = parse(R"({
    "workstations": 2, "tasks": 4,
    "simulate": {"replications": 123, "seed": 9},
    "outputs": ["summary", "simulate"]
  })");
  EXPECT_EQ(spec.replications, 123u);
  EXPECT_EQ(spec.seed, 9u);
  ASSERT_EQ(spec.outputs.size(), 2u);
  EXPECT_EQ(spec.outputs[1], "simulate");
}

TEST(Config, SimulationNeedsTwoReplications) {
  // The CLI reports a 95% confidence interval, which one sample cannot give.
  for (const char* bad : {R"({"simulate": {"replications": 0}})",
                          R"({"simulate": {"replications": 1}})"}) {
    EXPECT_THROW((void)parse(bad), std::invalid_argument) << bad;
  }
  EXPECT_EQ(parse(R"({"simulate": {"replications": 2}})").replications, 2u);
}

TEST(Config, ValidationErrors) {
  EXPECT_THROW((void)parse(R"({"architecture": "mesh"})"), std::invalid_argument);
  EXPECT_THROW((void)parse(R"({"contention": "maybe"})"), std::invalid_argument);
  EXPECT_THROW((void)parse(R"({"tasks": 0})"), std::invalid_argument);
  EXPECT_THROW((void)parse(R"({"workstations": 0, "tasks": 1})"),
               std::invalid_argument);
  // routing row width mismatch in the custom form
  EXPECT_THROW((void)parse(R"({
    "tasks": 1, "workstations": 1,
    "network": {"stations": [{"name": "A", "mean": 1}],
                "entry": [1], "routing": [[0, 0]], "exit": [1]}
  })"),
               std::invalid_argument);
}

TEST(Config, UnknownKeysAreRejectedAtEveryLevel) {
  // A misspelt key would otherwise fall back to its default without a word.
  const struct {
    const char* config;
    const char* key;
  } cases[] = {
      {R"({"workstations": 2, "taks": 99})", "taks"},
      {R"({"application": {"remote_shar": 0.3}})", "remote_shar"},
      {R"({"shapes": {"remote_dsk": {"type": "h2", "scv": 4}}})",
       "remote_dsk"},
      {R"({"simulate": {"replications": 10, "sed": 3}})", "sed"},
  };
  for (const auto& c : cases) {
    try {
      (void)parse(c.config);
      ADD_FAILURE() << "accepted " << c.config;
    } catch (const io::JsonError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'") + c.key + "'"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW((void)cluster::parse_application(
                   io::JsonValue::parse(R"({"cpu_fractoin": 0.5})")),
               io::JsonError);
}

TEST(Config, EveryCliFixtureParses) {
  std::size_t parsed = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(FINWORK_TESTDATA_DIR)) {
    if (entry.path().extension() != ".json") continue;
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    EXPECT_NO_THROW((void)parse(text.str().c_str())) << entry.path();
    ++parsed;
  }
  EXPECT_GE(parsed, 3u);
}

TEST(Config, MissingRequiredShapeFieldThrows) {
  EXPECT_THROW((void)cluster::parse_shape(io::JsonValue::parse(R"({"type":"erlang"})")),
               io::JsonError);
}

TEST(Config, SweepParsing) {
  const auto spec = parse(R"({
    "workstations": 3, "tasks": 12,
    "sweep": {"parameter": "remote_scv", "values": [1, 10, 50]}
  })");
  EXPECT_EQ(spec.sweep_parameter, "remote_scv");
  ASSERT_EQ(spec.sweep_values.size(), 3u);
  const auto table = cluster::run_sweep(spec);
  ASSERT_EQ(table.num_rows(), 3u);
  // error grows with the swept scv; zero at scv = 1
  EXPECT_NEAR(table.at(0, 3), 0.0, 1e-6);
  EXPECT_GT(table.at(2, 3), table.at(1, 3));
}

TEST(Config, SweepOverWorkstations) {
  const auto spec = parse(R"({
    "workstations": 2, "tasks": 20,
    "sweep": {"parameter": "workstations", "values": [1, 2, 4]}
  })");
  const auto table = cluster::run_sweep(spec);
  // makespan shrinks with cluster size
  EXPECT_GT(table.at(0, 1), table.at(1, 1));
  EXPECT_GT(table.at(1, 1), table.at(2, 1));
  // speedup of 1 at K = 1
  EXPECT_NEAR(table.at(0, 2), 1.0, 1e-9);
}

TEST(Config, SweepRunsEachModelOncePerPoint) {
  namespace obs = finwork::obs;
  const auto spec = parse(R"({
    "workstations": 3, "tasks": 12,
    "sweep": {"parameter": "remote_scv", "values": [1, 10, 50]}
  })");
  obs::counters_reset();
  const auto table = cluster::run_sweep(spec);
  ASSERT_EQ(table.num_rows(), 3u);
  // One single-point grid pass of the actual model and one of the
  // exponentialized model per sweep point.
  EXPECT_EQ(obs::counter_value(obs::Counter::kGridPointsPerPass), 2u * 3u);
}

TEST(Config, SweepBuildsEveryModelWithTheGivenOptions) {
  namespace core = finwork::core;
  const auto spec = parse(R"({
    "workstations": 3, "tasks": 12,
    "sweep": {"parameter": "remote_scv", "values": [1, 10, 50]}
  })");
  const auto plain = cluster::run_sweep(spec);

  // A ceiling above every level's condition number changes nothing.
  core::ModelOptions loose;
  loose.max_condition = 1e8;
  const auto loose_table = cluster::run_sweep(spec, loose);
  ASSERT_EQ(loose_table.num_rows(), plain.num_rows());
  for (std::size_t r = 0; r < plain.num_rows(); ++r) {
    for (std::size_t c = 0; c < plain.num_columns(); ++c) {
      EXPECT_EQ(loose_table.at(r, c), plain.at(r, c))
          << "row " << r << " col " << c;
    }
  }

  // max_condition = 1 is below every (I - P_k)'s condition number, so the
  // sweep's models throw on their first dense level.
  core::ModelOptions capped;
  capped.max_condition = 1.0;
  try {
    (void)cluster::run_sweep(spec, capped);
    FAIL() << "expected SolverError";
  } catch (const finwork::SolverError& e) {
    EXPECT_EQ(e.kind(), finwork::SolverErrorKind::kIllConditioned);
    EXPECT_EQ(e.stage(), finwork::SolverStage::kLuFactorize);
  }
}

TEST(Config, SweepValidation) {
  EXPECT_THROW(parse(R"({
    "workstations": 2, "tasks": 4,
    "sweep": {"parameter": "x", "values": []}
  })"),
               std::invalid_argument);
  const auto bad_param = parse(R"({
    "workstations": 2, "tasks": 4,
    "sweep": {"parameter": "warp_factor", "values": [1]}
  })");
  EXPECT_THROW((void)cluster::run_sweep(bad_param), std::invalid_argument);
  // sweeps on custom networks are rejected
  auto custom = parse(R"({
    "tasks": 2, "workstations": 1,
    "network": {"stations": [{"name": "A", "mean": 1}],
                "entry": [1], "routing": [[0]], "exit": [1]},
    "sweep": {"parameter": "tasks", "values": [1, 2]}
  })");
  EXPECT_THROW((void)cluster::run_sweep(custom), std::invalid_argument);
}
