// Seeded mutation test of the JSON config path: thousands of byte flips,
// insertions, deletions, slice copies, number edits and truncations of three
// valid configs (the CLI's sweep fixture, a cluster-form config touching
// every parser branch, and a custom-network config whose stations use every
// shape type) go through io::JsonValue::parse and cluster::parse_experiment.
// Each mutant must either parse or throw io::JsonError or
// std::invalid_argument — never crash or throw another type (a hang shows as
// the ctest timeout).  A config that parses must be an object and carry its
// counts exactly: every count field equals the JSON number it came from.  No
// model is built, but the custom form builds each station's phase-type
// distribution while it parses.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/config.h"
#include "io/json.h"

namespace {

namespace cluster = finwork::cluster;
namespace io = finwork::io;

constexpr const char* kClusterConfig = R"({
  "architecture": "distributed",
  "workstations": 4,
  "tasks": 40,
  "application": {"preset": "coarse_grained", "cpu_fraction": 0.5,
                  "remote_share": 0.4, "mean_cycles": 20},
  "shapes": {"cpu": {"type": "erlang", "stages": 3},
             "local_disk": {"type": "power_tail", "alpha": 1.4, "levels": 6},
             "comm": {"type": "scv", "scv": 0.5},
             "remote_disk": {"type": "hyperexponential", "scv": 10}},
  "contention": "none",
  "outputs": ["summary", "moments", "simulate"],
  "simulate": {"replications": 2000, "seed": 7},
  "sweep": {"parameter": "tasks", "values": [8, 16, 1e2, -0.5]}
})";

constexpr const char* kNetworkConfig = R"({
  "network": {
    "stations": [
      {"name": "App", "mean": 1.0, "multiplicity": 4,
       "shape": {"type": "erlang", "stages": 3}},
      {"name": "Disk", "mean": 0.5, "shape": {"type": "h2", "scv": 6}},
      {"name": "Net", "mean": 0.2, "multiplicity": 2,
       "shape": {"type": "scv", "scv": 0.25}},
      {"name": "Store", "mean": 0.8,
       "shape": {"type": "tpt", "alpha": 1.4, "levels": 5}}],
    "entry": [1, 0, 0, 0],
    "routing": [[0, 0.5, 0.3, 0], [0.6, 0, 0, 0.2],
                [0, 0, 0, 0.9], [0.7, 0, 0, 0]],
    "exit": [0.2, 0.2, 0.1, 0.3]},
  "workstations": 4,
  "tasks": 24
})";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Bytes a mutation inserts: JSON punctuation, number and literal
/// characters, escapes, and arbitrary bytes.
char random_byte(std::mt19937_64& rng) {
  static constexpr std::string_view kJsonish =
      "{}[]\":,-+.eE0123456789tfnul\\/ \t\nx";
  if (rng() % 4 == 0) return static_cast<char>(rng() % 256);
  return kJsonish[rng() % kJsonish.size()];
}

/// One to three random edits of `text`.  Only raw rng() output is used (no
/// <random> distributions), so the mutants are the same on every platform.
std::string mutate(const std::string& text, std::mt19937_64& rng) {
  std::string out = text;
  const std::size_t edits = 1 + rng() % 3;
  for (std::size_t e = 0; e < edits && !out.empty(); ++e) {
    const std::size_t pos = rng() % out.size();
    switch (rng() % 6) {
      case 0:  // flip
        out[pos] = random_byte(rng);
        break;
      case 1:  // insert
        out.insert(out.begin() + static_cast<std::ptrdiff_t>(pos),
                   random_byte(rng));
        break;
      case 2:  // delete a short run
        out.erase(pos, 1 + rng() % 4);
        break;
      case 3: {  // copy a slice elsewhere (duplicates keys and brackets)
        const std::string slice =
            out.substr(rng() % out.size(), 1 + rng() % 16);
        out.insert(rng() % (out.size() + 1), slice);
        break;
      }
      case 4: {  // edit the number at or after pos: sign, fraction, exponent
        const std::size_t digit = out.find_first_of("0123456789", pos);
        if (digit == std::string::npos) break;
        static constexpr const char* kEdits[] = {"-", "0.", "5.", "9e", "1e3"};
        out.insert(digit, kEdits[rng() % 5]);
        break;
      }
      default:  // truncate
        out.resize(pos);
        break;
    }
  }
  return out;
}

enum class Outcome { kParsed, kJsonError, kInvalidArgument };

/// Run one mutant through the config path; a failed expectation names it.
Outcome run_config_path(const std::string& text) {
  try {
    const io::JsonValue doc = io::JsonValue::parse(text);
    const cluster::ExperimentSpec spec = cluster::parse_experiment(doc);
    EXPECT_TRUE(doc.is_object()) << text;
    EXPECT_GE(spec.tasks, 1u) << text;
    EXPECT_GE(spec.workstations, 1u) << text;
    EXPECT_EQ(static_cast<double>(spec.tasks), doc.number_or("tasks", 1.0))
        << text;
    if (spec.config) {
      EXPECT_EQ(static_cast<double>(spec.workstations),
                doc.number_or("workstations", 5.0))
          << text;
    }
    if (doc.contains("simulate")) {
      const io::JsonValue& sim = doc.at("simulate");
      EXPECT_EQ(static_cast<double>(spec.replications),
                sim.number_or("replications", 1000.0))
          << text;
      EXPECT_EQ(static_cast<double>(spec.seed), sim.number_or("seed", 1.0))
          << text;
    }
    return Outcome::kParsed;
  } catch (const io::JsonError&) {
    return Outcome::kJsonError;
  } catch (const std::invalid_argument&) {
    return Outcome::kInvalidArgument;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "unexpected exception: " << e.what() << "\n" << text;
  } catch (...) {
    ADD_FAILURE() << "unexpected non-std exception\n" << text;
  }
  return Outcome::kJsonError;
}

void run_mutants(const std::string& base, std::uint64_t seed) {
  ASSERT_EQ(run_config_path(base), Outcome::kParsed);
  constexpr std::size_t kMutants = 5000;
  std::mt19937_64 rng(seed);
  std::size_t counts[3] = {0, 0, 0};
  for (std::size_t i = 0; i < kMutants; ++i) {
    ++counts[static_cast<int>(run_config_path(mutate(base, rng)))];
    if (::testing::Test::HasFailure()) return;
  }
  // Every outcome occurs, so the mutants reach past the tokenizer.
  EXPECT_GT(counts[0], 0u);
  EXPECT_GT(counts[1], 0u);
  EXPECT_GT(counts[2], 0u);
}

TEST(ConfigMutation, SweepFixtureMutantsParseOrThrowCleanly) {
  run_mutants(read_file(FINWORK_TESTDATA_DIR "/sweep.json"), 20041);
}

TEST(ConfigMutation, ClusterConfigMutantsParseOrThrowCleanly) {
  run_mutants(kClusterConfig, 15);
}

TEST(ConfigMutation, NetworkConfigMutantsParseOrThrowCleanly) {
  run_mutants(kNetworkConfig, 2004);
}

TEST(ConfigMutation, PhaseCountsAboveTheCeilingAreRejected) {
  // A shape's phase count is bounded at parse time, in both config forms:
  // the custom form builds each station's distribution while it parses, so
  // 200 000 stages would be a dense 200 000^2 matrix.
  const std::string max = std::to_string(cluster::kMaxShapePhases);
  const std::string over = std::to_string(cluster::kMaxShapePhases + 1);
  for (const std::string& shape : std::vector<std::string>{
           R"({"type": "erlang", "stages": )" + over + "}",
           R"({"type": "erlang", "stages": 200000})",
           R"({"type": "tpt", "alpha": 1.4, "levels": )" + over + "}",
           R"({"type": "scv", "scv": 1e-9})", R"({"type": "scv", "scv": 0})",
           R"({"type": "h2", "scv": 0.5})"}) {
    for (const std::string& config :
         {R"({"shapes": {"cpu": )" + shape + "}}",
          R"({"network": {"stations": [{"mean": 1, "shape": )" + shape +
              R"(}], "entry": [1], "routing": [[0]], "exit": [1]}})"}) {
      EXPECT_THROW(
          (void)cluster::parse_experiment(io::JsonValue::parse(config)),
          std::invalid_argument)
          << config;
    }
  }
  for (const std::string& shape : std::vector<std::string>{
           R"({"type": "erlang", "stages": )" + max + "}",
           R"({"type": "tpt", "alpha": 1.4, "levels": )" + max + "}",
           R"({"type": "scv", "scv": 0.01})"}) {
    EXPECT_NO_THROW((void)cluster::parse_experiment(io::JsonValue::parse(
        R"({"network": {"stations": [{"mean": 1, "shape": )" + shape +
        R"(}], "entry": [1], "routing": [[0]], "exit": [1]}})")))
        << shape;
  }
}

TEST(ConfigMutation, CountsOutsideTheIntegersAreRejected) {
  // The mutants' count checks, pinned: a count must be a non-negative
  // integer below 2^53, since casting any other double is undefined.
  for (const char* bad :
       {R"({"tasks": -8})", R"({"tasks": 2.5})", R"({"tasks": 1e300})",
        R"({"workstations": -1, "tasks": 1})",
        R"({"simulate": {"replications": -3}})",
        R"({"simulate": {"seed": 1e20}})",
        R"({"shapes": {"cpu": {"type": "erlang", "stages": -2}}})",
        R"({"shapes": {"cpu": {"type": "tpt", "alpha": 1.4, "levels": 0.5}}})"}) {
    EXPECT_THROW((void)cluster::parse_experiment(io::JsonValue::parse(bad)),
                 std::invalid_argument)
        << bad;
  }
  EXPECT_THROW((void)cluster::parse_experiment(io::JsonValue::parse("[1]")),
               io::JsonError);
  EXPECT_EQ(cluster::parse_experiment(io::JsonValue::parse(R"({"tasks": 12})"))
                .tasks,
            12u);
}

}  // namespace
