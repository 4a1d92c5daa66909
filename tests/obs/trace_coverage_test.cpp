// Acceptance check for the span instrumentation: on a realistic solver run
// the top-level spans must cover at least 95% of the measured wall time, so
// a --trace-out capture actually explains where a run went.  Also smoke-
// checks that the resulting Chrome trace parses and names the expected
// phases.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/experiments.h"
#include "core/transient_solver.h"
#include "io/json.h"
#include "obs/counters.h"
#include "obs/trace.h"

namespace {

using namespace finwork;

// Spans that are not nested inside any other span on a ctor + solve +
// steady_state run; their totals partition the solver's wall time.
// (state_space/build_level is NOT listed: each level is built on first use,
// inside the solver/solve that needs it, which would double-count it.)
const char* const kTopLevelSpans[] = {
    "state_space/enumerate",
    "solver/solve",
    "solver/steady_state",
};

TEST(TraceCoverageTest, TopLevelSpansCoverSolverWallTime) {
  cluster::ExperimentConfig cfg;
  cfg.architecture = cluster::Architecture::kCentral;
  cfg.workstations = 5;
  cfg.shapes.remote_disk = cluster::ServiceShape::hyperexponential(10.0);
  const net::NetworkSpec spec = cluster::build_cluster(cfg);

  obs::trace_reset();
  obs::counters_reset();
  const std::uint64_t t0 = obs::now_ns();
  const core::TransientSolver solver(spec, cfg.workstations);
  const core::DepartureTimeline tl = solver.solve(30);
  const core::SteadyStateResult& ss = solver.steady_state();
  const std::uint64_t wall_ns = obs::now_ns() - t0;
  ASSERT_GT(tl.makespan, 0.0);
  ASSERT_GT(ss.interdeparture, 0.0);
  ASSERT_GT(wall_ns, 0u);

  const std::vector<obs::SpanStats> summary = obs::trace_summary();
  std::uint64_t covered_ns = 0;
  for (const obs::SpanStats& s : summary) {
    if (std::find_if(std::begin(kTopLevelSpans), std::end(kTopLevelSpans),
                     [&](const char* name) { return s.name == name; }) !=
        std::end(kTopLevelSpans)) {
      covered_ns += s.total_ns;
    }
  }
  EXPECT_GE(static_cast<double>(covered_ns),
            0.95 * static_cast<double>(wall_ns))
      << "top-level spans cover only "
      << 100.0 * static_cast<double>(covered_ns) /
             static_cast<double>(wall_ns)
      << "% of the solver wall time";
  // Sanity: span totals cannot exceed the enclosing measurement.
  EXPECT_LE(covered_ns, wall_ns);

  // The run must have exercised the phases the catalog promises.
  const auto has_span = [&](const std::string& name) {
    return std::any_of(summary.begin(), summary.end(),
                       [&](const obs::SpanStats& s) { return s.name == name; });
  };
  EXPECT_TRUE(has_span("solver/prepare_level"));
  EXPECT_TRUE(has_span("solver/epoch"));
  EXPECT_TRUE(has_span("state_space/build_level"));
  EXPECT_GT(obs::counter_value(obs::Counter::kEpochRecursions), 0u);
  EXPECT_GT(obs::counter_value(obs::Counter::kLuReuseHits), 0u);

  // The same capture must export as parseable Chrome trace JSON.
  std::ostringstream out;
  obs::write_chrome_trace(out);
  const io::JsonValue doc = io::JsonValue::parse(out.str());
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_FALSE(events.empty());
  const auto has_event = [&](const std::string& name) {
    return std::any_of(events.begin(), events.end(),
                       [&](const io::JsonValue& ev) {
                         return ev.at("name").as_string() == name;
                       });
  };
  for (const char* name : kTopLevelSpans) EXPECT_TRUE(has_event(name));
}

}  // namespace
