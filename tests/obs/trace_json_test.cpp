// JSON well-formedness of the obs exporters: the Chrome trace export and
// the perf record must parse with the repo's own JSON parser (src/io/json),
// including names that need escaping.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "io/json.h"
#include "obs/counters.h"
#include "obs/perf_record.h"
#include "obs/sink.h"
#include "obs/trace.h"

namespace {

using namespace finwork;

class ObsJsonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::trace_reset();
    obs::events_reset();
    obs::counters_reset();
  }
};

std::vector<std::string> event_names(const io::JsonValue& doc) {
  std::vector<std::string> names;
  for (const io::JsonValue& ev : doc.at("traceEvents").as_array()) {
    names.push_back(ev.at("name").as_string());
  }
  return names;
}

TEST_F(ObsJsonTest, ChromeTraceParsesAndContainsSpans) {
  {
    const obs::ObsSpan outer("test/outer");
    const obs::ObsSpan inner("test/inner");
  }
  std::ostringstream out;
  obs::write_chrome_trace(out);

  const io::JsonValue doc = io::JsonValue::parse(out.str());
  ASSERT_TRUE(doc.is_object());
  const auto names = event_names(doc);
  EXPECT_NE(std::find(names.begin(), names.end(), "test/outer"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "test/inner"), names.end());

  for (const io::JsonValue& ev : doc.at("traceEvents").as_array()) {
    EXPECT_EQ(ev.at("ph").as_string(), "X");
    EXPECT_EQ(ev.at("cat").as_string(), "finwork");
    EXPECT_GE(ev.at("ts").as_number(), 0.0);
    EXPECT_GE(ev.at("dur").as_number(), 0.0);
    EXPECT_GE(ev.at("tid").as_number(), 1.0);
  }
}

TEST_F(ObsJsonTest, EmptyTraceIsStillValidJson) {
  std::ostringstream out;
  obs::write_chrome_trace(out);
  const io::JsonValue doc = io::JsonValue::parse(out.str());
  EXPECT_TRUE(doc.at("traceEvents").as_array().empty());
}

TEST_F(ObsJsonTest, StructuredEventEscapingSurvivesRoundTrip) {
  const std::string nasty = "quote\" back\\slash\nnewline\ttab";
  obs::emit_event("invariant-violation/finite", nasty, 3, 7, nasty);

  std::ostringstream out;
  obs::write_chrome_trace(out);
  const io::JsonValue doc = io::JsonValue::parse(out.str());

  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 1u);
  const io::JsonValue& ev = events.front();
  EXPECT_EQ(ev.at("ph").as_string(), "i");
  EXPECT_EQ(ev.at("name").as_string(), "invariant-violation/finite");
  const io::JsonValue& args = ev.at("args");
  EXPECT_EQ(args.at("object").as_string(), nasty);
  EXPECT_EQ(args.at("detail").as_string(), nasty);
  EXPECT_EQ(args.at("level").as_number(), 3.0);
  EXPECT_EQ(args.at("row").as_number(), 7.0);
}

TEST_F(ObsJsonTest, PerfRecordParsesWithExpectedSchema) {
  {
    const obs::ObsSpan span("test/perf_phase");
  }
  obs::counter_add(obs::Counter::kKronProducts, 3);

  obs::PerfRecord record("unit_test");
  record.set_meta("note", "escaped \"meta\" value");
  obs::PerfEntry entry;
  entry.name = "BM_Something/4";
  entry.real_seconds = 0.125;
  entry.iterations = 10;
  entry.metrics["states"] = 42.0;
  record.add_entry(entry);

  std::ostringstream out;
  record.write(out);
  const io::JsonValue doc = io::JsonValue::parse(out.str());

  EXPECT_EQ(doc.at("schema").as_string(), "finwork-perf-record/1");
  EXPECT_EQ(doc.at("tool").as_string(), "unit_test");
  EXPECT_FALSE(doc.at("git_sha").as_string().empty());
  EXPECT_FALSE(doc.at("build_type").as_string().empty());
  EXPECT_EQ(doc.at("meta").at("note").as_string(), "escaped \"meta\" value");

  const auto& benchmarks = doc.at("benchmarks").as_array();
  ASSERT_EQ(benchmarks.size(), 1u);
  EXPECT_EQ(benchmarks[0].at("name").as_string(), "BM_Something/4");
  EXPECT_DOUBLE_EQ(benchmarks[0].at("real_seconds").as_number(), 0.125);
  EXPECT_DOUBLE_EQ(benchmarks[0].at("iterations").as_number(), 10.0);
  EXPECT_DOUBLE_EQ(benchmarks[0].at("metrics").at("states").as_number(), 42.0);

  // The registry state at write() time is embedded.
  bool found_phase = false;
  for (const io::JsonValue& phase : doc.at("phases").as_array()) {
    if (phase.at("name").as_string() == "test/perf_phase") found_phase = true;
  }
  EXPECT_TRUE(found_phase);
  EXPECT_EQ(doc.at("counters").at("linalg.kron_products").as_number(), 3.0);
}

TEST_F(ObsJsonTest, TextSummaryMentionsSpansAndCounters) {
  {
    const obs::ObsSpan span("test/summary_span");
  }
  obs::counter_add(obs::Counter::kSimReplications, 5);

  std::ostringstream out;
  obs::write_text_summary(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("test/summary_span"), std::string::npos);
  EXPECT_NE(text.find("sim.replications"), std::string::npos);
  EXPECT_NE(text.find("== counters =="), std::string::npos);
}

}  // namespace
