// Concurrency stress for the obs registries, meant to run under the
// debug-tsan preset: counters must be exactly additive, the gauge must
// settle on the true maximum, and per-thread span buffers must not lose
// or corrupt events when hammered from the pool.  Also pins the snapshot's
// layout: every counter, then every gauge, by name.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "obs/counters.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

namespace {

using namespace finwork;

constexpr std::size_t kIters = 20000;

class ObsStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::trace_reset();
    obs::events_reset();
    obs::counters_reset();
  }
};

TEST_F(ObsStressTest, CountersAreExactlyAdditiveUnderContention) {
  par::parallel_for(0, kIters, [](std::size_t i) {
    obs::counter_add(obs::Counter::kSimReplications);
    obs::counter_add(obs::Counter::kNeumannIterations, 3);
    obs::gauge_raise(obs::Gauge::kMaxQueueDepth, static_cast<std::uint64_t>(i));
  });
  EXPECT_EQ(obs::counter_value(obs::Counter::kSimReplications), kIters);
  EXPECT_EQ(obs::counter_value(obs::Counter::kNeumannIterations), 3 * kIters);
  EXPECT_EQ(obs::gauge_value(obs::Gauge::kMaxQueueDepth), kIters - 1);
}

TEST_F(ObsStressTest, SpansRecordedFromAllPoolThreadsAreAllRetained) {
  par::parallel_for(0, kIters, [](std::size_t) {
    const obs::ObsSpan span("test/stress_span");
  });
  std::uint64_t recorded = 0;
  for (const obs::SpanStats& s : obs::trace_summary()) {
    if (s.name == "test/stress_span") recorded = s.count;
  }
  EXPECT_EQ(recorded, kIters);
  EXPECT_EQ(obs::counter_value(obs::Counter::kTraceEventsDropped), 0u);

  // parallel_for may run entirely inline for tiny ranges, but at this size
  // it must have dispatched to the pool, which feeds the task counters.
  EXPECT_GT(obs::counter_value(obs::Counter::kPoolTasksExecuted), 0u);
}

TEST_F(ObsStressTest, StructuredEventsSurviveConcurrentEmission) {
  constexpr std::size_t kEvents = 256;  // below the sink's retention cap
  par::parallel_for(0, kEvents, [](std::size_t i) {
    obs::emit_event("test/concurrent", "obj", i, obs::kNoIndex, "detail");
  });
  const auto events = obs::events_snapshot();
  EXPECT_EQ(events.size(), kEvents);
  for (const obs::StructuredEvent& ev : events) {
    EXPECT_EQ(ev.category, "test/concurrent");
    EXPECT_EQ(ev.object, "obj");
    EXPECT_LT(ev.level, kEvents);
  }
}

TEST_F(ObsStressTest, EventsPastTheSinkCapAreCounted) {
  constexpr std::size_t kCap = 4096;
  for (std::size_t i = 0; i <= kCap; ++i) {
    obs::emit_event("test/overflow", "obj", i);
  }
  EXPECT_EQ(obs::events_snapshot().size(), kCap);
  EXPECT_EQ(obs::counter_value(obs::Counter::kTraceEventsDropped), 1u);
}

TEST_F(ObsStressTest, SnapshotWhileRecordingDoesNotTearOrDeadlock) {
  par::ThreadPool pool(4);
  auto writer = pool.submit([] {
    for (std::size_t i = 0; i < 5000; ++i) {
      const obs::ObsSpan span("test/reader_writer");
      obs::counter_add(obs::Counter::kEpochRecursions);
    }
  });
  // Drain concurrently with the writer; every snapshot must be coherent.
  for (int round = 0; round < 50; ++round) {
    for (const obs::TraceEvent& ev : obs::trace_snapshot()) {
      ASSERT_NE(ev.name, nullptr);
      ASSERT_GE(ev.tid, 1u);
    }
    (void)obs::counters_snapshot();
  }
  writer.get();
  EXPECT_EQ(obs::counter_value(obs::Counter::kEpochRecursions), 5000u);
}

TEST_F(ObsStressTest, SnapshotListsEveryCounterThenEveryGaugeByName) {
  constexpr auto kCounters = static_cast<std::size_t>(obs::Counter::kCount);
  constexpr auto kGauges = static_cast<std::size_t>(obs::Gauge::kCount);
  obs::counter_add(obs::Counter::kLuReuseHits, 2);
  obs::gauge_raise(obs::Gauge::kMaxQueueDepth, 7);
  const std::vector<obs::CounterSnapshot> snap = obs::counters_snapshot();
  ASSERT_EQ(snap.size(), kCounters + kGauges);
  for (std::size_t i = 0; i < kCounters; ++i) {
    EXPECT_EQ(snap[i].name, obs::counter_name(static_cast<obs::Counter>(i)));
  }
  for (std::size_t i = 0; i < kGauges; ++i) {
    EXPECT_EQ(snap[kCounters + i].name,
              obs::gauge_name(static_cast<obs::Gauge>(i)));
  }
  const auto lu = static_cast<std::size_t>(obs::Counter::kLuReuseHits);
  EXPECT_EQ(snap[lu].name, "solver.lu_reuse_hits");
  EXPECT_EQ(snap[lu].value, 2u);
  const auto depth = static_cast<std::size_t>(obs::Gauge::kMaxQueueDepth);
  EXPECT_EQ(snap[kCounters + depth].name, "pool.max_queue_depth");
  EXPECT_EQ(snap[kCounters + depth].value, 7u);

  obs::counters_reset();
  for (const obs::CounterSnapshot& s : obs::counters_snapshot()) {
    EXPECT_EQ(s.value, 0u) << s.name;
  }
}

}  // namespace
