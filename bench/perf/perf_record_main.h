#pragma once
// Shared main() for the perf harnesses: run google-benchmark as usual (the
// console table still prints), then write a machine-readable finwork perf
// record so repeated runs are diffable (obs/perf_record.h documents the
// schema).  The record lands in BENCH_<tool>.json in the working directory
// unless --perf-out=PATH says otherwise; --perf-out is consumed here and
// never reaches google-benchmark.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <iostream>
#include <map>
#include <stop_token>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "linalg/sparse.h"
#include "obs/perf_record.h"
#include "obs/trace.h"

namespace finwork::bench {

/// Console output plus capture of every finished run into PerfEntry rows.
class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    ConsoleReporter::ReportRuns(report);
    for (const Run& run : report) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      obs::PerfEntry entry;
      entry.name = run.benchmark_name();
      entry.real_seconds = run.real_accumulated_time;
      entry.iterations = static_cast<std::uint64_t>(run.iterations);
      entry.metrics["cpu_seconds"] = run.cpu_accumulated_time;
      for (const auto& [name, counter] : run.counters) {
        entry.metrics[name] = counter.value;
      }
      entries_.push_back(std::move(entry));
    }
  }

  std::vector<obs::PerfEntry> take_entries() { return std::move(entries_); }

 private:
  std::vector<obs::PerfEntry> entries_;
};

/// The phase table of a harness run.  A background thread folds the
/// recorded spans into it every 20 ms and clears the trace buffers in the
/// same pass (obs::trace_summary(true)), so no thread's buffer fills, even
/// within one benchmark, and the record drops no span
/// (tools/check_perf_record.py rejects a record that did).
class PhaseTable {
 public:
  PhaseTable()
      : drainer_([this](const std::stop_token& stop) {
          try {
            while (!stop.stop_requested()) {
              std::this_thread::sleep_for(std::chrono::milliseconds(20));
              absorb();
            }
          } catch (...) {
            failure_ = std::current_exception();
          }
        }) {}
  PhaseTable(const PhaseTable&) = delete;
  PhaseTable& operator=(const PhaseTable&) = delete;

  /// Stops the drain; every span recorded so far, by total time.  Rethrows
  /// what stopped the drain early, if anything did.
  std::vector<obs::SpanStats> take() {
    drainer_.request_stop();
    drainer_.join();
    if (failure_) std::rethrow_exception(failure_);
    absorb();
    std::vector<obs::SpanStats> out;
    for (auto& [name, stats] : phases_) out.push_back(std::move(stats));
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.total_ns > b.total_ns;
    });
    return out;
  }

 private:
  void absorb() {
    for (const obs::SpanStats& s : obs::trace_summary(/*drain=*/true)) {
      obs::SpanStats& p = phases_[s.name];
      p.min_ns = p.count == 0 ? s.min_ns : std::min(p.min_ns, s.min_ns);
      p.max_ns = std::max(p.max_ns, s.max_ns);
      p.name = s.name;
      p.count += s.count;
      p.total_ns += s.total_ns;
    }
  }

  std::map<std::string, obs::SpanStats> phases_;
  std::exception_ptr failure_;
  std::jthread drainer_;  ///< last: joined before what it uses goes
};

inline int perf_record_main(const char* tool, int argc, char** argv) {
  std::string out_path = std::string("BENCH_") + tool + ".json";
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--perf-out=", 0) == 0) {
      out_path = arg.substr(11);
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());

  obs::PerfRecord record(tool);
  RecordingReporter reporter;
  PhaseTable phases;
  const std::size_t ran = benchmark::RunSpecifiedBenchmarks(&reporter);
  for (obs::PerfEntry& entry : reporter.take_entries()) {
    record.add_entry(std::move(entry));
  }
  record.set_phases(phases.take());
  record.set_meta("benchmarks_run", std::to_string(ran));
  // The Neumann sweep this host runs: the timings of the iterative level
  // solves are only comparable between records of the same kernel.
  record.set_meta("neumann_kernel", la::detail::host_sweep_kernel() ==
                                            la::detail::SweepKernel::kAvx512
                                        ? "avx512"
                                        : "portable");
  benchmark::Shutdown();

  if (!record.write_file(out_path)) {
    std::cerr << "perf_record: cannot write " << out_path << '\n';
    return 1;
  }
  std::cout << "perf record written to " << out_path << '\n';
  return 0;
}

}  // namespace finwork::bench

#define FINWORK_PERF_RECORD_MAIN(tool)                            \
  int main(int argc, char** argv) {                               \
    return finwork::bench::perf_record_main(tool, argc, argv);    \
  }
