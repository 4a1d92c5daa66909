#pragma once
// Machine-readable perf records: a small JSON document capturing what a
// benchmark run measured (per-benchmark wall times), what the registry
// counted (counters, gauges, span summary), and which build produced it
// (git SHA, build type, sanitizer).  Repeated runs of the same harness
// emit structurally identical documents, so BENCH_*.json files are
// diffable and chartable — the repo's perf trajectory.
//
// Schema ("finwork-perf-record/1"):
//   {
//     "schema": "finwork-perf-record/1",
//     "tool": "perf_solver_scaling",
//     "git_sha": "...", "build_type": "...", "sanitize": "...",
//     "wall_seconds": 1.23,
//     "meta": { ... },                        // free-form string pairs
//     "benchmarks": [ {"name": ..., "real_seconds": ...,
//                      "iterations": ..., "seconds_per_iteration": ...,
//                      "metrics": { ... }} ],
//     "phases":     [ {"name": ..., "count": ..., "total_ms": ...,
//                      "mean_ms": ..., "min_ms": ..., "max_ms": ...} ],
//     "counters":   { "solver.lu_reuse_hits": 12, ... }
//   }

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"

// Inclusion marker (see obs/counters.h).
#define FINWORK_OBS_INCLUDED 1

namespace finwork::obs {

/// One benchmark (or phase) measurement inside a perf record.
struct PerfEntry {
  std::string name;
  double real_seconds = 0.0;  ///< total measured wall time of the benchmark
  std::uint64_t iterations = 1;
  std::map<std::string, double> metrics;  ///< user counters etc.
};

class PerfRecord {
 public:
  explicit PerfRecord(std::string tool);

  void set_meta(const std::string& key, std::string value);
  void add_entry(PerfEntry entry);
  /// The phase table to write instead of trace_summary(): a harness that
  /// drains the trace buffers as it runs keeps its own.
  void set_phases(std::vector<SpanStats> phases);

  /// Serialize the record, embedding the current counter values and span
  /// summary from the registry.  `wall_seconds` covers construction to now.
  void write(std::ostream& out) const;
  /// Write to `path`; returns false if the file cannot be opened/written.
  [[nodiscard]] bool write_file(const std::string& path) const;

  /// Build metadata baked in by CMake ("unknown" outside a git checkout).
  [[nodiscard]] static std::string build_git_sha();
  [[nodiscard]] static std::string build_type();
  [[nodiscard]] static std::string build_sanitize();

 private:
  std::string tool_;
  std::map<std::string, std::string> meta_;
  std::vector<PerfEntry> entries_;
  std::optional<std::vector<SpanStats>> phases_;
  std::uint64_t created_ns_ = 0;
};

}  // namespace finwork::obs
