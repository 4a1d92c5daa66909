#include "obs/perf_record.h"

#include <fstream>
#include <iomanip>
#include <ostream>

#include "obs/counters.h"
#include "obs/trace.h"

#ifndef FINWORK_GIT_SHA
#define FINWORK_GIT_SHA "unknown"
#endif
#ifndef FINWORK_BUILD_TYPE_STR
#define FINWORK_BUILD_TYPE_STR "unknown"
#endif
#ifndef FINWORK_SANITIZE_STR
#define FINWORK_SANITIZE_STR "none"
#endif

namespace finwork::obs {

namespace {

void write_json_number(std::ostream& out, double v) {
  // JSON has no NaN/Inf; clamp defensively to null.
  if (v != v || v > 1e308 || v < -1e308) {
    out << "null";
  } else {
    out << v;
  }
}

}  // namespace

PerfRecord::PerfRecord(std::string tool)
    : tool_(std::move(tool)), created_ns_(now_ns()) {}

void PerfRecord::set_meta(const std::string& key, std::string value) {
  meta_[key] = std::move(value);
}

void PerfRecord::set_phases(std::vector<SpanStats> phases) {
  phases_ = std::move(phases);
}

void PerfRecord::add_entry(PerfEntry entry) {
  entries_.push_back(std::move(entry));
}

std::string PerfRecord::build_git_sha() { return FINWORK_GIT_SHA; }
std::string PerfRecord::build_type() { return FINWORK_BUILD_TYPE_STR; }
std::string PerfRecord::build_sanitize() { return FINWORK_SANITIZE_STR; }

void PerfRecord::write(std::ostream& out) const {
  const double wall =
      static_cast<double>(now_ns() - created_ns_) / 1e9;
  const auto esc = [](std::string_view s) { return detail::json_escape(s); };
  out << std::setprecision(15);
  out << "{\n"
      << "  \"schema\": \"finwork-perf-record/1\",\n"
      << "  \"tool\": \"" << esc(tool_) << "\",\n"
      << "  \"git_sha\": \"" << esc(build_git_sha()) << "\",\n"
      << "  \"build_type\": \"" << esc(build_type()) << "\",\n"
      << "  \"sanitize\": \"" << esc(build_sanitize()) << "\",\n"
      << "  \"wall_seconds\": ";
  write_json_number(out, wall);
  out << ",\n  \"meta\": {";
  bool first = true;
  for (const auto& [key, value] : meta_) {
    out << (first ? "" : ",") << "\n    \"" << esc(key) << "\": \""
        << esc(value) << '"';
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"benchmarks\": [";
  first = true;
  for (const PerfEntry& e : entries_) {
    out << (first ? "" : ",") << "\n    {\"name\": \"" << esc(e.name)
        << "\", \"real_seconds\": ";
    write_json_number(out, e.real_seconds);
    out << ", \"iterations\": " << e.iterations
        << ", \"seconds_per_iteration\": ";
    write_json_number(out, e.iterations > 0
                               ? e.real_seconds /
                                     static_cast<double>(e.iterations)
                               : 0.0);
    out << ", \"metrics\": {";
    bool first_metric = true;
    for (const auto& [key, value] : e.metrics) {
      out << (first_metric ? "" : ", ") << '"' << esc(key) << "\": ";
      write_json_number(out, value);
      first_metric = false;
    }
    out << "}}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "],\n  \"phases\": [";
  first = true;
  for (const SpanStats& s : phases_ ? *phases_ : trace_summary()) {
    const auto ms = [](std::uint64_t ns) {
      return static_cast<double>(ns) / 1e6;
    };
    out << (first ? "" : ",") << "\n    {\"name\": \"" << esc(s.name)
        << "\", \"count\": " << s.count << ", \"total_ms\": ";
    write_json_number(out, ms(s.total_ns));
    out << ", \"mean_ms\": ";
    write_json_number(out, ms(s.total_ns) / static_cast<double>(s.count));
    out << ", \"min_ms\": ";
    write_json_number(out, ms(s.min_ns));
    out << ", \"max_ms\": ";
    write_json_number(out, ms(s.max_ns));
    out << '}';
    first = false;
  }
  out << (first ? "" : "\n  ") << "],\n  \"counters\": {";
  first = true;
  for (const CounterSnapshot& c : counters_snapshot()) {
    out << (first ? "" : ",") << "\n    \"" << esc(c.name)
        << "\": " << c.value;
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
}

bool PerfRecord::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write(out);
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace finwork::obs
