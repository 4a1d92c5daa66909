// finwork benchmark driver: one workload per process, run as a closed loop
// with one client.  Ops are issued back-to-back from the main thread; the
// only other threads are the program's global par::ThreadPool (plus, in the
// traced run only, the private one-worker pool of the serial baseline).
//
//   finwork_bench --workload <figures|large_n|sparse_k|deadline>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--reference-dir <dir>] [--out-dir <dir>]
//                 [--write-reference]
//
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 they are
// the per-layer set, measured in a separate traced invocation (see README.md).

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/experiments.h"
#include "core/model_cache.h"
#include "core/transient_solver.h"
#include "linalg/iterative.h"
#include "linalg/lu.h"
#include "linalg/sparse.h"
#include "network/state_space.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

namespace {

using namespace finwork;
using Clock = std::chrono::steady_clock;

// Taken during static initialization, before main: the closest in-process
// stand-in for "process start" that setup_s is measured from.
const Clock::time_point g_process_start = Clock::now();

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest whole percentile that leaves at least ten samples above it
/// (nearest-rank); {0, max} when there are too few samples for any.
std::pair<int, double> tail(std::vector<double> v) {
  if (v.empty()) return {0, 0.0};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  for (int p = 99; p >= 50; --p) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(static_cast<double>(p) / 100.0 * static_cast<double>(n)));
    if (rank >= 1 && n - rank >= 10) return {p, v[rank - 1]};
  }
  return {0, v.back()};
}

std::string tail_label(int pct, std::size_t n) {
  return (pct == 0 ? std::string("max") : "p" + std::to_string(pct)) + " of " +
         std::to_string(n);
}

bool rel_close(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b));
}

// ---------------------------------------------------------------------------
// Counters: per-op deltas of obs::counters_snapshot(), looked up by name so
// the benchmark keeps compiling when a counter is added or retired (a
// missing name reads as 0).

using Counts = std::map<std::string, double>;

Counts read_counters() {
  Counts c;
  for (const obs::CounterSnapshot& s : obs::counters_snapshot()) {
    c[s.name] = static_cast<double>(s.value);
  }
  return c;
}

double count_of(const Counts& c, const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0.0 : it->second;
}

// ---------------------------------------------------------------------------
// The benchmark's own spans, around calls into the program's public API.
// Recorded only in the traced run, only on the main thread.

class Tracer {
 public:
  struct Event {
    std::string name;
    double start_us = 0.0;
    double dur_us = 0.0;
    double self_us = 0.0;
    int op = -1;
  };

  bool enabled = false;
  int op = -1;
  std::vector<Event> events;

  void begin() { child_us_.push_back(0.0); }
  void end(const std::string& name, Clock::time_point t0, Clock::time_point t1) {
    const double dur = 1000.0 * ms_between(t0, t1);
    const double child = child_us_.back();
    child_us_.pop_back();
    if (!child_us_.empty()) child_us_.back() += dur;
    events.push_back({name, 1000.0 * ms_between(g_process_start, t0), dur,
                      dur - child, op});
  }

 private:
  std::vector<double> child_us_;
};

Tracer g_tracer;

class Span {
 public:
  explicit Span(std::string name) : name_(std::move(name)) {
    if (g_tracer.enabled) g_tracer.begin();
    start_ = Clock::now();
  }
  ~Span() {
    if (g_tracer.enabled) g_tracer.end(name_, start_, Clock::now());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::string name_;
  Clock::time_point start_;
};

/// Median wall time of `reps` calls of `fn`, in microseconds.
double time_us(int reps, const std::function<void()>& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto a = Clock::now();
    fn();
    t.push_back(1000.0 * ms_between(a, Clock::now()));
  }
  return median(t);
}

/// A fixed CPU loop that touches nothing of the program: it tells a slow
/// host window apart from a slow program.
double calibrate_ms() {
  std::vector<double> t;
  for (int rep = 0; rep < 5; ++rep) {
    const auto a = Clock::now();
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    double acc = 0.0;
    for (int i = 0; i < 4'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += static_cast<double>(x >> 11) * 0x1.0p-53;
    }
    t.push_back(ms_between(a, Clock::now()));
    if (acc < 0.0) std::puts("");  // keeps the loop observable
  }
  return median(t);
}

// ---------------------------------------------------------------------------
// Reference tables, kept with the benchmark.

struct Reference {
  std::map<std::string, std::vector<double>> tables;  // id -> row-major cells
  std::map<std::string, double> scalars;
};

Reference load_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference " + path);
  Reference ref;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string kind, id;
    ss >> kind >> id;
    if (kind == "table") {
      std::vector<double>& cells = ref.tables[id];
      double v = 0.0;
      while (ss >> v) cells.push_back(v);
    } else if (kind == "scalar") {
      ss >> ref.scalars[id];
    }
  }
  return ref;
}

void write_reference(const std::string& path, const Reference& ref,
                     const std::string& header) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write reference " + path);
  out << "# " << header << "\n";
  char buf[64];
  for (const auto& [id, v] : ref.scalars) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out << "scalar " << id << " " << buf << "\n";
  }
  for (const auto& [id, cells] : ref.tables) {
    out << "table " << id;
    for (double v : cells) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
      out << " " << buf;
    }
    out << "\n";
  }
}

// ---------------------------------------------------------------------------
// Workloads.

/// One op's outputs: every number it produced (compared bitwise between the
/// pooled and inline runs) plus the named tables used by the checks.
struct OpResult {
  std::vector<double> values;
  std::map<std::string, std::vector<double>> tables;
  /// Untimed work inside the op (figures: emptying the cache between
  /// figures), taken off the op's wall and CPU time.
  double untimed_ms = 0.0;
  double untimed_cpu_s = 0.0;
};

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  /// Setup before the first op: generate inputs from the seed, acquire the
  /// model.  Runs from a cleared ModelCache.
  virtual void prepare() = 0;
  /// Untimed, before every op.
  virtual void before_op() {}
  /// One op, through the public API.
  virtual OpResult run_op() = 0;
  /// Empty when the op's outputs are correct, else the reason.
  virtual std::string check(const OpResult& r) const = 0;
  /// Cache misses one op must incur (figures: its distinct models).
  virtual double expected_misses_per_op() const { return 0.0; }
  /// Model of this workload for the layer probes.
  virtual std::pair<net::NetworkSpec, std::size_t> probe_model() const = 0;
  /// N for the saturated-phase probe (epochs to mixing).
  virtual std::size_t probe_tasks() const { return 100000; }
  /// Generate the reference file kept with the benchmark.
  virtual void write_reference_file(const std::string&) const {
    throw std::runtime_error("this workload keeps no reference file");
  }
};

cluster::ClusterShapes remote_disk_shape(double scv) {
  cluster::ClusterShapes s;
  s.remote_disk = cluster::ServiceShape::from_scv(scv);
  return s;
}

cluster::ClusterShapes cpu_shape(cluster::ServiceShape shape) {
  cluster::ClusterShapes s;
  s.cpu = std::move(shape);
  return s;
}

cluster::ExperimentConfig make_config(cluster::Architecture arch,
                                      std::size_t k, bool coarse) {
  cluster::ExperimentConfig c;
  c.architecture = arch;
  c.workstations = k;
  if (coarse) c.app = cluster::ApplicationModel::coarse_grained();
  return c;
}

/// The 13 experiment-driver calls of the paper's Figures 3-15, at the grids
/// of bench/figures/fig03..fig15.
struct FigureCall {
  std::string id;
  std::string layer;  // per-layer metric the call's time is added to
  std::function<io::Table()> run;
};

std::vector<FigureCall> figure_calls() {
  using cluster::Architecture;
  using cluster::ServiceShape;
  const std::vector<cluster::ShapeVariant> shared_disk = {
      {"Exp", {}},
      {"H2_C2_10", remote_disk_shape(10.0)},
      {"H2_C2_50", remote_disk_shape(50.0)},
  };
  const std::vector<cluster::ShapeVariant> dedicated_cpu = {
      {"Exp", {}},
      {"E3", cpu_shape(ServiceShape::erlang(3))},
      {"H2_C2_2", cpu_shape(ServiceShape::hyperexponential(2.0))},
  };
  const std::vector<cluster::ShapeVariant> fig15_cpu = {
      {"Exp", {}},
      {"E2", cpu_shape(ServiceShape::erlang(2))},
      {"H2_C2_2", cpu_shape(ServiceShape::hyperexponential(2.0))},
  };
  const std::vector<double> scv = {1.0,  5.0,  10.0, 20.0, 30.0, 40.0,
                                   50.0, 60.0, 70.0, 80.0, 90.0};
  std::vector<double> scv100 = scv;
  scv100.push_back(100.0);
  const std::vector<double> cpu_scv = {1.0 / 3.0, 0.5, 1.0, 5.0, 10.0};
  const std::vector<std::size_t> ks = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const auto central = Architecture::kCentral;
  const auto distributed = Architecture::kDistributed;

  return {
      {"fig03", "cluster.interdeparture_ms",
       [=] {
         return cluster::interdeparture_series(
             make_config(central, 5, false), shared_disk, 30);
       }},
      {"fig04", "cluster.interdeparture_ms",
       [=] {
         return cluster::interdeparture_series(
             make_config(central, 8, false), shared_disk, 30);
       }},
      {"fig05", "cluster.steady_state_vs_scv_ms",
       [=] {
         return cluster::steady_state_vs_scv(make_config(central, 8, false),
                                             scv100);
       }},
      {"fig06", "cluster.prediction_error_ms",
       [=] {
         return cluster::prediction_error_vs_scv(
             make_config(distributed, 5, false), scv, {30, 100});
       }},
      {"fig07", "cluster.prediction_error_ms",
       [=] {
         return cluster::prediction_error_vs_scv(
             make_config(central, 8, false), scv, {30, 100});
       }},
      {"fig08", "cluster.speedup_vs_scv_ms",
       [=] {
         return cluster::speedup_vs_scv(make_config(central, 5, false), scv,
                                        {30, 100});
       }},
      {"fig09", "cluster.speedup_vs_scv_ms",
       [=] {
         return cluster::speedup_vs_scv(make_config(central, 8, false), scv,
                                        {30, 100});
       }},
      {"fig10", "cluster.interdeparture_ms",
       [=] {
         return cluster::interdeparture_series(
             make_config(distributed, 5, true), dedicated_cpu, 20);
       }},
      {"fig11", "cluster.interdeparture_ms",
       [=] {
         return cluster::interdeparture_series(make_config(central, 8, true),
                                               dedicated_cpu, 30);
       }},
      {"fig12", "cluster.prediction_error_cpu_ms",
       [=] {
         return cluster::prediction_error_vs_cpu_scv(
             make_config(central, 5, true), cpu_scv, {30});
       }},
      {"fig13", "cluster.prediction_error_cpu_ms",
       [=] {
         return cluster::prediction_error_vs_cpu_scv(
             make_config(central, 8, true), cpu_scv, {30});
       }},
      {"fig14", "cluster.speedup_vs_k_ms",
       [=] {
         cluster::ExperimentConfig c = make_config(central, 5, true);
         return cluster::speedup_vs_k(c, ks, {20, 100, 200});
       }},
      {"fig15", "cluster.speedup_vs_k_shapes_ms",
       [=] {
         cluster::ExperimentConfig c = make_config(central, 5, true);
         return cluster::speedup_vs_k_shapes(c, ks, fig15_cpu, 100);
       }},
  };
}

std::vector<double> table_cells(const io::Table& t) {
  std::vector<double> cells;
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    for (std::size_t c = 0; c < t.num_columns(); ++c) {
      cells.push_back(t.at(r, c));
    }
  }
  return cells;
}

/// Every figure driver, each from an emptied model cache as each figure
/// binary starts in its own process: model building plus coarse sweep
/// fan-out.  (One cache across all 13 would hold 93 distinct models in an LRU
/// of 32, so evictions would rebuild a scheduling-dependent number of them.)
class FiguresWorkload final : public Workload {
 public:
  FiguresWorkload(std::uint64_t seed, const std::string& ref_path)
      : seed_(seed), ref_path_(ref_path) {}

  void prepare() override {
    calls_ = figure_calls();
    std::mt19937_64 rng(seed_);
    std::shuffle(calls_.begin(), calls_.end(), rng);
    ref_ = load_reference(ref_path_);
  }
  void before_op() override { core::ModelCache::global().clear(); }
  OpResult run_op() override {
    OpResult r;
    for (const FigureCall& call : calls_) {
      if (&call != &calls_.front()) {
        const double cpu0 = cpu_seconds();
        const auto t0 = Clock::now();
        core::ModelCache::global().clear();
        r.untimed_ms += ms_between(t0, Clock::now());
        r.untimed_cpu_s += cpu_seconds() - cpu0;
      }
      const Span span(call.layer);
      r.tables[call.id] = table_cells(call.run());
    }
    for (const auto& [id, cells] : r.tables) {
      r.values.insert(r.values.end(), cells.begin(), cells.end());
    }
    return r;
  }
  std::string check(const OpResult& r) const override {
    if (r.tables.size() != ref_.tables.size()) return "figure count differs";
    for (const auto& [id, cells] : ref_.tables) {
      const auto it = r.tables.find(id);
      if (it == r.tables.end()) return id + " missing";
      if (it->second.size() != cells.size()) return id + " shape differs";
      for (std::size_t i = 0; i < cells.size(); ++i) {
        if (!std::isfinite(it->second[i]) ||
            !rel_close(it->second[i], cells[i], 1e-8)) {
          return id + " cell " + std::to_string(i) + " off reference";
        }
      }
    }
    return "";
  }
  double expected_misses_per_op() const override {
    return ref_.scalars.at("distinct_models");
  }
  std::pair<net::NetworkSpec, std::size_t> probe_model() const override {
    // Figure 6's C^2 = 10 point: the figure that dominates the op.
    cluster::ExperimentConfig c =
        make_config(cluster::Architecture::kDistributed, 5, false);
    c.shapes = remote_disk_shape(10.0);
    return {cluster::build_cluster(c), 5};
  }
  void write_reference_file(const std::string& path) const override {
    const double misses0 = count_of(read_counters(), "cache.model_misses");
    Reference ref;
    for (const FigureCall& call : figure_calls()) {
      core::ModelCache::global().clear();
      ref.tables[call.id] = table_cells(call.run());
    }
    ref.scalars["distinct_models"] =
        count_of(read_counters(), "cache.model_misses") - misses0;
    write_reference(path, ref,
                    "figures: cells of the Figures 3-15 driver tables "
                    "(row-major) and the models one op builds, each figure "
                    "from an emptied cache");
  }

 private:
  std::uint64_t seed_;
  std::string ref_path_;
  std::vector<FigureCall> calls_;
  Reference ref_;
};

/// The saturated-phase what-if queries on a cached model: makespan at one
/// large N, the N grid, the moments and the moments grid.
class LargeNWorkload : public Workload {
 public:
  LargeNWorkload(std::uint64_t seed, bool all_four) : all_four_(all_four) {
    std::mt19937_64 rng(seed);
    tasks_ = std::uniform_int_distribution<std::size_t>(500000, 1000000)(rng);
  }

  void prepare() override {
    spec_ = spec();
    (void)core::ModelCache::global().acquire(*spec_, k());
  }
  OpResult run_op() override {
    const std::vector<std::size_t> grid = {100, 1000, 10000, 100000, tasks_};
    const core::TransientSolver solver(
        core::ModelCache::global().acquire(*spec_, k()));
    OpResult r;
    {
      const Span span("solver.makespan_ms");
      r.tables["makespan"] = {solver.makespan(tasks_)};
    }
    {
      const Span span("solver.makespan_grid_ms");
      r.tables["grid"] = solver.makespan_grid(grid);
    }
    if (all_four_) {
      {
        const Span span("solver.moments_ms");
        const core::MakespanMoments m = solver.makespan_moments(100000);
        r.tables["moments"] = {m.mean, m.second_moment, m.variance};
      }
      const Span span("solver.moments_grid_ms");
      std::vector<double>& mg = r.tables["moments_grid"];
      for (const core::MakespanMoments& m : solver.makespan_moments_grid(grid)) {
        mg.push_back(m.mean);
        mg.push_back(m.variance);
      }
    }
    for (const auto& [id, v] : r.tables) {
      r.values.insert(r.values.end(), v.begin(), v.end());
    }
    return r;
  }
  std::string check(const OpResult& r) const override {
    for (const auto& [id, v] : r.tables) {
      for (double x : v) {
        if (!std::isfinite(x) || x <= 0.0) return id + " not positive";
      }
    }
    const std::vector<double>& grid = r.tables.at("grid");
    const double at_n = r.tables.at("makespan")[0];
    if (!rel_close(grid.back(), at_n, 1e-10)) {
      return "grid entry at N differs from makespan(N)";
    }
    for (std::size_t i = 1; i < grid.size(); ++i) {
      if (grid[i] <= grid[i - 1]) return "E(T) not increasing in N";
    }
    if (!all_four_) return "";
    if (!rel_close(r.tables.at("moments")[0], grid[3], 1e-9)) {
      return "moments mean differs from makespan(1e5)";
    }
    const std::vector<double>& mg = r.tables.at("moments_grid");
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (!rel_close(mg[2 * i], grid[i], 1e-9)) {
        return "moments-grid mean differs from makespan grid";
      }
    }
    return "";
  }
  std::pair<net::NetworkSpec, std::size_t> probe_model() const override {
    return {spec(), k()};
  }
  std::size_t probe_tasks() const override { return tasks_; }

 protected:
  virtual net::NetworkSpec spec() const {
    return cluster::build_cluster(
        make_config(cluster::Architecture::kDistributed, 6, false));
  }
  virtual std::size_t k() const { return 6; }

 private:
  bool all_four_;
  std::size_t tasks_ = 0;
  std::optional<net::NetworkSpec> spec_;
};

/// The large_n query shape on a level-K operator big enough for the
/// parallel CSR row panels.
class SparseKWorkload final : public LargeNWorkload {
 public:
  explicit SparseKWorkload(std::uint64_t seed) : LargeNWorkload(seed, false) {}

 protected:
  net::NetworkSpec spec() const override {
    cluster::ExperimentConfig c =
        make_config(cluster::Architecture::kDistributed, 5, false);
    c.shapes.remote_disk = cluster::ServiceShape::from_scv(10.0);
    c.shapes.cpu = cluster::ServiceShape::hyperexponential(2.0);
    return cluster::build_cluster(c);
  }
  std::size_t k() const override { return 5; }
};

/// The deadline-planning query: moments plus P(T <= d) at four deadlines,
/// by uniformization over the layered chain.
class DeadlineWorkload final : public Workload {
 public:
  static constexpr std::uint64_t kReferenceSeed = 1;
  static constexpr std::size_t kTasks = 30;

  DeadlineWorkload(std::uint64_t seed, const std::string& ref_path)
      : seed_(seed), ref_path_(ref_path) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> jitter(-0.05, 0.05);
    for (double base : {0.8, 1.0, 1.2, 1.4}) {
      multipliers_.push_back(base + jitter(rng));
    }
  }

  void prepare() override {
    spec_ = spec();
    (void)core::ModelCache::global().acquire(*spec_, 5);
    if (seed_ == kReferenceSeed) ref_ = load_reference(ref_path_);
  }
  OpResult run_op() override {
    const core::TransientSolver solver(
        core::ModelCache::global().acquire(*spec_, 5));
    OpResult r;
    core::MakespanMoments m;
    {
      const Span span("solver.moments_ms");
      m = solver.makespan_moments(kTasks);
    }
    std::vector<double> times;
    for (double f : multipliers_) times.push_back(f * m.mean);
    {
      const Span span("solver.cdf_ms");
      r.tables["cdf"] = solver.makespan_cdf(kTasks, times);
    }
    r.tables["moments"] = {m.mean, m.variance};
    r.values = r.tables["moments"];
    r.values.insert(r.values.end(), r.tables["cdf"].begin(),
                    r.tables["cdf"].end());
    return r;
  }
  std::string check(const OpResult& r) const override {
    const std::vector<double>& cdf = r.tables.at("cdf");
    if (cdf.size() != multipliers_.size()) return "cdf size";
    for (std::size_t i = 0; i < cdf.size(); ++i) {
      if (!(cdf[i] >= 0.0 && cdf[i] <= 1.0)) return "cdf outside [0, 1]";
      if (i > 0 && cdf[i] < cdf[i - 1]) return "cdf decreasing in t";
    }
    if (seed_ != kReferenceSeed) return "";
    for (const auto& [id, ref] : ref_.tables) {
      const std::vector<double>& got = r.tables.at(id);
      for (std::size_t i = 0; i < ref.size(); ++i) {
        if (std::abs(got[i] - ref[i]) > 1e-9 * (id == "cdf" ? 1.0 : ref[i])) {
          return id + " off reference";
        }
      }
    }
    return "";
  }
  std::pair<net::NetworkSpec, std::size_t> probe_model() const override {
    return {spec(), 5};
  }
  void write_reference_file(const std::string& path) const override {
    if (seed_ != kReferenceSeed) {
      throw std::runtime_error("deadline references use --seed 1");
    }
    DeadlineWorkload w(seed_, path);
    w.spec_ = spec();
    const OpResult r = w.run_op();
    Reference ref;
    ref.tables = r.tables;
    write_reference(path, ref,
                    "deadline at --seed 1: moments {mean, variance} and "
                    "P(T <= t) at the four seeded deadlines");
  }

 private:
  static net::NetworkSpec spec() {
    cluster::ExperimentConfig c =
        make_config(cluster::Architecture::kCentral, 5, false);
    c.shapes.remote_disk = cluster::ServiceShape::from_scv(4.0);
    return cluster::build_cluster(c);
  }

  std::uint64_t seed_;
  std::string ref_path_;
  std::vector<double> multipliers_;
  std::optional<net::NetworkSpec> spec_;
  Reference ref_;
};

// ---------------------------------------------------------------------------
// Driver.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool write_reference = false;
  std::string reference_dir = "perfbench/reference";
  std::string out_dir = ".bench_out";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--trace") {
      a.trace = value() == "1";
    } else if (flag == "--reference-dir") {
      a.reference_dir = value();
    } else if (flag == "--out-dir") {
      a.out_dir = value();
    } else if (flag == "--write-reference") {
      a.write_reference = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (a.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  const std::string ref = a.reference_dir + "/" + a.workload + ".txt";
  if (a.workload == "figures") {
    return std::make_unique<FiguresWorkload>(a.seed, ref);
  }
  if (a.workload == "large_n") {
    return std::make_unique<LargeNWorkload>(a.seed, true);
  }
  if (a.workload == "sparse_k") return std::make_unique<SparseKWorkload>(a.seed);
  if (a.workload == "deadline") {
    return std::make_unique<DeadlineWorkload>(a.seed, ref);
  }
  throw std::invalid_argument("unknown workload " + a.workload);
}

/// Setups per untraced run: setup_s is their median.  The traced run does
/// not report setup_s and sets up once.
constexpr int kSetupReps = 3;

/// Minimum timed ops per run, whatever --seconds says.
constexpr int kMinOps = 3;

struct OpRecord {
  double wall_ms = 0.0;
  double cpu_s = 0.0;
  bool ok = false;
  bool traced = false;
  std::string why;
  Counts counts;  // per-op counter values (reset before the op)
  std::map<std::string, double> span_ms;  // benchmark span totals
};

/// One op with the program state fixed beforehand: trace buffers and
/// counters cleared, workload-specific reset (figures empties the cache).
OpRecord run_one(Workload& w, bool traced, OpResult* out) {
  obs::trace_reset();
  obs::counters_reset();
  w.before_op();
  const std::size_t first_event = g_tracer.events.size();
  g_tracer.enabled = traced;
  OpRecord rec;
  rec.traced = traced;
  OpResult result;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  try {
    result = w.run_op();
    rec.ok = true;
  } catch (const std::exception& e) {
    rec.why = std::string("exception: ") + e.what();
  }
  const auto t1 = Clock::now();
  rec.cpu_s = cpu_seconds() - cpu0 - result.untimed_cpu_s;
  rec.wall_ms = ms_between(t0, t1) - result.untimed_ms;
  g_tracer.enabled = false;
  rec.counts = read_counters();
  for (std::size_t i = first_event; i < g_tracer.events.size(); ++i) {
    rec.span_ms[g_tracer.events[i].name] += g_tracer.events[i].dur_us / 1000.0;
  }
  if (rec.ok) {
    rec.why = w.check(result);
    const double misses = count_of(rec.counts, "cache.model_misses");
    if (rec.why.empty() && misses != w.expected_misses_per_op()) {
      rec.why = "cache misses " + std::to_string(misses) + " per op";
    }
    if (rec.why.empty() &&
        count_of(rec.counts, "cache.model_evictions") != 0.0) {
      rec.why = "cache evictions during the op";
    }
    if (rec.why.empty() &&
        count_of(rec.counts, "solver.fallback_activations") != 0.0) {
      rec.why = "fallback ladder activated";
    }
    if (rec.why.empty() && count_of(rec.counts, "trace.events_dropped") != 0.0) {
      rec.why = "trace events dropped";
    }
    rec.ok = rec.why.empty();
  }
  if (out != nullptr) *out = std::move(result);
  return rec;
}

/// Median over `ops` of a per-op quantity.
double median_of(const std::vector<OpRecord>& ops,
                 const std::function<double(const OpRecord&)>& f) {
  std::vector<double> v;
  for (const OpRecord& r : ops) v.push_back(f(r));
  return median(v);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string base;  // how a ratio was formed, for the per-layer table
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Layer probes for the traced run.

/// Network, cache and solver probes on the workload's own model.
void probe_own_model(const Workload& w, std::vector<Metric>& m) {
  const auto [spec, k] = w.probe_model();
  const std::string model_note = "K=" + std::to_string(k);

  double enumerate_ms = 0.0;
  {
    const auto t0 = Clock::now();
    const net::StateSpace space(spec, k);
    for (std::size_t j = 1; j <= k; ++j) (void)space.level(j);
    enumerate_ms = ms_between(t0, Clock::now());
  }
  m.push_back({"network.enumerate_ms", enumerate_ms, "ms",
               "StateSpace + level(1.." + std::to_string(k) + "), " +
                   model_note});

  core::ModelCache cache;
  std::shared_ptr<const core::ModelArtifacts> model;
  const auto t0 = Clock::now();
  model = cache.acquire(spec, k);
  for (std::size_t j = 1; j <= k; ++j) (void)model->tau(j);
  m.push_back({"cache.build_ms", ms_between(t0, Clock::now()), "ms",
               "private-cache miss + tau(1.." + std::to_string(k) + ")"});
  m.push_back({"cache.hit_us",
               time_us(101, [&] { (void)cache.acquire(spec, k); }), "us",
               "median of 101 hits"});

  const core::TransientSolver solver(model);
  const la::Vector pi = model->space().initial_vector(k);
  {
    const auto a = Clock::now();
    (void)solver.steady_state();
    m.push_back({"solver.steady_state_ms", ms_between(a, Clock::now()), "ms",
                 "first call on a fresh solver"});
  }
  m.push_back({"solver.epoch_solve_us",
               time_us(21, [&] { (void)model->solve_left(k, pi); }), "us",
               "solve_left(K, p_K), median of 21"});
  m.push_back({"solver.epoch_step_us",
               time_us(21, [&] { (void)solver.apply_r(k, solver.apply_y(k, pi)); }),
               "us", "apply_y + apply_r at K, median of 21"});
  const double t_mean = solver.mean_epoch_time(k, pi);
  m.push_back({"solver.uniformization_us",
               time_us(21, [&] { (void)solver.epoch_reliability(k, pi, t_mean); }),
               "us", "epoch_reliability(K, p_K, mean epoch), median of 21"});

  obs::counters_reset();
  (void)solver.makespan(w.probe_tasks());
  const Counts c = read_counters();
  m.push_back({"solver.epochs_to_mixing", count_of(c, "solver.epoch_recursions"),
               "count",
               "epoch recursions of makespan(" +
                   std::to_string(w.probe_tasks()) + ")"});
}

/// Kernel probes on fixed operators, the same on every workload.
void probe_kernels(std::vector<Metric>& m) {
  // Dense LU on the largest dense level of the Figure 6 C^2 = 10 model.
  {
    cluster::ExperimentConfig c =
        make_config(cluster::Architecture::kDistributed, 5, false);
    c.shapes = remote_disk_shape(10.0);
    const net::StateSpace space(cluster::build_cluster(c), 5);
    std::size_t level = 1;
    for (std::size_t j = 1; j <= 5; ++j) {
      if (space.dimension(j) <= 3000) level = j;
    }
    la::Matrix a = space.level(level).p.to_dense();
    a *= -1.0;
    for (std::size_t i = 0; i < a.rows(); ++i) a(i, i) += 1.0;
    std::unique_ptr<la::LuDecomposition> lu;
    const auto t0 = Clock::now();
    lu = std::make_unique<la::LuDecomposition>(a);
    m.push_back({"linalg.lu_factor_ms", ms_between(t0, Clock::now()), "ms",
                 "D=" + std::to_string(a.rows()) + " (fig06 C2=10, level " +
                     std::to_string(level) + ")"});
    const la::Vector b = space.initial_vector(level);
    m.push_back({"linalg.lu_solve_left_us",
                 time_us(21, [&] { (void)lu->solve_left(b); }), "us",
                 "D=" + std::to_string(a.rows()) + ", median of 21"});
  }
  // One epoch solve per iterative backend at level 6 of the large_n model.
  {
    const net::StateSpace space(
        cluster::build_cluster(
            make_config(cluster::Architecture::kDistributed, 6, false)),
        6);
    const la::CsrMatrix& p = space.level(6).p;
    const la::Vector b = space.initial_vector(6);
    const la::RowOperator apply_p = la::row_operator(p);
    const auto apply_a = [&](const la::Vector& v) { return v - apply_p(v); };
    const std::string note = "D=" + std::to_string(p.rows()) +
                             ", nnz=" + std::to_string(p.nnz());
    const auto backend = [&](const std::string& name,
                             const std::function<la::IterativeResult()>& f) {
      la::IterativeResult res;
      const auto t0 = Clock::now();
      res = f();
      m.push_back({"linalg." + name + "_solve_ms", ms_between(t0, Clock::now()),
                   "ms", note});
      m.push_back({"linalg." + name + "_iters",
                   static_cast<double>(res.iterations), "count",
                   res.converged ? note : note + ", NOT converged"});
    };
    backend("neumann", [&] { return la::neumann_solve_left(apply_p, b, 1e-12, 20000); });
    backend("bicgstab", [&] { return la::bicgstab_left(apply_a, b, 1e-12, 20000); });
    backend("gmres", [&] { return la::gmres_left(apply_a, b, 1e-12, 20000); });
  }
  // Serial against row-panel SpMV on the sparse_k level-5 operator.
  {
    SparseKWorkload sk(1);
    const auto [spec, k] = sk.probe_model();
    const net::StateSpace space(spec, k);
    const la::CsrMatrix& p = space.level(k).p;
    const la::Vector x = space.initial_vector(k);
    const std::string note =
        "D=" + std::to_string(p.rows()) + ", nnz=" + std::to_string(p.nnz());
    m.push_back({"linalg.spmv_left_us",
                 time_us(201, [&] { (void)p.apply_left(x); }), "us",
                 note + ", median of 201"});
    m.push_back({"linalg.spmv_left_parallel_us",
                 time_us(201, [&] {
                   (void)p.apply_left_parallel(x, par::ThreadPool::global());
                 }),
                 "us", note + ", median of 201"});
  }
}

bool bitwise_equal(const OpResult& a, const OpResult& b) {
  return a.values.size() == b.values.size() &&
         std::memcmp(a.values.data(), b.values.data(),
                     sizeof(double) * a.values.size()) == 0;
}

struct SerialRun {
  double wall_ms = 0.0;
  bool identical = false;    // bit for bit equal to the pooled op
  double max_rel_diff = 0.0;  // largest relative difference to it
  std::string why;            // the inline op's own failure, if any
};

/// The op as one task on a private one-worker pool, so every nested fan-out
/// runs inline, compared against the pooled op's outputs.
SerialRun run_serial(Workload& w, const OpResult& pooled) {
  par::ThreadPool serial_pool(1);
  OpRecord rec;
  OpResult inline_result;
  serial_pool.submit([&] { rec = run_one(w, false, &inline_result); }).get();
  SerialRun s;
  s.wall_ms = rec.wall_ms;
  s.why = rec.ok ? "" : rec.why;
  s.identical = bitwise_equal(inline_result, pooled);
  if (inline_result.values.size() != pooled.values.size()) {
    s.max_rel_diff = INFINITY;
    return s;
  }
  for (std::size_t i = 0; i < pooled.values.size(); ++i) {
    const double a = inline_result.values[i];
    const double b = pooled.values[i];
    const double scale = std::max(std::abs(a), std::abs(b));
    if (scale > 0.0) s.max_rel_diff = std::max(s.max_rel_diff, std::abs(a - b) / scale);
  }
  return s;
}

/// A workload whose ops fan out finely onto the pool (sparse_k, deadline),
/// probed from the traced run: its wall time follows the host scheduler too
/// closely to gate on (see README.md), so it is measured here, pooled and
/// inline, instead of as a workload of its own.
///
/// `bitwise` says whether the program promises pooled == inline bit for bit
/// on this path.  The parallel CSR kernel (sparse_k) promises only
/// run-to-run reproducibility: its row panels merge in a fixed order that
/// differs from the serial kernel's.  There the pooled ops must repeat
/// exactly and agree with the inline op to 1e-10 relative.
/// Returns the failure reason, or empty.
std::string probe_pooled(const std::string& name, Workload& w, bool bitwise,
                         std::vector<Metric>& m) {
  constexpr int kReps = 3;
  w.prepare();
  std::vector<OpRecord> recs;
  std::vector<OpResult> results(kReps);
  for (int i = 0; i < kReps; ++i) recs.push_back(run_one(w, true, &results[i]));
  const SerialRun serial = run_serial(w, results.back());
  const std::string p = "probe." + name + ".";
  const std::string base = "median of " + std::to_string(kReps) + " pooled ops";
  const double op_ms =
      median_of(recs, [](const OpRecord& r) { return r.wall_ms; });
  m.push_back({p + "op_ms", op_ms, "ms", base});
  m.push_back({p + "cpu_s_per_op",
               median_of(recs, [](const OpRecord& r) { return r.cpu_s; }), "s",
               base});
  m.push_back({p + "serial_op_ms", serial.wall_ms, "ms",
               "one op inline on a private 1-worker pool"});
  m.push_back({p + "speedup", serial.wall_ms / op_ms, "ratio",
               "serial_op_ms " + std::to_string(serial.wall_ms) + " / op_ms " +
                   std::to_string(op_ms)});
  m.push_back({p + "bit_identical", serial.identical ? 1.0 : 0.0, "count",
               "1 when the inline op reproduced the pooled op bit for bit"});
  m.push_back({p + "inline_max_rel_diff", serial.max_rel_diff, "frac",
               "largest relative difference, inline vs pooled outputs"});
  for (const auto& [metric, counter] :
       std::vector<std::pair<std::string, std::string>>{
           {"pool_tasks_per_op", "pool.tasks_executed"},
           {"parallel_spmv_chunks_per_op", "linalg.parallel_spmv_chunks"},
           {"neumann_iterations_per_op", "linalg.neumann_iterations"}}) {
    m.push_back({p + metric, count_of(recs.back().counts, counter), "count",
                 "per-op " + counter + ", last pooled op"});
  }
  for (const auto& [span, ms] : recs.back().span_ms) {
    m.push_back({p + span, ms, "ms", "benchmark span, last pooled op"});
  }

  for (const OpRecord& r : recs) {
    if (!r.ok) return r.why;
  }
  if (!serial.why.empty()) return "inline op: " + serial.why;
  for (const OpResult& r : results) {
    if (!bitwise_equal(r, results.front())) {
      return "pooled ops differ from run to run";
    }
  }
  if (bitwise && !serial.identical) return "inline op not bit-identical";
  if (!(serial.max_rel_diff <= 1e-10)) return "inline op off by more than 1e-10";
  return "";
}

void write_chrome_trace(const std::string& path) {
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < g_tracer.events.size(); ++i) {
    const Tracer::Event& e = g_tracer.events[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                  "\"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                  "\"args\": {\"op\": %d, \"self_us\": %.3f}}",
                  e.name.c_str(), e.start_us, e.dur_us, e.op, e.self_us);
    out << buf << (i + 1 < g_tracer.events.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

int run(const Args& args) {
  std::unique_ptr<Workload> w = make_workload(args);
  if (args.write_reference) {
    w->write_reference_file(args.reference_dir + "/" + args.workload + ".txt");
    return 0;
  }

  // --- Setup: inputs, model build, level preparation, first answer.
  std::vector<double> setups;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupReps); ++rep) {
    const auto t0 = rep == 0 ? g_process_start : Clock::now();
    if (rep > 0) {
      core::ModelCache::global().clear();
      w = make_workload(args);
    }
    w->prepare();
    const OpRecord first = run_one(*w, false, nullptr);
    setups.push_back(ms_between(t0, Clock::now()) / 1000.0);
    ++attempted;
    if (!first.ok) {
      ++failed;
      failures.push_back("setup: " + first.why);
    }
  }

  // --- Timed closed loop.  The traced run alternates traced and untraced
  // ops so the tracing overhead is measured within one process.
  //
  // Op i runs with the main thread pinned to the i-th allowed CPU, in turn,
  // so every run samples each CPU the same way.  On a shared VM the vCPUs
  // can differ in speed by 20 % for minutes at a time, and a serial op
  // otherwise stays on whichever vCPU the scheduler picked for the run.
  // The pool already exists, so its workers keep the full CPU set.
  (void)par::ThreadPool::global();
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof allowed, &allowed);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  std::vector<OpRecord> ops;
  OpResult last;  // outputs of the last op
  const double calib_before = calibrate_ms();
  const auto loop_start = Clock::now();
  for (int i = 0;; ++i) {
    const double elapsed_s = ms_between(loop_start, Clock::now()) / 1000.0;
    if (i >= kMinOps && elapsed_s >= args.seconds) break;
    const bool traced = args.trace && i % 2 == 1;
    g_tracer.op = i;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[static_cast<std::size_t>(i) % cpus.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
    ops.push_back(run_one(*w, traced, &last));
    std::fprintf(stderr, "op %d%s: %.3f ms wall, %.3f s cpu%s\n", i,
                 traced ? " (traced)" : "", ops.back().wall_ms,
                 ops.back().cpu_s, ops.back().ok ? "" : ", FAILED");
    ++attempted;
    if (!ops.back().ok) {
      ++failed;
      failures.push_back("op " + std::to_string(i) + ": " + ops.back().why);
    }
  }
  sched_setaffinity(0, sizeof allowed, &allowed);
  const double calib_ms = median({calib_before, calibrate_ms()});

  std::vector<double> walls;
  double cpu_total = 0.0;
  for (const OpRecord& r : ops) {
    if (!r.traced) {
      walls.push_back(r.wall_ms);
      cpu_total += r.cpu_s;
    }
  }
  const double op_p50 = median(walls);
  const auto [tail_pct, tail_ms] = tail(walls);

  if (!args.trace) {
    for (const std::string& f : failures) std::printf("FAILED %s\n", f.c_str());
    std::printf("workload %s seed %llu: op_p50 %.3f ms, bench.op_tail_ms "
                "%.3f ms (%s ops), bench.calib_ms %.3f\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), op_p50, tail_ms,
                tail_label(tail_pct, walls.size()).c_str(), calib_ms);
    print_result(failed == 0, attempted, failed,
                 {{"setup_s", median(setups), "s", ""},
                  {"op_p50_ms", op_p50, "ms", ""},
                  {"cpu_s_per_op", cpu_total / static_cast<double>(walls.size()),
                   "s", ""},
                  {"peak_rss_mb", peak_rss_mb(), "MB", ""},
                  {"ok_frac",
                   static_cast<double>(attempted - failed) /
                       static_cast<double>(attempted),
                   "frac", ""}});
    return 0;
  }

  // --- Traced run: per-layer metrics.
  std::vector<OpRecord> traced_ops;
  for (const OpRecord& r : ops) {
    if (r.traced) traced_ops.push_back(r);
  }
  const auto nops = static_cast<double>(ops.size());
  std::vector<Metric> m;
  const auto per_op = [&](const std::string& metric,
                          const std::string& counter) {
    const double v = median_of(ops, [&](const OpRecord& r) {
      return count_of(r.counts, counter);
    });
    m.push_back({metric, v, "count",
                 "median over " + std::to_string(ops.size()) +
                     " ops of per-op " + counter});
  };

  for (const std::string layer :
       {"cluster.interdeparture_ms", "cluster.steady_state_vs_scv_ms",
        "cluster.prediction_error_ms", "cluster.speedup_vs_scv_ms",
        "cluster.prediction_error_cpu_ms", "cluster.speedup_vs_k_ms",
        "cluster.speedup_vs_k_shapes_ms", "solver.makespan_ms",
        "solver.makespan_grid_ms", "solver.moments_ms",
        "solver.moments_grid_ms", "solver.cdf_ms"}) {
    const double v = median_of(traced_ops, [&](const OpRecord& r) {
      const auto it = r.span_ms.find(layer);
      return it == r.span_ms.end() ? 0.0 : it->second;
    });
    m.push_back({layer, v, "ms",
                 v == 0.0 ? "not called by this workload"
                          : "median over " + std::to_string(traced_ops.size()) +
                                " traced ops of span total per op"});
  }
  per_op("network.states_per_op", "state_space.states_enumerated");
  per_op("network.levels_per_op", "state_space.levels_built");
  per_op("cache.misses_per_op", "cache.model_misses");
  per_op("cache.hits_per_op", "cache.model_hits");
  per_op("linalg.lu_factorizations_per_op", "linalg.lu_factorizations");
  per_op("linalg.dense_solves_per_op", "solver.dense_solves");
  per_op("linalg.parallel_spmv_chunks_per_op", "linalg.parallel_spmv_chunks");
  per_op("solver.epoch_recursions_per_op", "solver.epoch_recursions");
  per_op("solver.epochs_skipped_per_op", "solver.epochs_skipped");
  per_op("solver.fallback_activations_per_op", "solver.fallback_activations");
  per_op("linalg.multi_rhs_solves_per_op", "linalg.multi_rhs_solves");
  per_op("pool.tasks_per_op", "pool.tasks_executed");
  per_op("obs.events_dropped_per_op", "trace.events_dropped");
  {
    double iters = 0.0;
    double solves = 0.0;
    for (const OpRecord& r : ops) {
      iters += count_of(r.counts, "linalg.neumann_iterations");
      solves += count_of(r.counts, "solver.iterative_solves");
    }
    m.push_back({"linalg.neumann_iters_per_solve",
                 solves > 0.0 ? iters / solves : 0.0, "count",
                 std::to_string(static_cast<long long>(iters)) +
                     " Neumann iterations / " +
                     std::to_string(static_cast<long long>(solves)) +
                     " iterative solves over " + std::to_string(ops.size()) +
                     " ops"});
  }
  m.push_back({"pool.task_wait_ms_per_op",
               median_of(ops,
                         [](const OpRecord& r) {
                           return count_of(r.counts, "pool.task_wait_ns") / 1e6;
                         }),
               "ms", "median over ops of summed enqueue-to-dequeue wait"});
  m.push_back({"pool.max_queue_depth",
               median_of(ops,
                         [](const OpRecord& r) {
                           return count_of(r.counts, "pool.max_queue_depth");
                         }),
               "count", "median over ops of the per-op gauge"});

  const SerialRun serial = run_serial(*w, last);
  ++attempted;
  if (!serial.why.empty() || !serial.identical) {
    ++failed;
    failures.push_back("serial op: " + (serial.why.empty()
                                            ? "not bit-identical to pooled op"
                                            : serial.why));
  }
  m.push_back({"parallel.serial_op_ms", serial.wall_ms, "ms",
               "one op inline on a private 1-worker pool"});
  m.push_back({"parallel.speedup", serial.wall_ms / op_p50, "ratio",
               "serial_op_ms " + std::to_string(serial.wall_ms) +
                   " / op_p50_ms " + std::to_string(op_p50) +
                   " (untraced ops)"});
  m.push_back({"parallel.bit_identical", serial.identical ? 1.0 : 0.0, "count",
               "1 when the inline op reproduced the pooled op bit for bit"});

  probe_own_model(*w, m);
  probe_kernels(m);
  for (const char* name : {"sparse_k", "deadline"}) {
    Args pa = args;
    pa.workload = name;
    pa.seed = DeadlineWorkload::kReferenceSeed;
    const bool bitwise = pa.workload != "sparse_k";
    const std::string why = probe_pooled(name, *make_workload(pa), bitwise, m);
    ++attempted;
    if (!why.empty()) {
      ++failed;
      failures.push_back(std::string("probe ") + name + ": " + why);
    }
  }

  std::vector<double> traced_walls;
  for (const OpRecord& r : traced_ops) traced_walls.push_back(r.wall_ms);
  const double traced_p50 = median(traced_walls);
  m.push_back({"bench.calib_ms", calib_ms, "ms",
               "fixed 4M-step xorshift loop, median of 2x5"});
  m.push_back({"bench.op_tail_ms", tail_ms, "ms",
               tail_label(tail_pct, walls.size()) + " untraced ops"});
  m.push_back({"bench.trace_overhead_frac", traced_p50 / op_p50 - 1.0, "frac",
               "traced p50 " + std::to_string(traced_p50) + " ms (n=" +
                   std::to_string(traced_walls.size()) +
                   ") / untraced p50 " + std::to_string(op_p50) + " ms (n=" +
                   std::to_string(walls.size()) + ") - 1"});

  // Per-layer table and Chrome trace.
  std::string table = "per-layer metrics, workload " + args.workload +
                      ", seed " + std::to_string(args.seed) + ", " +
                      std::to_string(static_cast<long long>(nops)) + " ops\n";
  for (const Metric& x : m) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "  %-44s %14.6g %-6s ", x.name.c_str(),
                  x.value, x.unit.c_str());
    table += buf + x.base + "\n";
  }
  std::fputs(table.c_str(), stdout);
  std::ofstream(args.out_dir + "/" + args.workload + ".layers.txt") << table;
  write_chrome_trace(args.out_dir + "/" + args.workload + ".trace.json");

  for (const std::string& f : failures) std::printf("FAILED %s\n", f.c_str());
  print_result(failed == 0, attempted, failed, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "finwork_bench: %s\n", e.what());
    return 2;
  }
}
