/// \file common.hpp
/// Shared pieces of the end-to-end benchmark: run options, the per-workload
/// outcome (operations, gate failures, metrics), timing statistics, and the
/// seeded jittered-grid topology every large workload starts from.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "khop/geom/point.hpp"
#include "khop/graph/bfs_scratch.hpp"
#include "khop/graph/graph.hpp"
#include "khop/graph/spatial_grid.hpp"
#include "khop/runtime/thread_pool.hpp"
#include "span.hpp"

namespace e2e {

/// Problem sizes. `full` is the benchmark; `tiny` is the self-test's scale,
/// which runs every code path in well under a second per workload.
struct Scale {
  std::size_t static_n = 1000000;
  std::size_t sim_n = 50000;
  std::size_t churn_n = 10000;
  std::size_t churn_events = 1000;
  std::size_t sweep_trials = 100;  ///< per grid point

  static Scale tiny();
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale;
  bool corrupt = false;  ///< self-test hook: damage one output before its gate
  std::string work_dir = ".";
  std::string trace_out;
  std::string git = "unknown";
};

struct Context {
  Options opt;
  std::size_t threads = 1;  ///< every ThreadPool gets exactly this many
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload did: operations attempted and failed (a failed
/// operation is a correctness-gate miss or an exception), the end-to-end
/// metrics of the contract (`e2e`), the per-workload named metrics printed
/// as report lines (`named`), per-layer metrics of a traced run (`layer`),
/// and free-form report lines.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;  ///< first few gate messages
  std::vector<Metric> e2e;
  std::vector<Metric> named;
  std::vector<Metric> layer;
  std::vector<std::string> report;

  /// Counts \p ops operations, all failed when \p err is non-empty.
  void ops(std::size_t ops, const std::string& err = {});
  void fail(const std::string& err);

  void merge(Outcome&& other);
};

inline double secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double median(std::vector<double> v);
/// Nearest-rank quantile; q in (0, 1].
double quantile(std::vector<double> v, double q);
/// True when a sample of \p n has at least ten values above its p99.
inline bool has_p99(std::size_t n) { return n >= 1000; }
double mean(const std::vector<double>& v);

/// Deterministic sub-seed for one input of a workload.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// Process peak RSS in MiB.
double peak_rss_mb();

struct Topology {
  khop::Graph graph;
  double radius = 0.0;
  std::size_t radius_bumps = 0;
  bool connected = false;
};

/// Unit-disk graph over \p pts at the radius of mean degree \p degree on the
/// unit-density grid, bumped by 5% until connected or \p max_bumps bumps
/// were made. Spans: net.unit_disk per build, graph.connectivity per probe.
Topology connect_unit_disk(const std::vector<khop::Point2>& pts,
                           double degree, khop::SpatialGrid& grid,
                           khop::ThreadPool* pool, khop::BfsScratch& bfs,
                           std::size_t max_bumps = 32);

/// Positions whose unit-disk graph at the base radius of \p degree is
/// connected. The placement is bench_perf_regression's million-node one:
/// one node per unit cell of a ceil(sqrt(n))-wide grid, uniformly jittered
/// inside it, with the cell -> id assignment shuffled (row-major ids would
/// make the lowest-id election a sqrt(n)-round diagonal march). Placements
/// are redrawn (a fresh sub-seed per
/// attempt) until one is, as generate_network retries placements. A radius
/// bump instead would let the seed decide the graph's density — at n = 10^6
/// roughly one seed in five needs several 5% bumps and 1.5x the edges — so
/// the cost of an operation would vary with the seed, not with the code.
struct Placement {
  std::vector<khop::Point2> points;
  Topology topology;  ///< connected, radius_bumps == 0
  std::size_t attempts = 0;
};
Placement connected_placement(std::size_t n, std::uint64_t seed,
                              double degree, khop::SpatialGrid& grid,
                              khop::ThreadPool* pool, khop::BfsScratch& bfs);

/// Appends the fold of one traced pass to the report: one line per span name
/// and per layer with count, inclusive and self seconds, and allocations.
void add_fold_report(Outcome& out, const std::string& workload,
                     const Fold& f);

/// FNV-1a over raw bytes; digests that must repeat exactly.
std::uint64_t fnv1a(const void* data, std::size_t len,
                    std::uint64_t h = 1469598103934665603ULL);

/// Mean degree of the large jittered-grid topologies (bench_perf_regression's
/// big-n default).
inline constexpr double kGridDegree = 8.0;

Outcome run_static_scale(const Context& cx);
Outcome run_paper_sweep(const Context& cx);
Outcome run_protocol_sim(const Context& cx);
Outcome run_churn_durable(const Context& cx);

}  // namespace e2e
