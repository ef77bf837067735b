#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "harness/harness.hpp"
#include "khop/common/rng.hpp"
#include "khop/graph/spatial_grid.hpp"

namespace e2e {

using namespace khop;

Scale Scale::tiny() {
  Scale s;
  s.static_n = 3000;
  s.sim_n = 2000;
  s.churn_n = 900;
  s.churn_events = 150;
  s.sweep_trials = 4;
  return s;
}

void Outcome::ops(std::size_t n, const std::string& err) {
  attempted += n;
  if (!err.empty()) {
    failed += n;
    if (errors.size() < 8) errors.push_back(err);
  }
}

void Outcome::fail(const std::string& err) { ops(1, err); }

void Outcome::merge(Outcome&& o) {
  attempted += o.attempted;
  failed += o.failed;
  for (auto& e : o.errors) errors.push_back(std::move(e));
  for (auto& m : o.e2e) e2e.push_back(std::move(m));
  for (auto& m : o.named) named.push_back(std::move(m));
  for (auto& m : o.layer) layer.push_back(std::move(m));
  for (auto& r : o.report) report.push_back(std::move(r));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  return splitmix64(state);
}

double peak_rss_mb() {
  return static_cast<double>(bench::peak_rss_bytes()) / (1024.0 * 1024.0);
}

namespace {

std::vector<Point2> jittered_grid(std::size_t n, std::uint64_t seed) {
  const std::size_t cols =
      static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  Rng rng(seed);
  std::vector<NodeId> cell_of(n);
  std::iota(cell_of.begin(), cell_of.end(), NodeId{0});
  for (std::size_t i = n; i > 1; --i) {
    std::swap(cell_of[i - 1], cell_of[rng.uniform_int(i)]);
  }
  std::vector<Point2> pts(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double cx = static_cast<double>(cell_of[i] % cols);
    const double cy = static_cast<double>(cell_of[i] / cols);
    pts[i] = {cx + rng.uniform(), cy + rng.uniform()};
  }
  return pts;
}

}  // namespace

Topology connect_unit_disk(const std::vector<Point2>& pts, double degree,
                           SpatialGrid& grid, ThreadPool* pool,
                           BfsScratch& bfs, std::size_t max_bumps) {
  Topology t;
  // Unit cells => density ~= 1 node per unit area: E[deg] = pi r^2 - 1.
  t.radius = std::sqrt((degree + 1.0) / 3.14159265358979323846);
  for (;;) {
    {
      Span s("net.unit_disk");
      t.graph = build_unit_disk_graph_streamed(pts, t.radius, grid, pool);
    }
    {
      Span s("graph.connectivity");
      bfs.run(t.graph, 0, kUnreachable);
      t.connected = bfs.reached().size() == pts.size();
    }
    if (t.connected || t.radius_bumps == max_bumps) return t;
    t.radius *= 1.05;
    ++t.radius_bumps;
  }
}

Placement connected_placement(std::size_t n, std::uint64_t seed,
                              double degree, SpatialGrid& grid,
                              ThreadPool* pool, BfsScratch& bfs) {
  Placement p;
  for (;;) {
    if (p.attempts == 64) {
      throw std::runtime_error("no connected jittered-grid placement");
    }
    p.points = jittered_grid(n, derive_seed(seed, p.attempts++));
    p.topology = connect_unit_disk(p.points, degree, grid, pool, bfs, 0);
    if (p.topology.connected) return p;
  }
}

void add_fold_report(Outcome& out, const std::string& workload,
                     const Fold& f) {
  const auto line = [&](const char* kind, const std::string& name,
                        const FoldRow& r) {
    std::ostringstream os;
    os << "fold " << workload << " " << kind << " " << name
       << " count=" << r.count << " incl_s=" << r.incl_s
       << " self_s=" << r.self_s << " allocs=" << r.allocs;
    out.report.push_back(os.str());
  };
  for (const auto& [name, row] : f.layers) line("layer", name, row);
  for (const auto& [name, row] : f.spans) line("span", name, row);
}

std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace e2e
