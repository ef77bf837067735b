#include "khop/graph/relabel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "khop/common/assert.hpp"

namespace khop {

namespace {

// Quantization grid for the Hilbert order: 2^16 cells per axis keeps the
// full d-index inside 32 bits while resolving positions far below any
// practical transmission radius.
constexpr std::uint32_t kHilbertOrder = 16;
constexpr std::uint32_t kHilbertCells = (1u << kHilbertOrder) - 1;

void check_relabeling(const Relabeling& r, std::size_t n,
                      const char* what) {
  KHOP_REQUIRE(r.new_of_old.size() == n && r.old_of_new.size() == n, what);
}

}  // namespace

Relabeling identity_relabeling(std::size_t n) {
  KHOP_REQUIRE(n < static_cast<std::size_t>(kInvalidNode),
               "node count must stay below kInvalidNode (32-bit id space)");
  Relabeling r;
  r.new_of_old.resize(n);
  r.old_of_new.resize(n);
  std::iota(r.new_of_old.begin(), r.new_of_old.end(), NodeId{0});
  std::iota(r.old_of_new.begin(), r.old_of_new.end(), NodeId{0});
  return r;
}

Relabeling inverse(const Relabeling& r) {
  Relabeling out;
  out.new_of_old = r.old_of_new;
  out.old_of_new = r.new_of_old;
  return out;
}

std::uint64_t hilbert_d_index(std::uint32_t x, std::uint32_t y,
                              std::uint32_t order) {
  KHOP_REQUIRE(order >= 1 && order <= 32, "hilbert order out of range");
  KHOP_REQUIRE((order == 32 || x < (std::uint64_t{1} << order)) &&
                   (order == 32 || y < (std::uint64_t{1} << order)),
               "hilbert coordinate out of range");
  const std::uint32_t mask = order == 32
                                 ? std::numeric_limits<std::uint32_t>::max()
                                 : (1u << order) - 1u;
  std::uint64_t d = 0;
  for (std::uint32_t s = order; s-- > 0;) {
    const std::uint32_t rx = (x >> s) & 1u;
    const std::uint32_t ry = (y >> s) & 1u;
    d += (std::uint64_t{1} << (2 * s)) * ((3 * rx) ^ ry);
    // Rotate the quadrant so the sub-curve enters/exits correctly (only the
    // not-yet-consumed low bits matter for later iterations).
    if (ry == 0) {
      if (rx == 1) {
        x = ~x & mask;
        y = ~y & mask;
      }
      std::swap(x, y);
    }
  }
  return d;
}

Relabeling sfc_relabeling(const std::vector<Point2>& pts) {
  const std::size_t n = pts.size();
  KHOP_REQUIRE(n < static_cast<std::size_t>(kInvalidNode),
               "node count must stay below kInvalidNode (32-bit id space)");
  double min_x = 0.0, min_y = 0.0, max_x = 0.0, max_y = 0.0;
  if (n > 0) {
    min_x = max_x = pts[0].x;
    min_y = max_y = pts[0].y;
    for (const Point2& p : pts) {
      min_x = std::min(min_x, p.x);
      min_y = std::min(min_y, p.y);
      max_x = std::max(max_x, p.x);
      max_y = std::max(max_y, p.y);
    }
  }
  const double span_x = max_x - min_x;
  const double span_y = max_y - min_y;
  const auto quantize = [](double v, double lo, double span) -> std::uint32_t {
    if (span <= 0.0) return 0;
    const double t = (v - lo) / span * static_cast<double>(kHilbertCells);
    return std::min(kHilbertCells, static_cast<std::uint32_t>(t));
  };

  std::vector<std::pair<std::uint64_t, NodeId>> keyed(n);
  for (std::size_t u = 0; u < n; ++u) {
    keyed[u] = {hilbert_d_index(quantize(pts[u].x, min_x, span_x),
                                quantize(pts[u].y, min_y, span_y),
                                kHilbertOrder),
                static_cast<NodeId>(u)};
  }
  // Ties (coincident or same-cell points) break by old id: the pair's
  // second member makes the sort key strict, so this is deterministic.
  std::sort(keyed.begin(), keyed.end());

  Relabeling r;
  r.new_of_old.resize(n);
  r.old_of_new.resize(n);
  for (std::size_t new_id = 0; new_id < n; ++new_id) {
    const NodeId old_id = keyed[new_id].second;
    r.old_of_new[new_id] = old_id;
    r.new_of_old[old_id] = static_cast<NodeId>(new_id);
  }
  return r;
}

Graph relabel(const Graph& g, const Relabeling& r) {
  const std::size_t n = g.num_nodes();
  check_relabeling(r, n, "relabeling size must match the graph");
  std::vector<std::size_t> offsets(n + 1, 0);
  for (std::size_t new_u = 0; new_u < n; ++new_u) {
    offsets[new_u + 1] = offsets[new_u] + g.degree(r.old_of_new[new_u]);
  }
  std::vector<NodeId> adjacency(offsets[n]);
  for (std::size_t new_u = 0; new_u < n; ++new_u) {
    const auto row = g.neighbors(r.old_of_new[new_u]);
    const auto out = adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[new_u]);
    std::transform(row.begin(), row.end(), out,
                   [&](NodeId old_v) { return r.new_of_old[old_v]; });
    std::sort(out, out + static_cast<std::ptrdiff_t>(row.size()));
  }
  return Graph::from_csr(std::move(offsets), std::move(adjacency));
}

std::vector<Point2> relabel(const std::vector<Point2>& pts,
                            const Relabeling& r) {
  check_relabeling(r, pts.size(), "relabeling size must match the points");
  std::vector<Point2> out(pts.size());
  for (std::size_t u = 0; u < pts.size(); ++u) {
    out[r.new_of_old[u]] = pts[u];
  }
  return out;
}

std::vector<PriorityKey> relabel(const std::vector<PriorityKey>& prios,
                                 const Relabeling& r) {
  check_relabeling(r, prios.size(), "relabeling size must match priorities");
  std::vector<PriorityKey> out(prios.size());
  for (std::size_t u = 0; u < prios.size(); ++u) {
    out[r.new_of_old[u]] = {prios[u].key, r.new_of_old[u]};
  }
  return out;
}

BfsTree to_original_ids(const BfsTree& t, const Relabeling& r) {
  const std::size_t n = t.dist.size();
  check_relabeling(r, n, "relabeling size must match the BFS tree");
  BfsTree out;
  out.source = t.source == kInvalidNode ? kInvalidNode : r.old_of_new[t.source];
  out.dist.resize(n);
  out.parent.resize(n);
  for (std::size_t old_u = 0; old_u < n; ++old_u) {
    const NodeId new_u = r.new_of_old[old_u];
    out.dist[old_u] = t.dist[new_u];
    const NodeId p = t.parent[new_u];
    out.parent[old_u] = p == kInvalidNode ? kInvalidNode : r.old_of_new[p];
  }
  return out;
}

Clustering to_original_ids(const Clustering& c, const Relabeling& r) {
  const std::size_t n = c.head_of.size();
  check_relabeling(r, n, "relabeling size must match the clustering");
  Clustering out;
  out.k = c.k;
  out.election_rounds = c.election_rounds;
  out.head_of.resize(n);
  out.dist_to_head.resize(n);
  for (std::size_t old_u = 0; old_u < n; ++old_u) {
    const NodeId new_u = r.new_of_old[old_u];
    out.head_of[old_u] = r.old_of_new[c.head_of[new_u]];
    out.dist_to_head[old_u] = c.dist_to_head[new_u];
  }
  out.heads.reserve(c.heads.size());
  for (NodeId h : c.heads) out.heads.push_back(r.old_of_new[h]);
  std::sort(out.heads.begin(), out.heads.end());
  out.cluster_of.assign(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const auto it = std::lower_bound(out.heads.begin(), out.heads.end(),
                                     out.head_of[v]);
    KHOP_ASSERT(it != out.heads.end() && *it == out.head_of[v],
                "head_of references a non-head");
    out.cluster_of[v] =
        static_cast<std::uint32_t>(std::distance(out.heads.begin(), it));
  }
  return out;
}

Backbone to_original_ids(const Backbone& b, const Relabeling& r) {
  Backbone out;
  out.pipeline = b.pipeline;
  out.spec = b.spec;
  out.heads.reserve(b.heads.size());
  for (NodeId h : b.heads) out.heads.push_back(r.old_of_new[h]);
  std::sort(out.heads.begin(), out.heads.end());
  out.gateways.reserve(b.gateways.size());
  for (NodeId gsel : b.gateways) out.gateways.push_back(r.old_of_new[gsel]);
  std::sort(out.gateways.begin(), out.gateways.end());
  out.virtual_links.reserve(b.virtual_links.size());
  for (const auto& [u, v] : b.virtual_links) {
    const NodeId a = r.old_of_new[u];
    const NodeId c = r.old_of_new[v];
    out.virtual_links.emplace_back(std::min(a, c), std::max(a, c));
  }
  std::sort(out.virtual_links.begin(), out.virtual_links.end());
  return out;
}

}  // namespace khop
