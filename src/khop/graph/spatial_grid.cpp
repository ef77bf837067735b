#include "khop/graph/spatial_grid.hpp"

#include <algorithm>
#include <cmath>

#include "khop/common/assert.hpp"
#include "khop/graph/union_find.hpp"
#include "khop/runtime/thread_pool.hpp"

namespace khop {

SpatialGrid::SpatialGrid(const std::vector<Point2>& pts, double radius) {
  rebuild(pts, radius);
}

void SpatialGrid::rebuild(const std::vector<Point2>& pts, double radius) {
  KHOP_REQUIRE(!pts.empty(), "empty point set");
  KHOP_REQUIRE(radius > 0.0, "radius must be positive");
  pts_ = &pts;
  radius_ = radius;

  double max_x = pts[0].x, max_y = pts[0].y;
  min_x_ = pts[0].x;
  min_y_ = pts[0].y;
  for (const auto& p : pts) {
    KHOP_REQUIRE(std::isfinite(p.x) && std::isfinite(p.y),
                 "point coordinates must be finite");
    min_x_ = std::min(min_x_, p.x);
    min_y_ = std::min(min_y_, p.y);
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }
  cell_ = radius;
  // Cap the cell count at O(n): a radius tiny relative to the span would
  // otherwise allocate (span/radius)^2 cells. Enlarging cells preserves
  // correctness - the 3x3 query window still covers the radius and the
  // per-candidate distance test is unchanged - it only densifies cells.
  // Doubling against the actual product handles anisotropic (e.g. near-
  // collinear) spreads where one dimension floors at a single row.
  const double span_x = max_x - min_x_;
  const double span_y = max_y - min_y_;
  // Finite points can still lie more than DBL_MAX apart; the cell counts
  // below would then be inf / inf.
  KHOP_REQUIRE(std::isfinite(span_x) && std::isfinite(span_y),
               "point spread overflows a double");
  const double max_cells = 4.0 * static_cast<double>(pts.size()) + 1024.0;
  while ((span_x / cell_ + 1.0) * (span_y / cell_ + 1.0) > max_cells) {
    cell_ *= 2.0;
  }
  cols_ = static_cast<std::size_t>(span_x / cell_) + 1;
  rows_ = static_cast<std::size_t>(span_y / cell_) + 1;

  // CSR membership via counting sort. Points are placed in ascending id
  // order, so each cell's slice is ascending - the order every query
  // depends on for deterministic output.
  const std::size_t num_cells = cols_ * rows_;
  cell_offsets_.assign(num_cells + 1, 0);
  for (const auto& p : pts) {
    ++cell_offsets_[cell_index(p.x, p.y) + 1];
  }
  for (std::size_t c = 0; c < num_cells; ++c) {
    cell_offsets_[c + 1] += cell_offsets_[c];
  }
  cell_ids_.resize(pts.size());
  for (NodeId i = 0; i < static_cast<NodeId>(pts.size()); ++i) {
    // cell_offsets_[c] doubles as the placement cursor for cell c ...
    cell_ids_[cell_offsets_[cell_index(pts[i].x, pts[i].y)]++] = i;
  }
  // ... which leaves cell_offsets_[c] == start of cell c+1; shift back.
  for (std::size_t c = num_cells; c > 0; --c) {
    cell_offsets_[c] = cell_offsets_[c - 1];
  }
  cell_offsets_[0] = 0;
}

std::size_t SpatialGrid::cell_index(double x, double y) const noexcept {
  auto cx = static_cast<std::size_t>((x - min_x_) / cell_);
  auto cy = static_cast<std::size_t>((y - min_y_) / cell_);
  cx = std::min(cx, cols_ - 1);
  cy = std::min(cy, rows_ - 1);
  return cy * cols_ + cx;
}

template <typename Visitor>
void SpatialGrid::for_each_within_radius(NodeId u, Visitor&& visit) const {
  KHOP_REQUIRE(pts_ != nullptr, "SpatialGrid queried before rebuild()");
  KHOP_REQUIRE(u < pts_->size(), "node id out of range");
  const Point2* const pts = pts_->data();
  const Point2 p = pts[u];
  const double r2 = radius_ * radius_;

  // The 3x3 window clipped to the grid. u's own cell is inside it (the
  // clamp only matters for a coordinate on the far edge).
  const std::size_t cx =
      std::min(static_cast<std::size_t>((p.x - min_x_) / cell_), cols_ - 1);
  const std::size_t cy =
      std::min(static_cast<std::size_t>((p.y - min_y_) / cell_), rows_ - 1);
  const std::size_t x_lo = cx == 0 ? 0 : cx - 1;
  const std::size_t x_hi = std::min(cx + 1, cols_ - 1);
  const std::size_t y_lo = cy == 0 ? 0 : cy - 1;
  const std::size_t y_hi = std::min(cy + 1, rows_ - 1);

  NodeId kept[kWalkBuffer];
  const NodeId* const ids = cell_ids_.data();
  for (std::size_t y = y_lo; y <= y_hi; ++y) {
    // Cells are row-major, so the window's cells in row y are one range.
    const NodeId* it = ids + cell_offsets_[y * cols_ + x_lo];
    const NodeId* const end = ids + cell_offsets_[y * cols_ + x_hi + 1];
    while (it != end) {
      const NodeId* const stop =
          it + std::min<std::ptrdiff_t>(end - it, kWalkBuffer);
      std::size_t count = 0;
      for (; it != stop; ++it) {
        // Always write, advance only past a neighbor: no branch to
        // mispredict on a fresh placement.
        const NodeId v = *it;
        kept[count] = v;
        count += static_cast<std::size_t>((v != u) &
                                          (distance_sq(p, pts[v]) <= r2));
      }
      if (count != 0) visit(std::span<const NodeId>(kept, count));
    }
  }
}

std::vector<NodeId> SpatialGrid::within_radius(NodeId u) const {
  std::vector<NodeId> out;
  within_radius_into(u, out);
  return out;
}

void SpatialGrid::within_radius_into(NodeId u, std::vector<NodeId>& out) const {
  out.clear();
  for_each_within_radius(u, [&out](std::span<const NodeId> near) {
    out.insert(out.end(), near.begin(), near.end());
  });
  std::sort(out.begin(), out.end());
}

std::size_t SpatialGrid::count_within_radius(NodeId u) const {
  std::size_t count = 0;
  for_each_within_radius(
      u, [&count](std::span<const NodeId> near) { count += near.size(); });
  return count;
}

bool SpatialGrid::connected_upper_rows(UnionFind& uf,
                                       UpperRows& rows) const {
  KHOP_REQUIRE(pts_ != nullptr, "SpatialGrid queried before rebuild()");
  const std::size_t n = pts_->size();
  uf.reset(n);
  rows.offsets.resize(n + 1);
  rows.offsets[0] = 0;
  rows.ids.clear();
  std::size_t sets = n;
  for (NodeId u = 0; u < n; ++u) {
    const std::size_t begin = rows.ids.size();
    bool isolated = true;
    for_each_within_radius(u, [&](std::span<const NodeId> near) {
      isolated = false;
      // Keep the v > u part, branch-free like the walk's own filter.
      std::size_t end = rows.ids.size();
      rows.ids.resize(end + near.size());
      for (const NodeId v : near) {
        rows.ids[end] = v;
        end += static_cast<std::size_t>(v > u);
      }
      rows.ids.resize(end);
    });
    // An isolated node settles the verdict; no later pair can undo it.
    if (isolated && n > 1) return false;
    // Union-find needs no order: batches stay in walk order until the
    // placement is accepted.
    if (sets > 1) {
      for (std::size_t i = begin; i < rows.ids.size(); ++i) {
        if (uf.unite(u, rows.ids[i])) --sets;
      }
    }
    rows.offsets[u + 1] = rows.ids.size();
  }
  if (sets != 1) return false;
  // Accepted: graph_from_upper_rows needs each batch ascending.
  for (std::size_t u = 0; u < n; ++u) {
    std::sort(rows.ids.begin() + static_cast<std::ptrdiff_t>(rows.offsets[u]),
              rows.ids.begin() +
                  static_cast<std::ptrdiff_t>(rows.offsets[u + 1]));
  }
  return true;
}

Graph graph_from_upper_rows(const UpperRows& rows) {
  KHOP_REQUIRE(!rows.offsets.empty(), "upper rows need n + 1 offsets");
  const std::size_t n = rows.offsets.size() - 1;
  const auto upper = [&rows](std::size_t u) {
    return std::span<const NodeId>(rows.ids.data() + rows.offsets[u],
                                   rows.offsets[u + 1] - rows.offsets[u]);
  };
  // Degrees: u's own batch plus one per occurrence of u in an earlier batch.
  std::vector<std::size_t> offsets(n + 1, 0);
  for (std::size_t u = 0; u < n; ++u) {
    offsets[u + 1] += upper(u).size();
    for (NodeId v : upper(u)) ++offsets[v + 1];
  }
  for (std::size_t u = 0; u < n; ++u) offsets[u + 1] += offsets[u];

  // offsets[u] doubles as row u's fill cursor. By the time u's own batch
  // is appended, every lower neighbor w < u has already been placed (in
  // ascending w), so each row comes out ascending ...
  std::vector<NodeId> adjacency(offsets[n]);
  for (std::size_t u = 0; u < n; ++u) {
    const auto batch = upper(u);
    std::copy(batch.begin(), batch.end(),
              adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[u]));
    offsets[u] += batch.size();
    for (NodeId v : batch) adjacency[offsets[v]++] = static_cast<NodeId>(u);
  }
  // ... and leaves offsets[u] == start of row u + 1; shift back.
  for (std::size_t u = n; u > 0; --u) offsets[u] = offsets[u - 1];
  offsets[0] = 0;
  return Graph::from_csr(std::move(offsets), std::move(adjacency));
}

Graph build_unit_disk_graph(const std::vector<Point2>& pts, double radius) {
  SpatialGrid grid;
  return build_unit_disk_graph_streamed(pts, radius, grid);
}

Graph build_unit_disk_graph_streamed(const std::vector<Point2>& pts,
                                     double radius, SpatialGrid& grid,
                                     ThreadPool* pool) {
  const std::size_t n = pts.size();
  grid.rebuild(pts, radius);

  // Counting pass: each node's CSR row length is its disk neighborhood
  // size. The distance predicate is exactly symmetric in IEEE arithmetic
  // (dx*dx + dy*dy is invariant under operand negation), so per-node rows
  // reproduce the symmetric adjacency from_edges would build.
  //
  // Both passes visit the nodes in cell order and each node writes only its
  // own slots of offsets/adjacency, so tiles (contiguous blocks of that
  // order) never share a slot and the "merge" is simply the ascending-id
  // layout of CSR itself - deterministic for any thread count.
  const std::span<const NodeId> order = grid.cell_order();
  std::vector<std::size_t> offsets(n + 1, 0);
  const auto count_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const NodeId u = order[i];
      offsets[u + 1] = grid.count_within_radius(u);
    }
  };
  const std::size_t num_tiles =
      pool == nullptr ? 1
                      : std::min<std::size_t>(pool->num_threads() * 4,
                                              std::max<std::size_t>(n, 1));
  const std::size_t tile = (n + num_tiles - 1) / num_tiles;
  const auto run_tiles = [&](const auto& range) {
    if (num_tiles <= 1) {
      range(0, n);
      return;
    }
    parallel_for(*pool, num_tiles, [&](std::size_t t) {
      range(t * tile, std::min(n, (t + 1) * tile));
    });
  };
  run_tiles(count_range);
  for (std::size_t u = 0; u < n; ++u) offsets[u + 1] += offsets[u];

  std::vector<NodeId> adjacency(offsets[n]);
  const auto fill_range = [&](std::size_t begin, std::size_t end) {
    std::vector<NodeId> row;
    for (std::size_t i = begin; i < end; ++i) {
      const NodeId u = order[i];
      grid.within_radius_into(u, row);
      KHOP_ASSERT(row.size() == offsets[u + 1] - offsets[u],
                  "streamed build: counting/placement mismatch");
      std::copy(row.begin(), row.end(),
                adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[u]));
    }
  };
  run_tiles(fill_range);
  return Graph::from_csr(std::move(offsets), std::move(adjacency),
                         pool != nullptr ? Exec(*pool) : Exec());
}

}  // namespace khop
