/// \file spatial_grid.hpp
/// Uniform spatial hashing for near-linear unit-disk graph construction.
///
/// The grid stores its cell membership in CSR form (one offsets array plus
/// one flat id array, built by a counting pass) instead of a
/// vector-of-vectors: at n = 10^6 the per-cell vector headers alone would be
/// ~100 MB of scattered allocations, while the CSR layout is two contiguous
/// arrays rebuilt in place. A default-constructed grid plus rebuild() lets
/// long-lived owners (Workspace) amortize those arrays across topologies —
/// the Monte-Carlo trial loop rebuilds the grid once per trial without
/// re-allocating.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "khop/geom/point.hpp"
#include "khop/graph/graph.hpp"

namespace khop {

class ThreadPool;
class UnionFind;

/// The upper triangle of a unit-disk graph in CSR form: ids[offsets[u] ..
/// offsets[u + 1]) are u's neighbors v > u, ascending. Reused scratch of
/// SpatialGrid::connected_upper_rows (Workspace keeps one).
struct UpperRows {
  std::vector<std::size_t> offsets;  ///< n + 1 entries once complete
  std::vector<NodeId> ids;
};

/// Uniform grid over the bounding box of a point set, cell size >= the query
/// radius, so a range query touches at most the 3x3 surrounding cells.
///
/// Lifetime: the grid borrows \p pts; the point vector must outlive every
/// query (rebuild() re-borrows a new set).
class SpatialGrid {
 public:
  /// Empty grid; call rebuild() before querying.
  SpatialGrid() = default;

  /// \pre radius > 0, pts non-empty
  SpatialGrid(const std::vector<Point2>& pts, double radius);

  /// Re-binds the grid to \p pts / \p radius, reusing the internal arrays.
  /// Equivalent to constructing a fresh grid (bit-identical query results).
  /// \pre radius > 0, pts non-empty
  void rebuild(const std::vector<Point2>& pts, double radius);

  /// Ids of all points within \p radius of pts[u], excluding u itself,
  /// in ascending id order. A pair at distance exactly radius is a
  /// neighbor; the predicate is symmetric in u and v.
  std::vector<NodeId> within_radius(NodeId u) const;

  /// within_radius into a caller-owned buffer (cleared first): the streamed
  /// graph build calls this once per node and must not allocate per call.
  void within_radius_into(NodeId u, std::vector<NodeId>& out) const;

  /// Number of points within \p radius of pts[u], excluding u itself.
  /// Allocation-free (no list materialization); used by the degree
  /// calibration's bisection probes and the streamed build's counting pass.
  std::size_t count_within_radius(NodeId u) const;

  /// Connectivity first, for rejection sampling: one ascending-id pass of
  /// the 3x3 walk unites each u with its neighbors v > u in \p uf (reset to
  /// n here; unions stop once one set is left) and records u's v > u batch
  /// into \p rows, in walk order. Returns false as soon as a node has no
  /// neighbor at all (n >= 2), else whether one set is left at the end.
  /// Only an accepted placement (true) has its batches sorted ascending,
  /// as graph_from_upper_rows needs; \p rows is complete only then.
  /// Allocation-free once the scratch has grown, so a rejected placement
  /// costs at most one walk and no sort.
  bool connected_upper_rows(UnionFind& uf, UpperRows& rows) const;

  /// Every point id once, grouped by cell in row-major cell order and
  /// ascending within a cell: consecutive queries in this order walk
  /// overlapping 3x3 windows.
  std::span<const NodeId> cell_order() const noexcept { return cell_ids_; }

  /// Number of grid cells (cols x rows) after the cell-count cap.
  std::size_t num_cells() const noexcept { return cols_ * rows_; }

  /// Number of points the grid currently indexes (0 before rebuild()).
  std::size_t num_points() const noexcept {
    return pts_ == nullptr ? 0 : pts_->size();
  }

 private:
  const std::vector<Point2>* pts_ = nullptr;
  double radius_ = 0.0;
  double cell_ = 0.0;
  std::size_t cols_ = 0, rows_ = 0;
  double min_x_ = 0.0, min_y_ = 0.0;
  std::vector<std::size_t> cell_offsets_;  // size num_cells()+1
  std::vector<NodeId> cell_ids_;  // grouped by cell, ascending within a cell

  std::size_t cell_index(double x, double y) const noexcept;

  std::span<const NodeId> cell_members(std::size_t cell) const noexcept {
    return {cell_ids_.data() + cell_offsets_[cell],
            cell_offsets_[cell + 1] - cell_offsets_[cell]};
  }

  /// Ids the walk filters per batch before handing them to its visitor.
  static constexpr std::ptrdiff_t kWalkBuffer = 64;

  /// Shared 3x3 walk behind every query. Cells are row-major, so the three
  /// cells of one window row are one contiguous range of cell_ids_, and the
  /// walk is three ranges. Each range is filtered branch-free in batches of
  /// up to kWalkBuffer ids into a stack buffer (write the id, advance by
  /// (v != u) & (d^2 <= r^2)), and \p visit(std::span<const NodeId>)
  /// receives each batch's kept ids: every v != u with dist(u, v) <= radius
  /// once, in window-row order, cells left to right, ascending within a
  /// cell - not ascending overall.
  template <typename Visitor>
  void for_each_within_radius(NodeId u, Visitor&& visit) const;
};

/// Builds the unit-disk graph: edge {u,v} iff dist(u,v) <= radius.
/// O(n * average-neighborhood) via spatial hashing. Streams each node's
/// neighborhood straight into CSR (counting pass + placement pass) without
/// materializing an edge-pair vector; bit-identical to the edge-list
/// oracle in tests/oracles/unit_disk_reference.hpp.
Graph build_unit_disk_graph(const std::vector<Point2>& pts, double radius);

/// The streamed build against a caller-owned grid: rebuild()s \p grid for
/// (pts, radius) and emits the CSR rows per node. The counting and
/// placement passes query the nodes in the grid's cell_order(), so
/// consecutive queries read the same few cells' points instead of
/// scattered ones; each node still writes only its own CSR slots, so the
/// rows land in ascending-id layout whatever the query order. With \p pool
/// non-null both passes run tile-parallel over contiguous blocks of that
/// order, and so does Graph::from_csr's validation of the result.
Graph build_unit_disk_graph_streamed(const std::vector<Point2>& pts,
                                     double radius, SpatialGrid& grid,
                                     ThreadPool* pool = nullptr);

/// The unit-disk graph whose complete upper rows are \p rows (see
/// SpatialGrid::connected_upper_rows). Row u is u's lower neighbors, placed
/// in ascending order while the earlier rows are scattered, followed by its
/// own ascending v > u batch, so no row is sorted and no grid is walked.
/// Bit-identical to build_unit_disk_graph_streamed over the same points;
/// Graph::from_csr validates the result.
Graph graph_from_upper_rows(const UpperRows& rows);

}  // namespace khop
