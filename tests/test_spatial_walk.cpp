// The spatial grid's 3x3 walk against brute force: within_radius,
// count_within_radius, connected_upper_rows (verdict and rows) and the
// streamed unit-disk build, on layouts that stress the walk's ranges and
// its batch buffer.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "khop/common/rng.hpp"
#include "khop/graph/spatial_grid.hpp"
#include "khop/graph/union_find.hpp"
#include "khop/runtime/thread_pool.hpp"

namespace khop {
namespace {

/// Every v != u with dist(u, v) <= r, ascending: the walk's predicate over
/// all pairs.
std::vector<std::vector<NodeId>> brute_neighbors(const std::vector<Point2>& pts,
                                                 double r) {
  std::vector<std::vector<NodeId>> out(pts.size());
  for (NodeId u = 0; u < pts.size(); ++u) {
    for (NodeId v = 0; v < pts.size(); ++v) {
      if (u != v && distance_sq(pts[u], pts[v]) <= r * r) out[u].push_back(v);
    }
  }
  return out;
}

bool brute_connected(const std::vector<std::vector<NodeId>>& nbrs) {
  std::vector<char> seen(nbrs.size(), 0);
  std::vector<NodeId> stack{0};
  seen[0] = 1;
  std::size_t reached = 1;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    for (const NodeId v : nbrs[u]) {
      if (!seen[v]) {
        seen[v] = 1;
        ++reached;
        stack.push_back(v);
      }
    }
  }
  return reached == nbrs.size();
}

/// Scratch shared by every check, so each one also runs on rows and a
/// union-find left over from a different placement.
struct WalkScratch {
  SpatialGrid grid;
  UnionFind uf;
  UpperRows rows;
  ThreadPool pool{3};
};

/// Checks every query against brute force and returns the verdict of
/// connected_upper_rows.
bool expect_walk_matches(const std::vector<Point2>& pts, double r,
                         WalkScratch& s) {
  SCOPED_TRACE(testing::Message() << "n=" << pts.size() << " r=" << r);
  const auto want = brute_neighbors(pts, r);
  s.grid.rebuild(pts, r);
  for (NodeId u = 0; u < pts.size(); ++u) {
    EXPECT_EQ(s.grid.within_radius(u), want[u]) << "u=" << u;
    EXPECT_EQ(s.grid.count_within_radius(u), want[u].size()) << "u=" << u;
  }

  const bool connected = s.grid.connected_upper_rows(s.uf, s.rows);
  EXPECT_EQ(connected, brute_connected(want));
  if (connected) {
    EXPECT_EQ(s.rows.offsets.size(), pts.size() + 1);
    for (NodeId u = 0; u < pts.size(); ++u) {
      std::vector<NodeId> upper;
      for (const NodeId v : want[u]) {
        if (v > u) upper.push_back(v);
      }
      const std::vector<NodeId> got(
          s.rows.ids.begin() + static_cast<std::ptrdiff_t>(s.rows.offsets[u]),
          s.rows.ids.begin() +
              static_cast<std::ptrdiff_t>(s.rows.offsets[u + 1]));
      EXPECT_EQ(got, upper) << "row " << u;
    }
    const Graph from_rows = graph_from_upper_rows(s.rows);
    for (NodeId u = 0; u < pts.size(); ++u) {
      const auto row = from_rows.neighbors(u);
      EXPECT_EQ(std::vector<NodeId>(row.begin(), row.end()), want[u]);
    }
  }

  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &s.pool}) {
    const Graph g = build_unit_disk_graph_streamed(pts, r, s.grid, pool);
    EXPECT_EQ(g.num_nodes(), pts.size());
    for (NodeId u = 0; u < pts.size(); ++u) {
      const auto row = g.neighbors(u);
      EXPECT_EQ(std::vector<NodeId>(row.begin(), row.end()), want[u])
          << "streamed row " << u << (pool ? " (pool)" : "");
    }
  }
  return connected;
}

TEST(SpatialGrid, WalkMatchesBruteForceBeyondOneBufferPerCell) {
  // 300 points inside one r-cell (over four times the walk's batch
  // buffer) plus a sparse ring around it: ranges longer than a buffer,
  // and a node whose whole neighborhood is the crowded cell.
  Rng rng(301);
  WalkScratch s;
  std::vector<Point2> pts;
  for (int i = 0; i < 300; ++i) {
    pts.push_back({rng.uniform(10.0, 10.9), rng.uniform(10.0, 10.9)});
  }
  for (int i = 0; i < 40; ++i) {
    pts.push_back({rng.uniform(8.0, 13.0), rng.uniform(8.0, 13.0)});
  }
  expect_walk_matches(pts, 1.0, s);
  // Everyone coincident: every range is one cell, all within radius.
  expect_walk_matches(std::vector<Point2>(200, Point2{-3.0, 7.0}), 0.25, s);
}

TEST(SpatialGrid, WalkMatchesBruteForceAtExactlyTheRadius) {
  // Lattice spacing equal to the radius: every 4-neighbor is at distance
  // exactly r (integral coordinates, so exact in doubles) and must be
  // kept; diagonals (r * sqrt 2) must not. 3-4-5 triangles likewise.
  WalkScratch s;
  std::vector<Point2> lattice;
  for (int y = 0; y < 12; ++y) {
    for (int x = 0; x < 15; ++x) {
      lattice.push_back({-14.0 + 2.0 * x, -6.0 + 2.0 * y});
    }
  }
  EXPECT_TRUE(expect_walk_matches(lattice, 2.0, s));
  s.grid.rebuild(lattice, 2.0);
  EXPECT_EQ(s.grid.count_within_radius(7 * 15 + 7), 4u);

  const std::vector<Point2> triangles{{0, 0}, {3, 4}, {6, 8}, {-3, -4},
                                      {3, -4}, {-3, 4}, {0, 5}};
  EXPECT_TRUE(expect_walk_matches(triangles, 5.0, s));
}

TEST(SpatialGrid, WalkMatchesBruteForceOnSingleRowAndColumnGrids) {
  Rng rng(302);
  WalkScratch s;
  for (const bool horizontal : {true, false}) {
    std::vector<Point2> line;
    for (int i = 0; i < 150; ++i) {
      const double t = rng.uniform(-60.0, 40.0);
      line.push_back(horizontal ? Point2{t, -5.0} : Point2{-5.0, t});
    }
    expect_walk_matches(line, 3.0, s);
    expect_walk_matches(line, 0.2, s);  // many empty cells, isolated nodes
  }
}

TEST(SpatialGrid, WalkMatchesBruteForceAtNegativeCoordinates) {
  Rng rng(303);
  WalkScratch s;
  std::vector<Point2> pts;
  for (int i = 0; i < 250; ++i) {
    pts.push_back({rng.uniform(-100.0, -20.0), rng.uniform(-30.0, 40.0)});
  }
  for (const double r : {4.0, 9.0, 25.0}) expect_walk_matches(pts, r, s);
}

TEST(SpatialGrid, WalkMatchesBruteForceWithCappedCellCount) {
  // A radius far below the spread caps the cell count, so cells are many
  // radii wide and crowded; close pairs at tiny offsets are the only
  // edges.
  Rng rng(304);
  WalkScratch s;
  std::vector<Point2> pts;
  for (int i = 0; i < 200; ++i) {
    const Point2 p{rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)};
    pts.push_back(p);
    if (i % 3 == 0) pts.push_back({p.x + 4e-4, p.y - 3e-4});
  }
  const double r = 1e-3;
  s.grid.rebuild(pts, r);
  EXPECT_LE(s.grid.num_cells(), 4 * pts.size() + 1024);
  EXPECT_FALSE(expect_walk_matches(pts, r, s));
  s.grid.rebuild(pts, r);
  EXPECT_EQ(s.grid.count_within_radius(0), 1u);
}

TEST(SpatialGrid, UpperRowsVerdictOnRejectedAndAcceptedPlacements) {
  // Uniform placements near the connectivity threshold, one scratch for
  // all: both verdicts must occur, and rejected ones (isolated node, or
  // no isolated node but two components) must leave the next accepted
  // placement's rows intact.
  Rng rng(305);
  WalkScratch s;
  std::size_t accepted = 0, rejected = 0;
  for (int trial = 0; trial < 24; ++trial) {
    std::vector<Point2> pts;
    for (int i = 0; i < 90; ++i) {
      pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
    }
    (expect_walk_matches(pts, 17.0, s) ? accepted : rejected) += 1;
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);

  // Two dense clusters far apart: no node is isolated, yet two sets stay.
  std::vector<Point2> split;
  for (int i = 0; i < 60; ++i) {
    split.push_back({rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)});
    split.push_back({rng.uniform(50.0, 53.0), rng.uniform(0.0, 3.0)});
  }
  EXPECT_FALSE(expect_walk_matches(split, 2.0, s));
  EXPECT_TRUE(expect_walk_matches(split, 60.0, s));
}

}  // namespace
}  // namespace khop
