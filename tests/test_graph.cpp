// Unit tests for the CSR graph and unit-disk construction.
#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "khop/common/error.hpp"
#include "khop/common/rng.hpp"
#include "khop/graph/graph.hpp"
#include "khop/graph/metrics.hpp"
#include "khop/graph/spatial_grid.hpp"
#include "khop/graph/subgraph.hpp"
#include "khop/runtime/thread_pool.hpp"
#include "oracles/unit_disk_reference.hpp"

namespace khop {
namespace {

using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

Graph path_graph(std::size_t n) {
  EdgeList edges;
  for (NodeId i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return Graph::from_edges(n, edges);
}

TEST(Graph, EmptyGraphHasNoEdges) {
  Graph g(5);
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.neighbors(0).empty());
}

TEST(Graph, FromEdgesBuildsSortedAdjacency) {
  const EdgeList edges{{3, 1}, {0, 3}, {2, 3}};
  const Graph g = Graph::from_edges(4, edges);
  EXPECT_EQ(g.num_edges(), 3u);
  const auto nbrs = g.neighbors(3);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 0u);
  EXPECT_EQ(nbrs[1], 1u);
  EXPECT_EQ(nbrs[2], 2u);
}

TEST(Graph, HasEdgeIsSymmetric) {
  const Graph g = Graph::from_edges(3, EdgeList{{0, 1}});
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(Graph, RejectsSelfLoop) {
  EXPECT_THROW(Graph::from_edges(3, EdgeList{{1, 1}}), InvalidArgument);
}

TEST(Graph, RejectsDuplicateEdge) {
  EXPECT_THROW(Graph::from_edges(3, EdgeList{{0, 1}, {1, 0}}),
               InvalidArgument);
}

TEST(Graph, RejectsOutOfRangeEndpoint) {
  EXPECT_THROW(Graph::from_edges(2, EdgeList{{0, 5}}), InvalidArgument);
}

TEST(Graph, RejectsOutOfRangeQueries) {
  const Graph g = path_graph(3);
  EXPECT_THROW((void)g.neighbors(3), InvalidArgument);
  EXPECT_THROW((void)g.degree(9), InvalidArgument);
}

TEST(Graph, EdgeListRoundTrips) {
  const EdgeList edges{{0, 1}, {1, 2}, {0, 3}};
  const Graph g = Graph::from_edges(4, edges);
  const auto out = g.edge_list();
  EXPECT_EQ(out, (EdgeList{{0, 1}, {0, 3}, {1, 2}}));
}

TEST(Graph, WithoutNodeIsolatesIt) {
  const Graph g = path_graph(4);  // 0-1-2-3
  const Graph h = g.without_node(1);
  EXPECT_EQ(h.num_nodes(), 4u);
  EXPECT_EQ(h.degree(1), 0u);
  EXPECT_TRUE(h.has_edge(2, 3));
  EXPECT_FALSE(h.has_edge(0, 1));
}

TEST(DegreeStats, PathGraph) {
  const auto s = degree_stats(path_graph(4));
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 2u);
  EXPECT_DOUBLE_EQ(s.mean, 6.0 / 4.0);
}

TEST(UnitDisk, PairWithinRadiusIsConnected) {
  const std::vector<Point2> pts{{0, 0}, {3, 4}, {10, 10}};
  const Graph g = build_unit_disk_graph(pts, 5.0);
  EXPECT_TRUE(g.has_edge(0, 1));    // distance exactly 5
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(1, 2));
}

TEST(UnitDisk, MatchesBruteForce) {
  Rng rng(77);
  std::vector<Point2> pts;
  for (int i = 0; i < 120; ++i) {
    pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
  }
  const double r = 14.0;
  const Graph g = build_unit_disk_graph(pts, r);
  for (NodeId u = 0; u < pts.size(); ++u) {
    for (NodeId v = 0; v < pts.size(); ++v) {
      if (u == v) continue;
      EXPECT_EQ(g.has_edge(u, v), distance_sq(pts[u], pts[v]) <= r * r)
          << "pair " << u << "," << v;
    }
  }
}

TEST(SpatialGrid, WithinRadiusSortedAndExcludesSelf) {
  const std::vector<Point2> pts{{0, 0}, {1, 0}, {2, 0}, {0.5, 0.5}};
  const SpatialGrid grid(pts, 1.2);
  const auto near0 = grid.within_radius(0);
  ASSERT_EQ(near0.size(), 2u);
  EXPECT_EQ(near0[0], 1u);
  EXPECT_EQ(near0[1], 3u);
}

TEST(SpatialGrid, CellCountCappedForTinyRadius) {
  // A radius of 1e-8 over a 100-unit spread would naively allocate ~1e20
  // cells; the grid must cap its cell count (enlarged cells, same answers).
  Rng rng(78);
  std::vector<Point2> pts;
  for (int i = 0; i < 200; ++i) {
    pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
  }
  const Graph g = build_unit_disk_graph(pts, 1e-8);
  EXPECT_EQ(g.num_edges(), 0u);
  const SpatialGrid grid(pts, 1e-8);
  EXPECT_EQ(grid.count_within_radius(0), 0u);

  // Near-collinear spread: the flat dimension floors at one row, so the
  // cap must come from enlarging cells along the long axis alone.
  std::vector<Point2> line;
  for (int i = 0; i < 1000; ++i) {
    line.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 1e-6)});
  }
  const Graph lg = build_unit_disk_graph(line, 1e-15);
  EXPECT_EQ(lg.num_edges(), 0u);
}

TEST(SpatialGrid, RejectsNonFiniteCoordinatesAndSpan) {
  // A NaN or infinite coordinate, or finite points more than DBL_MAX apart
  // (the span overflows to inf), would turn the cell counts into NaN.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<Point2>> bad = {
      {{0, 0}, {nan, 1}},
      {{nan, nan}, {0, 0}},
      {{0, 0}, {1, -inf}},
      {{-1e308, 0}, {1e308, 0}},
      {{0, 1e308}, {0, -1e308}}};
  for (const auto& pts : bad) {
    EXPECT_THROW(build_unit_disk_graph(pts, 1.0), InvalidArgument);
    SpatialGrid grid;
    EXPECT_THROW(grid.rebuild(pts, 1.0), InvalidArgument);
  }
  // The widest finite span still builds.
  const Graph g = build_unit_disk_graph({{-8e307, 0}, {8e307, 0}}, 1.0);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(SpatialGrid, CountMatchesListLength) {
  Rng rng(79);
  std::vector<Point2> pts;
  for (int i = 0; i < 150; ++i) {
    pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
  }
  const SpatialGrid grid(pts, 12.0);
  for (NodeId u = 0; u < pts.size(); ++u) {
    EXPECT_EQ(grid.count_within_radius(u), grid.within_radius(u).size());
  }
}

TEST(Graph, FromCsrMatchesFromEdges) {
  Rng rng(81);
  std::vector<Point2> pts;
  for (int i = 0; i < 100; ++i) {
    pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
  }
  const Graph via_edges = reference::build_unit_disk_graph(pts, 15.0);
  std::vector<std::size_t> offsets(via_edges.num_nodes() + 1, 0);
  std::vector<NodeId> adjacency;
  for (NodeId u = 0; u < via_edges.num_nodes(); ++u) {
    const auto row = via_edges.neighbors(u);
    adjacency.insert(adjacency.end(), row.begin(), row.end());
    offsets[u + 1] = adjacency.size();
  }
  const Graph via_csr = Graph::from_csr(std::move(offsets),
                                        std::move(adjacency));
  EXPECT_EQ(via_csr.num_nodes(), via_edges.num_nodes());
  EXPECT_EQ(via_csr.num_edges(), via_edges.num_edges());
  EXPECT_EQ(via_csr.edge_list(), via_edges.edge_list());
}

TEST(Graph, FromCsrRejectsInvalidInput) {
  // offsets must be present, anchored, and monotone.
  EXPECT_THROW(Graph::from_csr({}, {}), InvalidArgument);
  EXPECT_THROW(Graph::from_csr({1, 2}, {0}), InvalidArgument);
  EXPECT_THROW(Graph::from_csr({0, 1}, {0, 1}), InvalidArgument);
  EXPECT_THROW(Graph::from_csr({0, 2, 1, 4}, {1, 2, 0, 0}), InvalidArgument);
  // Unsorted row / duplicate / self-loop / asymmetry.
  EXPECT_THROW(Graph::from_csr({0, 2, 3, 4}, {2, 1, 0, 0}), InvalidArgument);
  EXPECT_THROW(Graph::from_csr({0, 2, 2, 2}, {1, 1}), InvalidArgument);
  EXPECT_THROW(Graph::from_csr({0, 1, 2}, {0, 1}), InvalidArgument);
  EXPECT_THROW(Graph::from_csr({0, 1, 2, 3}, {1, 0, 0}), InvalidArgument);
  // Valid two-node graph passes.
  const Graph ok = Graph::from_csr({0, 1, 2}, {1, 0});
  EXPECT_TRUE(ok.has_edge(0, 1));
}

TEST(Graph, RejectsNodeCountAtIdSpaceLimit) {
  // n >= kInvalidNode must be rejected *before* any O(n) allocation: at the
  // limit the offsets array alone would be ~34 GB.
  const auto too_big = static_cast<std::size_t>(kInvalidNode);
  EXPECT_THROW(Graph{too_big}, InvalidArgument);
  EXPECT_THROW(Graph{too_big + 1}, InvalidArgument);
  EXPECT_THROW(Graph::from_edges(too_big, {}), InvalidArgument);
  // (from_csr's guard is the same check; materializing a 2^32-entry offsets
  // vector just to watch it throw would itself allocate 34 GB, so it is not
  // exercised here.)
}

TEST(UnitDisk, StreamedBuildMatchesReferenceEdgeListBuild) {
  Rng rng(83);
  // Uniform spread, coincident duplicates, and a near-collinear strip: the
  // streamed CSR path must reproduce the edge-list oracle bit-for-bit.
  std::vector<std::vector<Point2>> sets;
  sets.emplace_back();
  for (int i = 0; i < 300; ++i) {
    sets.back().push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
  }
  sets.emplace_back(50, Point2{5.0, 5.0});  // all coincident
  sets.emplace_back();
  for (int i = 0; i < 200; ++i) {
    sets.back().push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 1e-6)});
  }
  SpatialGrid grid;  // reused across sets: rebuild() must re-bind cleanly
  ThreadPool pool(2);
  for (const auto& pts : sets) {
    for (const double radius : {0.5, 8.0, 200.0}) {
      const Graph want = reference::build_unit_disk_graph(pts, radius);
      const Graph serial = build_unit_disk_graph_streamed(pts, radius, grid);
      EXPECT_EQ(serial.edge_list(), want.edge_list());
      EXPECT_EQ(serial.num_nodes(), want.num_nodes());
      const Graph parallel =
          build_unit_disk_graph_streamed(pts, radius, grid, &pool);
      EXPECT_EQ(parallel.edge_list(), want.edge_list());
      const Graph wrapper = build_unit_disk_graph(pts, radius);
      EXPECT_EQ(wrapper.edge_list(), want.edge_list());
    }
  }
}

TEST(SpatialGrid, CellCapAndDegenerateRadiiAtLargeN) {
  // The PR 2 cell-count cap, exercised above 10^4 points: a micro radius
  // over a 100-unit spread must still allocate O(n) cells and answer
  // queries correctly.
  Rng rng(85);
  std::vector<Point2> pts;
  const std::size_t n = 20000;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
  }
  SpatialGrid grid(pts, 1e-9);
  EXPECT_LE(grid.num_cells(), 4 * n + 1024);
  EXPECT_EQ(grid.num_points(), n);
  for (NodeId u = 0; u < 64; ++u) {
    EXPECT_EQ(grid.count_within_radius(u), 0u);
  }

  // Coincident points at scale: everyone sees everyone (one overfull cell).
  const std::vector<Point2> same(15000, Point2{1.0, 1.0});
  grid.rebuild(same, 0.5);
  EXPECT_EQ(grid.count_within_radius(0), same.size() - 1);
  EXPECT_EQ(grid.count_within_radius(7777), same.size() - 1);

  // A rebuild back to the sparse set matches a fresh grid's answers.
  grid.rebuild(pts, 2.0);
  const SpatialGrid fresh(pts, 2.0);
  for (NodeId u = 0; u < 200; ++u) {
    EXPECT_EQ(grid.within_radius(u), fresh.within_radius(u));
  }
}

TEST(InducedSubgraph, KeepsInternalEdgesOnly) {
  const Graph g = Graph::from_edges(
      5, EdgeList{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {1, 3}});
  const auto sub = induced_subgraph(g, {1, 2, 3});
  EXPECT_EQ(sub.graph.num_nodes(), 3u);
  EXPECT_EQ(sub.graph.num_edges(), 3u);  // (1,2),(2,3),(1,3)
  EXPECT_EQ(sub.original_ids, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(sub.new_id[0], kInvalidNode);
  EXPECT_EQ(sub.new_id[2], 1u);
}

TEST(InducedSubgraph, RequiresSortedUniqueInput) {
  const Graph g = path_graph(4);
  EXPECT_THROW(induced_subgraph(g, {2, 1}), InvalidArgument);
  EXPECT_THROW(induced_subgraph(g, {1, 1}), InvalidArgument);
}

}  // namespace
}  // namespace khop
