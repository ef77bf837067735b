// Unit tests for the BFS toolkit, including the canonical-parent guarantees
// the rest of the library depends on.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "khop/common/error.hpp"
#include "khop/common/rng.hpp"
#include "khop/geom/placement.hpp"
#include "khop/graph/bfs.hpp"
#include "khop/graph/spatial_grid.hpp"
#include "oracles/bfs_reference.hpp"

namespace khop {
namespace {

using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

// 0-1-2-3-4 path plus a 0-5 pendant.
Graph sample_graph() {
  return Graph::from_edges(
      6, EdgeList{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 5}});
}

TEST(Bfs, DistancesOnPath) {
  const auto t = bfs(sample_graph(), 0);
  EXPECT_EQ(t.dist, (std::vector<Hops>{0, 1, 2, 3, 4, 1}));
}

TEST(Bfs, ParentsPointBackward) {
  const auto t = bfs(sample_graph(), 0);
  EXPECT_EQ(t.parent[0], kInvalidNode);
  EXPECT_EQ(t.parent[1], 0u);
  EXPECT_EQ(t.parent[2], 1u);
  EXPECT_EQ(t.parent[4], 3u);
  EXPECT_EQ(t.parent[5], 0u);
}

TEST(Bfs, BoundedStopsAtHorizon) {
  const auto t = bfs_bounded(sample_graph(), 0, 2);
  EXPECT_EQ(t.dist[2], 2u);
  EXPECT_EQ(t.dist[3], kUnreachable);
  EXPECT_EQ(t.dist[4], kUnreachable);
}

TEST(Bfs, UnreachableOnDisconnected) {
  const Graph g = Graph::from_edges(4, EdgeList{{0, 1}, {2, 3}});
  const auto t = bfs(g, 0);
  EXPECT_EQ(t.dist[2], kUnreachable);
  EXPECT_EQ(t.parent[2], kInvalidNode);
}

TEST(Bfs, CanonicalParentIsMinId) {
  // Diamond: 0-{1,2}-3; node 3 is discovered by both 1 and 2 at level 2.
  const Graph g = Graph::from_edges(4, EdgeList{{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  const auto t = bfs(g, 0);
  EXPECT_EQ(t.parent[3], 1u);
}

TEST(Bfs, CanonicalParentAcrossInterleavedFrontier) {
  // Two disjoint 2-paths from 0 meet at 5: 0-3-5 and 0-1-5 with extra nodes
  // so the frontier ordering matters. parent(5) must be 1, not 3.
  const Graph g = Graph::from_edges(
      6, EdgeList{{0, 3}, {0, 1}, {3, 5}, {1, 5}, {0, 2}, {2, 4}});
  const auto t = bfs(g, 0);
  EXPECT_EQ(t.dist[5], 2u);
  EXPECT_EQ(t.parent[5], 1u);
}

TEST(Bfs, KHopNeighborhoodExcludesSource) {
  const auto nbrs = k_hop_neighborhood(sample_graph(), 0, 2);
  EXPECT_EQ(nbrs, (std::vector<NodeId>{1, 2, 5}));
}

TEST(Bfs, ExtractPathEndpointsInclusive) {
  const auto t = bfs(sample_graph(), 0);
  const auto path = extract_path(t, 4);
  EXPECT_EQ(path, (std::vector<NodeId>{0, 1, 2, 3, 4}));
}

TEST(Bfs, ExtractPathToSourceIsSingleton) {
  const auto t = bfs(sample_graph(), 2);
  EXPECT_EQ(extract_path(t, 2), (std::vector<NodeId>{2}));
}

TEST(Bfs, ExtractPathRejectsUnreachable) {
  const Graph g = Graph::from_edges(3, EdgeList{{0, 1}});
  const auto t = bfs(g, 0);
  EXPECT_THROW(extract_path(t, 2), InvalidArgument);
}

TEST(Bfs, PathIsShortest) {
  // Random unit-disk instance: every extracted path length equals dist.
  Rng rng(21);
  const auto pts = place_uniform(80, Field{100.0}, rng);
  const Graph g = build_unit_disk_graph(pts, 20.0);
  const auto t = bfs(g, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (t.dist[v] == kUnreachable) continue;
    const auto path = extract_path(t, v);
    EXPECT_EQ(path.size(), t.dist[v] + 1u);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      EXPECT_TRUE(g.has_edge(path[i], path[i + 1]));
    }
  }
}

TEST(MultiSourceBfs, NearestSeedWins) {
  const auto r = multi_source_bfs(sample_graph(), {0, 4});
  EXPECT_EQ(r.dist, (std::vector<Hops>{0, 1, 2, 1, 0, 1}));
  EXPECT_EQ(r.owner[1], 0u);
  EXPECT_EQ(r.owner[3], 4u);
}

TEST(MultiSourceBfs, TieBreaksBySmallerSeed) {
  // 0-1-2: node 1 is equidistant from seeds 0 and 2.
  const Graph g = Graph::from_edges(3, EdgeList{{0, 1}, {1, 2}});
  const auto r = multi_source_bfs(g, {0, 2});
  EXPECT_EQ(r.owner[1], 0u);
}

TEST(AllPairsHops, SymmetricAndZeroDiagonal) {
  const Graph g = sample_graph();
  const auto d = all_pairs_hops(g);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(d[u][u], 0u);
    for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_EQ(d[u][v], d[v][u]);
  }
  EXPECT_EQ(d[5][4], 5u);
}

TEST(Bfs, RejectsBadSource) {
  EXPECT_THROW(bfs(sample_graph(), 6), InvalidArgument);
}

}  // namespace
}  // namespace khop
