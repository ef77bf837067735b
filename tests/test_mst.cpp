// Unit tests for Kruskal/Prim MST over weighted virtual edges.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "khop/common/error.hpp"
#include "khop/common/rng.hpp"
#include "khop/graph/mst.hpp"
#include "khop/graph/union_find.hpp"
#include "oracles/mst_reference.hpp"

namespace khop {
namespace {

std::uint64_t total_weight(const std::vector<WeightedEdge>& edges) {
  std::uint64_t t = 0;
  for (const auto& e : edges) t += e.weight;
  return t;
}

std::vector<std::vector<WeightedEdge>> to_adjacency(
    std::size_t n, const std::vector<WeightedEdge>& edges) {
  std::vector<std::vector<WeightedEdge>> adj(n);
  for (const auto& e : edges) {
    adj[e.u].push_back(e);
    adj[e.v].push_back({e.v, e.u, e.weight});
  }
  return adj;
}

TEST(EdgeLess, OrdersByWeightThenIds) {
  EXPECT_TRUE(edge_less({0, 1, 1}, {0, 1, 2}));
  EXPECT_TRUE(edge_less({0, 1, 5}, {0, 2, 5}));
  EXPECT_TRUE(edge_less({0, 2, 5}, {1, 2, 5}));
  // Orientation must not matter.
  EXPECT_FALSE(edge_less({2, 0, 5}, {0, 2, 5}));
  EXPECT_FALSE(edge_less({0, 2, 5}, {2, 0, 5}));
}

TEST(Kruskal, TriangleDropsHeaviestEdge) {
  const std::vector<WeightedEdge> edges{{0, 1, 1}, {1, 2, 2}, {0, 2, 3}};
  const auto tree = kruskal_mst(3, edges);
  ASSERT_EQ(tree.size(), 2u);
  EXPECT_EQ(total_weight(tree), 3u);
}

TEST(Kruskal, SingleNodeNeedsNoEdges) {
  EXPECT_TRUE(kruskal_mst(1, {}).empty());
}

TEST(Kruskal, ThrowsOnDisconnected) {
  const std::vector<WeightedEdge> edges{{0, 1, 1}};
  EXPECT_THROW(kruskal_mst(3, edges), NotConnected);
}

TEST(Kruskal, RejectsBadEdges) {
  EXPECT_THROW(kruskal_mst(2, {{0, 0, 1}}), InvalidArgument);
  EXPECT_THROW(kruskal_mst(2, {{0, 5, 1}}), InvalidArgument);
}

TEST(Kruskal, TieBreakIsDeterministic) {
  // All weights equal: the id-lexicographic order picks (0,1),(0,2),(0,3).
  const std::vector<WeightedEdge> edges{
      {2, 3, 7}, {0, 3, 7}, {1, 2, 7}, {0, 1, 7}, {0, 2, 7}, {1, 3, 7}};
  const auto tree = kruskal_mst(4, edges);
  ASSERT_EQ(tree.size(), 3u);
  EXPECT_EQ(tree[0].u, 0u);
  EXPECT_EQ(tree[0].v, 1u);
  EXPECT_EQ(tree[1].u, 0u);
  EXPECT_EQ(tree[1].v, 2u);
  EXPECT_EQ(tree[2].u, 0u);
  EXPECT_EQ(tree[2].v, 3u);
}

TEST(Prim, MatchesKruskalWeightOnRandomGraphs) {
  Rng rng(31);
  for (int rep = 0; rep < 20; ++rep) {
    const std::size_t n = 3 + rng.uniform_int(20);
    // Random connected graph: a random spanning chain + extra edges.
    std::vector<WeightedEdge> edges;
    for (NodeId v = 1; v < n; ++v) {
      edges.push_back({static_cast<NodeId>(rng.uniform_int(v)), v,
                       1 + rng.uniform_int(50)});
    }
    const std::size_t extra = rng.uniform_int(2 * n);
    for (std::size_t e = 0; e < extra; ++e) {
      const auto a = static_cast<NodeId>(rng.uniform_int(n));
      const auto b = static_cast<NodeId>(rng.uniform_int(n));
      if (a != b) edges.push_back({a, b, 1 + rng.uniform_int(50)});
    }

    const auto kruskal = kruskal_mst(n, edges);
    const auto parent = prim_mst(n, to_adjacency(n, edges), 0);
    std::uint64_t prim_weight = 0;
    // Recover each parent edge's weight as the lightest parallel edge.
    for (NodeId v = 1; v < n; ++v) {
      ASSERT_NE(parent[v], kInvalidNode);
      std::uint64_t best = ~0ULL;
      for (const auto& e : edges) {
        if ((e.u == v && e.v == parent[v]) || (e.v == v && e.u == parent[v])) {
          best = std::min(best, e.weight);
        }
      }
      prim_weight += best;
    }
    EXPECT_EQ(prim_weight, total_weight(kruskal)) << "rep " << rep;
  }
}

TEST(Prim, RootHasNoParent) {
  const std::vector<WeightedEdge> edges{{0, 1, 1}, {1, 2, 1}};
  const auto parent = prim_mst(3, to_adjacency(3, edges), 1);
  EXPECT_EQ(parent[1], kInvalidNode);
  EXPECT_EQ(parent[0], 1u);
  EXPECT_EQ(parent[2], 1u);
}

TEST(Prim, ThrowsOnDisconnected) {
  const std::vector<WeightedEdge> edges{{0, 1, 1}};
  EXPECT_THROW(prim_mst(3, to_adjacency(3, edges), 0), NotConnected);
}

TEST(UnionFind, BasicMerging) {
  UnionFind uf(5);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(2, 3));
  EXPECT_FALSE(uf.unite(1, 0));
  EXPECT_TRUE(uf.connected(0, 1));
  EXPECT_FALSE(uf.connected(0, 2));
  EXPECT_TRUE(uf.unite(1, 3));
  EXPECT_TRUE(uf.connected(0, 2));
  EXPECT_EQ(uf.set_size(3), 4u);
  EXPECT_EQ(uf.set_size(4), 1u);
}

}  // namespace
}  // namespace khop
