// Unit tests for the three gateway algorithms: Mesh, LMSTGA, G-MST.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "khop/gateway/gateway_set.hpp"
#include "khop/gateway/gmst.hpp"
#include "khop/gateway/lmst.hpp"
#include "khop/gateway/mesh.hpp"
#include "khop/graph/union_find.hpp"
#include "khop/net/generator.hpp"

namespace khop {
namespace {

using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

// Three-cluster k=1 topology (see test_neighbor_rules): heads {0,1,2},
// C0 = {0,3,4}; A-NCR pairs (0,1) and (0,2) with paths 0-3-1 and 0-4-2.
struct TriFixture {
  Graph g = Graph::from_edges(5,
                              EdgeList{{1, 3}, {3, 4}, {4, 2}, {0, 3}, {0, 4}});
  Clustering c = khop_clustering(g, 1);
  NeighborSelection sel = select_neighbors(g, c, NeighborRule::kAdjacent);
  VirtualLinkMap links = VirtualLinkMap::build(g, sel.head_pairs);
};

TEST(Mesh, MarksPathInteriors) {
  TriFixture f;
  const MeshResult r = mesh_gateways(f.c, f.links);
  EXPECT_EQ(r.gateways, (std::vector<NodeId>{3, 4}));
  EXPECT_EQ(r.kept_links, f.sel.head_pairs);
}

TEST(Mesh, SharedGatewaysCountedOnce) {
  // Path 0..6 with k=1: heads {0,2,4,6}; consecutive head pairs share no
  // interior but pairs (0,2) & (2,4) both use node... actually each pair's
  // interior is distinct; use NC selection where (0,4) would reuse interiors
  // of (0,2) and (2,4).
  const Graph g = Graph::from_edges(
      7, EdgeList{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}});
  const Clustering c = khop_clustering(g, 1);
  ASSERT_EQ(c.heads, (std::vector<NodeId>{0, 2, 4, 6}));
  const auto sel = select_neighbors(g, c, NeighborRule::kAllWithin2k1);
  const auto links = VirtualLinkMap::build(g, sel.head_pairs);
  const MeshResult r = mesh_gateways(c, links);
  // All odd nodes relay; heads on paths (e.g. 2 on 0..4) are not gateways.
  EXPECT_EQ(r.gateways, (std::vector<NodeId>{1, 3, 5}));
}

TEST(GatewaySet, EmitsDistinctNonHeadsAscendingAndClearsMarks) {
  // Heads 0 and 5; every other node belongs to one of them.
  Clustering c;
  c.head_of = {0, 0, 0, 0, 0, 5, 5, 5, 5, 5, 5, 5};
  std::vector<std::uint8_t> marks;
  {
    GatewaySet set(c, marks);
    EXPECT_EQ(marks.size(), c.head_of.size());
    set.add(std::vector<NodeId>{9, 3, 5, 3, 7});
    set.add(std::vector<NodeId>{0, 4, 9});
    EXPECT_EQ(set.take(), (std::vector<NodeId>{3, 4, 7, 9}));
    EXPECT_TRUE(set.take().empty());
  }
  EXPECT_EQ(std::count(marks.begin(), marks.end(), 0), 12);
  {
    // Dropped without take (as when a link lookup throws): the marks
    // still end up clear for the next set.
    GatewaySet set(c, marks);
    set.add(std::vector<NodeId>{11, 2, 6});
  }
  EXPECT_EQ(std::count(marks.begin(), marks.end(), 0), 12);
  GatewaySet set(c, marks);
  set.add(std::vector<NodeId>{11});
  set.add(std::vector<NodeId>{1});
  EXPECT_EQ(set.take(), (std::vector<NodeId>{1, 11}));
}

TEST(Lmst, KeepsTreePerHeadNeighborhood) {
  TriFixture f;
  const LmstResult r = lmst_gateways(f.c, f.sel, f.links);
  EXPECT_EQ(r.kept_links,
            (std::vector<std::pair<NodeId, NodeId>>{{0, 1}, {0, 2}}));
  EXPECT_EQ(r.gateways, (std::vector<NodeId>{3, 4}));
}

TEST(Lmst, PrunesRedundantNcLinks) {
  // NC selection on the tri-cluster graph adds the (1,2) link (3 hops);
  // every head's local MST prefers the two 2-hop links, so (1,2) must be
  // pruned and the gateway count stays at 2.
  TriFixture f;
  const auto nc = select_neighbors(f.g, f.c, NeighborRule::kAllWithin2k1);
  const auto links = VirtualLinkMap::build(f.g, nc.head_pairs);
  const LmstResult r = lmst_gateways(f.c, nc, links);
  EXPECT_EQ(r.kept_links,
            (std::vector<std::pair<NodeId, NodeId>>{{0, 1}, {0, 2}}));
  EXPECT_EQ(r.gateways, (std::vector<NodeId>{3, 4}));
}

TEST(Lmst, NeverKeepsMoreLinksThanMesh) {
  Rng rng(701);
  GeneratorConfig cfg;
  cfg.num_nodes = 120;
  const AdHocNetwork net = generate_network(cfg, rng);
  for (Hops k = 1; k <= 3; ++k) {
    const Clustering c = khop_clustering(net.graph, k);
    const auto sel =
        select_neighbors(net.graph, c, NeighborRule::kAllWithin2k1);
    const auto links = VirtualLinkMap::build(net.graph, sel.head_pairs);
    const LmstResult lm = lmst_gateways(c, sel, links);
    const MeshResult mesh = mesh_gateways(c, links);
    EXPECT_LE(lm.kept_links.size(), mesh.kept_links.size()) << "k=" << k;
    EXPECT_LE(lm.gateways.size(), mesh.gateways.size()) << "k=" << k;
  }
}

TEST(Lmst, KeptLinksSpanAllHeads) {
  Rng rng(702);
  GeneratorConfig cfg;
  cfg.num_nodes = 100;
  const AdHocNetwork net = generate_network(cfg, rng);
  for (Hops k = 1; k <= 3; ++k) {
    const Clustering c = khop_clustering(net.graph, k);
    const auto sel = select_neighbors(net.graph, c, NeighborRule::kAdjacent);
    const auto links = VirtualLinkMap::build(net.graph, sel.head_pairs);
    const LmstResult r = lmst_gateways(c, sel, links);
    // Union-find over kept links must connect every head (Theorem 2).
    std::map<NodeId, std::size_t> idx;
    for (std::size_t i = 0; i < c.heads.size(); ++i) idx[c.heads[i]] = i;
    UnionFind uf(c.heads.size());
    for (const auto& [u, v] : r.kept_links) {
      uf.unite(static_cast<NodeId>(idx.at(u)),
               static_cast<NodeId>(idx.at(v)));
    }
    for (std::size_t i = 1; i < c.heads.size(); ++i) {
      EXPECT_TRUE(uf.connected(0, static_cast<NodeId>(i))) << "k=" << k;
    }
  }
}

TEST(Gmst, ChainOfHeadsUsesAllInteriors) {
  const Graph g = Graph::from_edges(
      7, EdgeList{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}});
  const Clustering c = khop_clustering(g, 1);
  const GmstResult r = gmst_gateways(g, c, nc_sweep(g, c));
  ASSERT_EQ(r.tree.size(), 3u);  // 4 heads -> 3 tree edges
  EXPECT_EQ(r.gateways, (std::vector<NodeId>{1, 3, 5}));
}

TEST(Gmst, LowerBoundsPipelines) {
  Rng rng(703);
  GeneratorConfig cfg;
  cfg.num_nodes = 140;
  const AdHocNetwork net = generate_network(cfg, rng);
  for (Hops k = 1; k <= 3; ++k) {
    const Clustering c = khop_clustering(net.graph, k);
    const GmstResult gm =
        gmst_gateways(net.graph, c, nc_sweep(net.graph, c));

    const auto sel = select_neighbors(net.graph, c, NeighborRule::kAdjacent);
    const auto links = VirtualLinkMap::build(net.graph, sel.head_pairs);
    const MeshResult mesh = mesh_gateways(c, links);
    // G-MST uses heads-1 links, the sparsest spanning structure.
    EXPECT_LE(gm.tree.size(), mesh.kept_links.size()) << "k=" << k;
  }
}

TEST(Gmst, SingleHeadNeedsNoGateways) {
  const Graph g = Graph::from_edges(3, EdgeList{{0, 1}, {1, 2}});
  const Clustering c = khop_clustering(g, 2);
  ASSERT_EQ(c.heads.size(), 1u);
  const GmstResult r = gmst_gateways(g, c, nc_sweep(g, c));
  EXPECT_TRUE(r.tree.empty());
  EXPECT_TRUE(r.gateways.empty());
}

}  // namespace
}  // namespace khop
