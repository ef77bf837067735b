// Unit tests for phase 1 of the localized solution: NC, A-NCR and the
// Wu-Lou 2.5-hop rule, plus the Theorem-1 connectivity guarantee.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "khop/common/error.hpp"
#include "khop/graph/bfs.hpp"
#include "khop/graph/components.hpp"
#include "khop/nbr/cluster_graph.hpp"
#include "khop/nbr/neighbor_rules.hpp"
#include "khop/net/generator.hpp"
#include "oracles/bfs_reference.hpp"
#include "oracles/nbr_reference.hpp"

namespace khop {
namespace {

using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

// Three-cluster k=1 topology: head 0 owns {0,3,4}; heads 1 and 2 are leaf
// clusters attached through 0's members: 1-3-0-4-2 with 0 adjacent to 3,4.
Graph tri_cluster_graph() {
  return Graph::from_edges(5,
                           EdgeList{{1, 3}, {3, 4}, {4, 2}, {0, 3}, {0, 4}});
}

TEST(AdjacentClusters, DetectedFromCrossEdges) {
  const Graph g = tri_cluster_graph();
  const Clustering c = khop_clustering(g, 1);
  ASSERT_EQ(c.heads, (std::vector<NodeId>{0, 1, 2}));
  const auto pairs = adjacent_cluster_pairs(g, c);
  // Clusters (0,1) via edge 1-3 and (0,2) via edge 4-2; never (1,2).
  EXPECT_EQ(pairs,
            (std::vector<std::pair<std::uint32_t, std::uint32_t>>{{0, 1},
                                                                  {0, 2}}));
}

TEST(ANcr, SelectsOnlyAdjacentHeads) {
  const Graph g = tri_cluster_graph();
  const Clustering c = khop_clustering(g, 1);
  const auto sel = select_neighbors(g, c, NeighborRule::kAdjacent);
  EXPECT_EQ(sel.selected[0], (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(sel.selected[1], (std::vector<NodeId>{0}));
  EXPECT_EQ(sel.selected[2], (std::vector<NodeId>{0}));
  EXPECT_EQ(sel.head_pairs,
            (std::vector<std::pair<NodeId, NodeId>>{{0, 1}, {0, 2}}));
}

TEST(Nc, SelectsAllHeadsWithinHorizon) {
  const Graph g = tri_cluster_graph();
  const Clustering c = khop_clustering(g, 1);
  const auto sel = select_neighbors(g, c, NeighborRule::kAllWithin2k1);
  // dist(1,2) = 3 <= 2k+1 = 3, so NC also links the two leaf heads.
  EXPECT_EQ(sel.selected[1], (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(sel.head_pairs,
            (std::vector<std::pair<NodeId, NodeId>>{{0, 1}, {0, 2}, {1, 2}}));
}

TEST(WuLou, DropsThreeHopHeadWithoutNearMember) {
  const Graph g = tri_cluster_graph();
  const Clustering c = khop_clustering(g, 1);
  const auto sel = select_neighbors(g, c, NeighborRule::kWuLou25);
  // Head 1: head 0 is 2 hops (covered); head 2 is 3 hops away and cluster 2
  // has no member within 2 hops of 1 -> not covered.
  EXPECT_EQ(sel.selected[1], (std::vector<NodeId>{0}));
  EXPECT_EQ(sel.selected[2], (std::vector<NodeId>{0}));
  EXPECT_EQ(sel.head_pairs,
            (std::vector<std::pair<NodeId, NodeId>>{{0, 1}, {0, 2}}));
}

TEST(WuLou, CoversThreeHopHeadWithNearMember) {
  // Path 0-2-3-1 with k=1: heads {0,1}, C0 = {0,2}, C1 = {1,3}.
  // dist(0,1) = 3 and member 3 of C1 is 2 hops from head 0 -> covered.
  const Graph g = Graph::from_edges(4, EdgeList{{0, 2}, {2, 3}, {3, 1}});
  const Clustering c = khop_clustering(g, 1);
  ASSERT_EQ(c.heads, (std::vector<NodeId>{0, 1}));
  const auto sel = select_neighbors(g, c, NeighborRule::kWuLou25);
  EXPECT_EQ(sel.selected[0], (std::vector<NodeId>{1}));
  EXPECT_EQ(sel.selected[1], (std::vector<NodeId>{0}));
}

TEST(WuLou, RequiresKEqualOne) {
  const Graph g = tri_cluster_graph();
  const Clustering c = khop_clustering(g, 2);
  EXPECT_THROW(select_neighbors(g, c, NeighborRule::kWuLou25),
               InvalidArgument);
}

TEST(ANcr, AdjacentHeadsAlwaysWithin2kPlus1) {
  Rng rng(501);
  GeneratorConfig cfg;
  cfg.num_nodes = 130;
  const AdHocNetwork net = generate_network(cfg, rng);
  for (Hops k = 1; k <= 3; ++k) {
    const Clustering c = khop_clustering(net.graph, k);
    const auto sel = select_neighbors(net.graph, c, NeighborRule::kAdjacent);
    const auto d = all_pairs_hops(net.graph);
    for (const auto& [u, v] : sel.head_pairs) {
      EXPECT_GE(d[u][v], k + 1) << "k=" << k;
      EXPECT_LE(d[u][v], 2 * k + 1) << "k=" << k;
    }
  }
}

TEST(Theorem1, AdjacentClusterGraphConnected) {
  Rng rng(502);
  GeneratorConfig cfg;
  for (const std::size_t n : {50u, 100u, 150u}) {
    cfg.num_nodes = n;
    const AdHocNetwork net = generate_network(cfg, rng);
    for (Hops k = 1; k <= 4; ++k) {
      const Clustering c = khop_clustering(net.graph, k);
      EXPECT_TRUE(theorem1_holds(net.graph, c)) << "n=" << n << " k=" << k;
    }
  }
}

TEST(Theorem1, ANcrIsSubsetOfNc) {
  Rng rng(503);
  GeneratorConfig cfg;
  cfg.num_nodes = 120;
  const AdHocNetwork net = generate_network(cfg, rng);
  for (Hops k = 1; k <= 3; ++k) {
    const Clustering c = khop_clustering(net.graph, k);
    const auto ac = select_neighbors(net.graph, c, NeighborRule::kAdjacent);
    const auto nc =
        select_neighbors(net.graph, c, NeighborRule::kAllWithin2k1);
    for (const auto& pair : ac.head_pairs) {
      EXPECT_TRUE(std::binary_search(nc.head_pairs.begin(),
                                     nc.head_pairs.end(), pair))
          << "A-NCR pair missing from NC at k=" << k;
    }
    EXPECT_LE(ac.head_pairs.size(), nc.head_pairs.size());
  }
}

TEST(SelectionGraph, MatchesAdjacentClusterGraph) {
  const Graph g = tri_cluster_graph();
  const Clustering c = khop_clustering(g, 1);
  const auto sel = select_neighbors(g, c, NeighborRule::kAdjacent);
  const Graph gsel = selection_graph(c, sel);
  const Graph gadj = adjacent_cluster_graph(g, c);
  EXPECT_EQ(gsel.edge_list(), gadj.edge_list());
  EXPECT_TRUE(is_connected(gsel));
}

// PR 4 rewrote the production rules (reached-set head scans, flat-vector
// adjacent pairs, precomputed Wu-Lou coverage marks); the preserved verbatim
// originals must agree bit-for-bit on random topologies.
TEST(NeighborOracle, ProductionMatchesReferenceOnRandomTopologies) {
  Rng rng(505);
  GeneratorConfig cfg;
  for (const std::size_t n : {60u, 110u, 160u}) {
    cfg.num_nodes = n;
    const AdHocNetwork net = generate_network(cfg, rng);
    for (Hops k = 1; k <= 3; ++k) {
      const Clustering c = khop_clustering(net.graph, k);
      EXPECT_EQ(adjacent_cluster_pairs(net.graph, c),
                reference::adjacent_cluster_pairs(net.graph, c))
          << "n=" << n << " k=" << k;
      for (const NeighborRule rule :
           {NeighborRule::kAllWithin2k1, NeighborRule::kAdjacent,
            NeighborRule::kWuLou25}) {
        if (rule == NeighborRule::kWuLou25 && k != 1) continue;
        const NeighborSelection got = select_neighbors(net.graph, c, rule);
        const NeighborSelection want =
            reference::select_neighbors(net.graph, c, rule);
        EXPECT_EQ(got.rule, want.rule);
        EXPECT_EQ(got.selected, want.selected) << "n=" << n << " k=" << k;
        EXPECT_EQ(got.head_pairs, want.head_pairs) << "n=" << n << " k=" << k;
      }
    }
  }
}

TEST(SelectionGraph, WuLouStillConnectsAllHeads) {
  // The 2.5-hop rule drops links but must keep the head graph connected.
  Rng rng(504);
  GeneratorConfig cfg;
  cfg.num_nodes = 100;
  for (int rep = 0; rep < 5; ++rep) {
    const AdHocNetwork net = generate_network(cfg, rng);
    const Clustering c = khop_clustering(net.graph, 1);
    const auto sel = select_neighbors(net.graph, c, NeighborRule::kWuLou25);
    EXPECT_TRUE(is_connected(selection_graph(c, sel))) << "rep " << rep;
  }
}

}  // namespace
}  // namespace khop
