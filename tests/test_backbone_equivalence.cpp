// Bit-exact equivalence of the PR 4 backbone overhaul: the fused bounded
// sweeps (serial and parallel) must reproduce the preserved reference
// pipeline — reference neighbor rules + map-grouped unbounded link build +
// complete-virtual-graph G-MST — exactly, on every pipeline. The larger-n
// and hardware-thread-count sweep lives in tests/slow/.
#include <gtest/gtest.h>

#include <vector>

#include "khop/gateway/backbone.hpp"
#include "khop/gateway/head_sweep.hpp"
#include "khop/net/generator.hpp"
#include "khop/runtime/thread_pool.hpp"
#include "khop/runtime/workspace.hpp"
#include "oracles/gateway_reference.hpp"
#include "oracles/nbr_reference.hpp"

namespace khop {
namespace {

Graph random_topology(std::size_t n, double degree, std::uint64_t seed) {
  GeneratorConfig gen;
  gen.num_nodes = n;
  gen.target_degree = degree;
  Rng rng(seed);
  return generate_network(gen, rng).graph;
}

void expect_backbone_eq(const Backbone& got, const Backbone& want) {
  EXPECT_EQ(got.heads, want.heads);
  EXPECT_EQ(got.gateways, want.gateways);
  EXPECT_EQ(got.virtual_links, want.virtual_links);
}

TEST(BackboneEquivalence, AllPipelinesMatchReferenceSerial) {
  Workspace ws;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Graph g = random_topology(70 + 25 * seed, 6.0, 400 + seed);
    for (Hops k = 1; k <= 3; ++k) {
      const Clustering c = khop_clustering(g, k);
      for (const Pipeline p : kAllPipelines) {
        expect_backbone_eq(build_backbone(g, c, p, ws),
                           reference::build_backbone(g, c, p));
      }
    }
  }
}

TEST(BackboneEquivalence, AllPipelinesMatchReferenceParallel) {
  ThreadPool pool(2);
  const Graph g = random_topology(120, 6.0, 410);
  for (Hops k = 1; k <= 2; ++k) {
    const Clustering c = khop_clustering(g, k);
    for (const Pipeline p : kAllPipelines) {
      expect_backbone_eq(build_backbone(g, c, p, pool),
                         reference::build_backbone(g, c, p));
    }
  }
}

TEST(BackboneEquivalence, WuLouSpecMatchesReference) {
  const Graph g = random_topology(100, 6.0, 420);
  const Clustering c = khop_clustering(g, 1);
  BackboneSpec spec;
  spec.neighbor_rule = NeighborRule::kWuLou25;
  for (const GatewayAlgorithm ga :
       {GatewayAlgorithm::kMesh, GatewayAlgorithm::kLmst}) {
    spec.gateway = ga;
    Workspace ws;
    ThreadPool pool(2);
    expect_backbone_eq(build_backbone(g, c, spec, ws),
                       reference::build_backbone(g, c, spec));
    expect_backbone_eq(build_backbone(g, c, spec, pool),
                       reference::build_backbone(g, c, spec));
  }
}

TEST(BackboneEquivalence, LmstIntersectionKeepRuleMatchesReference) {
  const Graph g = random_topology(110, 6.0, 430);
  const Clustering c = khop_clustering(g, 2);
  BackboneSpec spec;
  spec.neighbor_rule = NeighborRule::kAllWithin2k1;
  spec.gateway = GatewayAlgorithm::kLmst;
  spec.lmst_keep = LmstKeepRule::kBothEndpoints;
  Workspace ws;
  expect_backbone_eq(build_backbone(g, c, spec, ws),
                     reference::build_backbone(g, c, spec));
}

TEST(BackboneEquivalence, GmstMatchesReferenceIncludingTree) {
  Workspace ws;
  ThreadPool pool(2);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Graph g = random_topology(90 + 15 * seed, 6.0, 440 + seed);
    for (Hops k = 1; k <= 2; ++k) {
      const Clustering c = khop_clustering(g, k);
      const GmstResult want = reference::gmst_gateways(g, c);
      for (const GmstResult& got :
           {gmst_gateways(g, c), gmst_gateways(g, c, ws),
            gmst_gateways(g, c, pool)}) {
        ASSERT_EQ(got.tree.size(), want.tree.size());
        for (std::size_t i = 0; i < got.tree.size(); ++i) {
          EXPECT_EQ(got.tree[i].u, want.tree[i].u);
          EXPECT_EQ(got.tree[i].v, want.tree[i].v);
          EXPECT_EQ(got.tree[i].weight, want.tree[i].weight);
        }
        EXPECT_EQ(got.kept_links, want.kept_links);
        EXPECT_EQ(got.gateways, want.gateways);
      }
    }
  }
}

TEST(BackboneEquivalence, FusedSweepMatchesTwoPassSelection) {
  // The fused sweep's NeighborSelection must equal select_neighbors(NC) and
  // its links must equal the stand-alone build over the selection's pairs.
  Workspace ws;
  const Graph g = random_topology(130, 6.0, 450);
  for (Hops k = 1; k <= 3; ++k) {
    const Clustering c = khop_clustering(g, k);
    const HeadSweep sweep = nc_sweep(g, c, ws);
    const NeighborSelection sel =
        select_neighbors(g, c, NeighborRule::kAllWithin2k1);
    EXPECT_EQ(sweep.sel.selected, sel.selected);
    EXPECT_EQ(sweep.sel.head_pairs, sel.head_pairs);

    const VirtualLinkMap links = VirtualLinkMap::build(g, sel.head_pairs);
    ASSERT_EQ(sweep.links.all().size(), links.all().size());
    for (std::size_t i = 0; i < links.all().size(); ++i) {
      EXPECT_EQ(sweep.links.all()[i].u, links.all()[i].u);
      EXPECT_EQ(sweep.links.all()[i].v, links.all()[i].v);
      EXPECT_EQ(sweep.links.all()[i].hops, links.all()[i].hops);
      EXPECT_TRUE(std::ranges::equal(sweep.links.path(sweep.links.all()[i]),
                                     links.path(links.all()[i])));
    }
  }
}

TEST(BackboneEquivalence, SingleHeadClusteringBuildsEmptyBackbone) {
  const Graph g = Graph::from_edges(
      3, std::vector<std::pair<NodeId, NodeId>>{{0, 1}, {1, 2}});
  const Clustering c = khop_clustering(g, 2);
  ASSERT_EQ(c.heads.size(), 1u);
  Workspace ws;
  ThreadPool pool(2);
  for (const Pipeline p : kAllPipelines) {
    expect_backbone_eq(build_backbone(g, c, p, ws),
                       reference::build_backbone(g, c, p));
    expect_backbone_eq(build_backbone(g, c, p, pool),
                       reference::build_backbone(g, c, p));
  }
}

}  // namespace
}  // namespace khop
