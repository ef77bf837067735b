// Bit-exact equivalence of the PR 4 backbone overhaul: the fused bounded
// sweeps (serial and parallel) must reproduce the preserved reference
// pipeline — reference neighbor rules + map-grouped unbounded link build +
// complete-virtual-graph G-MST — exactly, on every pipeline. The larger-n
// and hardware-thread-count sweep lives in tests/slow/.
#include <gtest/gtest.h>

#include <vector>

#include "khop/common/error.hpp"
#include "khop/gateway/backbone.hpp"
#include "khop/gateway/gmst.hpp"
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

void expect_gmst_eq(const GmstResult& got, const GmstResult& want) {
  ASSERT_EQ(got.tree.size(), want.tree.size());
  for (std::size_t i = 0; i < got.tree.size(); ++i) {
    EXPECT_EQ(got.tree[i].u, want.tree[i].u);
    EXPECT_EQ(got.tree[i].v, want.tree[i].v);
    EXPECT_EQ(got.tree[i].weight, want.tree[i].weight);
  }
  EXPECT_EQ(got.kept_links, want.kept_links);
  EXPECT_EQ(got.gateways, want.gateways);
}

/// G-MST from the NC sweep, run serially, on \p ws and on \p pool.
std::vector<GmstResult> gmst_runs(const Graph& g, const Clustering& c,
                                  Workspace& ws, ThreadPool& pool) {
  return {gmst_gateways(g, c, nc_sweep(g, c)),
          gmst_gateways(g, c, nc_sweep(g, c, ws), ws),
          gmst_gateways(g, c, nc_sweep(g, c, pool), pool)};
}

TEST(BackboneEquivalence, GmstMatchesReferenceIncludingTree) {
  // The paper grid: D in {6, 10}, k 1-4, N in {50, 100, 200}.
  Workspace ws;
  ThreadPool pool(2);
  for (const double degree : {6.0, 10.0}) {
    for (const std::size_t n : {50u, 100u, 200u}) {
      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        const Graph g = random_topology(n, degree, 440 + n + seed);
        for (Hops k = 1; k <= 4; ++k) {
          const Clustering c = khop_clustering(g, k);
          const GmstResult want = reference::gmst_gateways(g, c);
          for (const GmstResult& got : gmst_runs(g, c, ws, pool)) {
            expect_gmst_eq(got, want);
          }
        }
      }
    }
  }
}

TEST(BackboneEquivalence, GmstFallsBackToCompleteGraphOffInvariant) {
  // Path 0-7 at k = 1 with heads {0, 7}: nodes 2-5 sit beyond k of their
  // heads, the heads are 7 > 2k+1 hops apart, so the NC sweep selects no
  // pair and only the complete head graph spans.
  const Graph g = Graph::from_edges(
      8, std::vector<std::pair<NodeId, NodeId>>{
             {0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}});
  Clustering c;
  c.k = 1;
  c.heads = {0, 7};
  c.head_of = {0, 0, 0, 0, 7, 7, 7, 7};
  c.dist_to_head = {0, 1, 2, 3, 3, 2, 1, 0};
  c.cluster_of = {0, 0, 0, 0, 1, 1, 1, 1};
  Workspace ws;
  ThreadPool pool(2);
  ASSERT_TRUE(nc_sweep(g, c).sel.head_pairs.empty());
  const GmstResult want = reference::gmst_gateways(g, c);
  ASSERT_EQ(want.gateways, (std::vector<NodeId>{1, 2, 3, 4, 5, 6}));
  for (const GmstResult& got : gmst_runs(g, c, ws, pool)) {
    expect_gmst_eq(got, want);
  }
  expect_backbone_eq(build_backbone(g, c, Pipeline::kGmst, ws),
                     reference::build_backbone(g, c, Pipeline::kGmst));
  expect_backbone_eq(build_backbone(g, c, Pipeline::kGmst, pool),
                     reference::build_backbone(g, c, Pipeline::kGmst));
}

TEST(BackboneEquivalence, GmstOnDisconnectedHeadsThrows) {
  // Two components, one head each: no head pair has a path in G.
  const Graph g = Graph::from_edges(
      4, std::vector<std::pair<NodeId, NodeId>>{{0, 1}, {2, 3}});
  Clustering c;
  c.k = 1;
  c.heads = {0, 2};
  c.head_of = {0, 0, 2, 2};
  c.dist_to_head = {0, 1, 0, 1};
  c.cluster_of = {0, 0, 1, 1};
  Workspace ws;
  ThreadPool pool(2);
  EXPECT_THROW(gmst_gateways(g, c, nc_sweep(g, c)), NotConnected);
  EXPECT_THROW(build_backbone(g, c, Pipeline::kGmst, ws), NotConnected);
  EXPECT_THROW(build_backbone(g, c, Pipeline::kGmst, pool), NotConnected);
}

TEST(BackboneEquivalence, GmstSpecRequiresTheNcRule) {
  const Graph g = random_topology(80, 6.0, 460);
  const Clustering c = khop_clustering(g, 1);
  EXPECT_EQ(spec_for(Pipeline::kGmst).neighbor_rule,
            NeighborRule::kAllWithin2k1);
  BackboneSpec spec;
  spec.gateway = GatewayAlgorithm::kGmst;
  for (const NeighborRule rule :
       {NeighborRule::kAdjacent, NeighborRule::kWuLou25}) {
    spec.neighbor_rule = rule;
    EXPECT_THROW(build_backbone(g, c, spec), InvalidArgument);
  }
}

TEST(BackboneEquivalence, FusedSweepMatchesTwoPassSelection) {
  // The fused sweep's NeighborSelection must equal select_neighbors(NC) and
  // the reference NC rule, and its links must equal the stand-alone build
  // over the selection's pairs.
  Workspace ws;
  const Graph g = random_topology(130, 6.0, 450);
  for (Hops k = 1; k <= 3; ++k) {
    const Clustering c = khop_clustering(g, k);
    const HeadSweep sweep = nc_sweep(g, c, ws);
    const NeighborSelection sel =
        select_neighbors(g, c, NeighborRule::kAllWithin2k1);
    EXPECT_EQ(sweep.sel.selected, sel.selected);
    EXPECT_EQ(sweep.sel.head_pairs, sel.head_pairs);
    // select_neighbors(NC) returns the sweep's selection; the independent
    // check is the reference discovery loop.
    const NeighborSelection want =
        reference::select_neighbors(g, c, NeighborRule::kAllWithin2k1);
    EXPECT_EQ(sweep.sel.selected, want.selected);
    EXPECT_EQ(sweep.sel.head_pairs, want.head_pairs);

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
