// Unit tests for canonical virtual links (shortest gateway paths), including
// the horizon-bounded and parallel builds introduced in PR 4.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "khop/cluster/clustering.hpp"
#include "khop/common/error.hpp"
#include "khop/gateway/virtual_link.hpp"
#include "khop/graph/bfs.hpp"
#include "khop/nbr/neighbor_rules.hpp"
#include "khop/net/generator.hpp"
#include "khop/runtime/thread_pool.hpp"
#include "khop/runtime/workspace.hpp"
#include "oracles/bfs_reference.hpp"
#include "oracles/gateway_reference.hpp"

namespace khop {
namespace {

using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

/// The fallback count of full horizon-bounded sweeps, from the oracle BFS:
/// one per source with a target farther than \p horizon.
std::size_t full_sweep_fallbacks(
    const Graph& g, const std::vector<std::pair<NodeId, NodeId>>& pairs,
    Hops horizon) {
  std::map<NodeId, std::vector<NodeId>> by_source;
  for (const auto& [a, b] : pairs) {
    by_source[std::min(a, b)].push_back(std::max(a, b));
  }
  std::size_t fallbacks = 0;
  for (const auto& [src, targets] : by_source) {
    const BfsTree t = reference::bfs_bounded(g, src, horizon);
    fallbacks += std::any_of(targets.begin(), targets.end(), [&](NodeId v) {
      return t.dist[v] == kUnreachable;
    });
  }
  return fallbacks;
}

void expect_links_eq(const VirtualLinkMap& got, const VirtualLinkMap& want) {
  ASSERT_EQ(got.all().size(), want.all().size());
  for (std::size_t i = 0; i < got.all().size(); ++i) {
    const VirtualLink& a = got.all()[i];
    const VirtualLink& b = want.all()[i];
    EXPECT_EQ(a.u, b.u) << "link " << i;
    EXPECT_EQ(a.v, b.v) << "link " << i;
    EXPECT_EQ(a.hops, b.hops) << "link " << i;
    EXPECT_EQ(a.path, b.path) << "link " << i;
  }
}

TEST(VirtualLink, PathAndHopsOnChain) {
  const Graph g =
      Graph::from_edges(5, EdgeList{{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const auto links = VirtualLinkMap::build(g, {{0, 4}});
  const VirtualLink& l = links.link(0, 4);
  EXPECT_EQ(l.u, 0u);
  EXPECT_EQ(l.v, 4u);
  EXPECT_EQ(l.hops, 4u);
  EXPECT_EQ(l.path, (std::vector<NodeId>{0, 1, 2, 3, 4}));
}

TEST(VirtualLink, UnorderedLookup) {
  const Graph g = Graph::from_edges(3, EdgeList{{0, 1}, {1, 2}});
  const auto links = VirtualLinkMap::build(g, {{2, 0}});
  EXPECT_TRUE(links.contains(0, 2));
  EXPECT_TRUE(links.contains(2, 0));
  EXPECT_EQ(links.link(2, 0).hops, 2u);
  EXPECT_EQ(links.link(0, 2).path.front(), 0u);  // rooted at smaller id
}

TEST(VirtualLink, CanonicalTieBreakPicksSmallInterior) {
  // Two parallel 2-hop routes 0-1-3 and 0-2-3: the canonical path must use
  // interior node 1.
  const Graph g =
      Graph::from_edges(4, EdgeList{{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  const auto links = VirtualLinkMap::build(g, {{0, 3}});
  EXPECT_EQ(links.link(0, 3).path, (std::vector<NodeId>{0, 1, 3}));
}

TEST(VirtualLink, MissingPairThrows) {
  const Graph g = Graph::from_edges(3, EdgeList{{0, 1}, {1, 2}});
  const auto links = VirtualLinkMap::build(g, {{0, 1}});
  EXPECT_THROW(links.link(0, 2), InvalidArgument);
  EXPECT_FALSE(links.contains(0, 2));
}

TEST(VirtualLink, RejectsSelfPair) {
  const Graph g = Graph::from_edges(2, EdgeList{{0, 1}});
  EXPECT_THROW(VirtualLinkMap::build(g, {{1, 1}}), InvalidArgument);
}

TEST(VirtualLink, DisconnectedEndpointsThrow) {
  const Graph g = Graph::from_edges(4, EdgeList{{0, 1}, {2, 3}});
  EXPECT_THROW(VirtualLinkMap::build(g, {{0, 3}}), NotConnected);
}

TEST(VirtualLink, HopsMatchBfsOnRandomNetworks) {
  Rng rng(601);
  GeneratorConfig cfg;
  cfg.num_nodes = 80;
  const AdHocNetwork net = generate_network(cfg, rng);

  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId u = 0; u < 12; ++u) {
    for (NodeId v = u + 1; v < 12; ++v) pairs.emplace_back(u, v);
  }
  const auto links = VirtualLinkMap::build(net.graph, pairs);
  for (const auto& [u, v] : pairs) {
    const auto tree = bfs(net.graph, u);
    const VirtualLink& l = links.link(u, v);
    EXPECT_EQ(l.hops, tree.dist[v]);
    EXPECT_EQ(l.path.size(), l.hops + 1u);
    EXPECT_EQ(l.path.front(), u);
    EXPECT_EQ(l.path.back(), v);
    for (std::size_t i = 0; i + 1 < l.path.size(); ++i) {
      EXPECT_TRUE(net.graph.has_edge(l.path[i], l.path[i + 1]));
    }
  }
}

TEST(VirtualLink, DuplicatePairsDeduplicated) {
  const Graph g = Graph::from_edges(3, EdgeList{{0, 1}, {1, 2}});
  const auto links = VirtualLinkMap::build(g, {{0, 2}, {2, 0}, {0, 2}});
  EXPECT_EQ(links.all().size(), 1u);
}

TEST(VirtualLink, EmptyPairsBuildEmptyMap) {
  const Graph g = Graph::from_edges(3, EdgeList{{0, 1}, {1, 2}});
  Workspace ws;
  ThreadPool pool(2);
  for (const VirtualLinkMap& links :
       {VirtualLinkMap::build(g, {}), VirtualLinkMap::build_bounded(g, {}, 2),
        VirtualLinkMap::build_bounded(g, {}, 2, ws),
        VirtualLinkMap::build_bounded(g, {}, 2, pool)}) {
    EXPECT_TRUE(links.all().empty());
    EXPECT_FALSE(links.contains(0, 1));
    EXPECT_EQ(links.bounded_fallbacks(), 0u);
  }
}

TEST(VirtualLink, BoundedDuplicatesAndReverseDeduplicated) {
  const Graph g = Graph::from_edges(3, EdgeList{{0, 1}, {1, 2}});
  ThreadPool pool(2);
  const auto serial = VirtualLinkMap::build_bounded(g, {{0, 2}, {2, 0}, {0, 2}}, 2);
  const auto par =
      VirtualLinkMap::build_bounded(g, {{0, 2}, {2, 0}, {0, 2}}, 2, pool);
  EXPECT_EQ(serial.all().size(), 1u);
  EXPECT_EQ(par.all().size(), 1u);
}

TEST(VirtualLink, BoundedExactlyAtHorizonNeedsNoFallback) {
  // Chain 0..5: pair (0,5) sits at exactly 5 hops. With k = 2 the paper's
  // horizon is 2k+1 = 5, so the boundary case must resolve inside the
  // bounded sweep.
  const Graph g = Graph::from_edges(
      6, EdgeList{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  const auto links = VirtualLinkMap::build_bounded(g, {{0, 5}}, 5);
  EXPECT_EQ(links.bounded_fallbacks(), 0u);
  EXPECT_EQ(links.link(0, 5).hops, 5u);
  EXPECT_EQ(links.link(0, 5).path, (std::vector<NodeId>{0, 1, 2, 3, 4, 5}));
}

TEST(VirtualLink, BoundedBeyondHorizonFallsBackUnboundedExactly) {
  // Same chain, horizon 4 < dist 5: the source reruns unbounded and the
  // result must be byte-identical to the unbounded build.
  const Graph g = Graph::from_edges(
      6, EdgeList{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  const auto bounded = VirtualLinkMap::build_bounded(g, {{0, 5}, {0, 3}}, 4);
  EXPECT_EQ(bounded.bounded_fallbacks(), 1u);
  expect_links_eq(bounded, VirtualLinkMap::build(g, {{0, 5}, {0, 3}}));
}

TEST(VirtualLink, BoundedDisconnectedEndpointsStillThrow) {
  const Graph g = Graph::from_edges(4, EdgeList{{0, 1}, {2, 3}});
  ThreadPool pool(2);
  EXPECT_THROW(VirtualLinkMap::build_bounded(g, {{0, 3}}, 2), NotConnected);
  EXPECT_THROW(VirtualLinkMap::build_bounded(g, {{0, 3}}, 2, pool),
               NotConnected);
}

TEST(VirtualLink, BoundedAndParallelMatchUnboundedOnRandomNetworks) {
  Rng rng(602);
  GeneratorConfig cfg;
  cfg.num_nodes = 90;
  const AdHocNetwork net = generate_network(cfg, rng);

  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId u = 0; u < 14; ++u) {
    for (NodeId v = u + 1; v < 14; v += 2) pairs.emplace_back(u, v);
  }
  const auto want = reference::build_virtual_links(net.graph, pairs);
  // Unbounded horizon, a generous bound, and a tight bound (with fallback)
  // must all match the reference oracle; so must every thread count.
  for (const Hops horizon : {kUnreachable, Hops{20}, Hops{2}}) {
    expect_links_eq(VirtualLinkMap::build_bounded(net.graph, pairs, horizon),
                    want);
    for (const std::size_t threads : {1u, 2u, 0u}) {
      ThreadPool pool(threads);
      expect_links_eq(
          VirtualLinkMap::build_bounded(net.graph, pairs, horizon, pool),
          want);
    }
  }

  // The pair sets the backbones extract: NC (every head within 2k+1 hops)
  // and AC (adjacent clusters), at the paper's horizon 2k+1 and at a tight
  // horizon k that forces fallbacks, serial and at 1, 2 and 4 threads. The
  // early-stopping sweeps must give the oracle's links and the fallback
  // count of full horizon-bounded sweeps.
  Workspace ws;
  for (Hops k = 1; k <= 4; ++k) {
    const Clustering c = khop_clustering(net.graph, k);
    for (const NeighborRule rule :
         {NeighborRule::kAllWithin2k1, NeighborRule::kAdjacent}) {
      const auto sel_pairs = select_neighbors(net.graph, c, rule).head_pairs;
      const auto oracle = reference::build_virtual_links(net.graph, sel_pairs);
      for (const Hops horizon : {2 * k + 1, k}) {
        const std::size_t fallbacks =
            full_sweep_fallbacks(net.graph, sel_pairs, horizon);
        if (horizon == 2 * k + 1) EXPECT_EQ(fallbacks, 0u);
        std::vector<VirtualLinkMap> builds;
        builds.push_back(
            VirtualLinkMap::build_bounded(net.graph, sel_pairs, horizon, ws));
        for (const std::size_t threads : {1u, 2u, 4u}) {
          ThreadPool pool(threads);
          builds.push_back(VirtualLinkMap::build_bounded(net.graph, sel_pairs,
                                                         horizon, pool));
        }
        for (const VirtualLinkMap& got : builds) {
          expect_links_eq(got, oracle);
          EXPECT_EQ(got.bounded_fallbacks(), fallbacks)
              << "k=" << k << " horizon=" << horizon;
        }
      }
    }
  }
}

TEST(VirtualLink, EarlyStopMidLevelKeepsMinIdPath) {
  // Source 0, level 1 = {1, 2}. Expanding node 1 stamps both targets 5 and
  // 6, so the sweep stops in the middle of level 2, before node 2 is
  // expanded, although 2 offers an equally short path 0-2-6 through a
  // larger id. The canonical path is 0-1-6.
  const Graph g = Graph::from_edges(
      8, EdgeList{{0, 1}, {0, 2}, {1, 5}, {1, 6}, {2, 6}, {2, 7}, {3, 4}});
  const std::vector<std::pair<NodeId, NodeId>> pairs = {{0, 5}, {6, 0}};
  const auto links = VirtualLinkMap::build_bounded(g, pairs, 5);
  EXPECT_EQ(links.bounded_fallbacks(), 0u);
  EXPECT_EQ(links.link(0, 6).path, (std::vector<NodeId>{0, 1, 6}));
  EXPECT_EQ(links.link(0, 5).path, (std::vector<NodeId>{0, 1, 5}));
  expect_links_eq(links, reference::build_virtual_links(g, pairs));

  BfsScratch bfs;
  bfs.run_to_targets(g, 0, 5, std::vector<NodeId>{6, 5});
  EXPECT_EQ(bfs.parent(6), 1u);
  EXPECT_EQ(bfs.dist(6), 2u);
  EXPECT_EQ(bfs.dist(7), kUnreachable);  // node 2 was never expanded
  EXPECT_EQ(bfs.reached().size(), 5u);   // 0, 1, 2, 5, 6
}

TEST(VirtualLink, EarlyStopMidLevelBottomUpKeepsMinIdPath) {
  // Level 1 holds 20 of 130 nodes, so level 2 expands bottom-up (a frontier
  // of at least n / 8). Each level-2 node v is adjacent to two level-1
  // nodes; the scan visits v in ascending order and stops at the last
  // target, leaving the larger level-2 ids unstamped. Every target keeps
  // the min-id parent of the full sweep.
  constexpr NodeId kN = 130;
  EdgeList edges;
  for (NodeId f = 1; f <= 20; ++f) edges.emplace_back(0, f);
  for (NodeId v = 21; v < kN; ++v) {
    const NodeId f1 = 1 + v % 20;
    const NodeId f2 = 1 + (v * 7 + 3) % 20;
    edges.emplace_back(std::min(f1, f2), v);
    if (f1 != f2) edges.emplace_back(std::max(f1, f2), v);
  }
  const Graph g = Graph::from_edges(kN, edges);
  const std::vector<NodeId> targets = {77, 40, 58};

  BfsScratch full;
  full.run(g, 0, 5);
  BfsScratch early;
  early.run_to_targets(g, 0, 5, targets);
  for (const NodeId t : targets) {
    EXPECT_EQ(early.dist(t), 2u);
    EXPECT_EQ(early.parent(t), full.parent(t)) << t;
    EXPECT_EQ(early.extract_path(t), full.extract_path(t)) << t;
  }
  // The scan stopped at 77: larger level-2 nodes were never stamped.
  EXPECT_EQ(early.dist(78), kUnreachable);
  EXPECT_EQ(early.reached().size(), 21u + (77 - 21 + 1));
  EXPECT_EQ(full.reached().size(), std::size_t{kN});

  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const NodeId t : targets) pairs.emplace_back(0, t);
  expect_links_eq(VirtualLinkMap::build_bounded(g, pairs, 5),
                  reference::build_virtual_links(g, pairs));
}

TEST(VirtualLink, EarlyStopTargetBeyondHorizonFallsBackExactly) {
  // Chain 0..6 with a spur 1-7: targets 7 (2 hops) and 6 (6 hops). At
  // horizon 5 the sweep cannot stamp 6, so the source reruns unbounded and
  // stops once 6 is stamped.
  const Graph g = Graph::from_edges(
      8, EdgeList{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {1, 7}});
  const std::vector<std::pair<NodeId, NodeId>> pairs = {{0, 7}, {0, 6}};
  const auto links = VirtualLinkMap::build_bounded(g, pairs, 5);
  EXPECT_EQ(links.bounded_fallbacks(), 1u);
  expect_links_eq(links, reference::build_virtual_links(g, pairs));

  BfsScratch bfs;
  bfs.run_to_targets(g, 0, 5, std::vector<NodeId>{7, 6});
  EXPECT_EQ(bfs.dist(7), 2u);
  EXPECT_EQ(bfs.dist(6), kUnreachable);
  EXPECT_THROW(bfs.run_to_targets(g, 0, 5, std::vector<NodeId>{8}),
               InvalidArgument);
}

TEST(VirtualLink, FromLinksRejectsBadInput) {
  VirtualLink swapped;
  swapped.u = 3;
  swapped.v = 1;
  swapped.hops = 1;
  std::vector<VirtualLink> bad;
  bad.push_back(swapped);
  EXPECT_THROW(VirtualLinkMap::from_links(std::move(bad)), InvalidArgument);

  VirtualLink l;
  l.u = 1;
  l.v = 3;
  l.hops = 1;
  std::vector<VirtualLink> dup;
  dup.push_back(l);
  dup.push_back(l);
  EXPECT_THROW(VirtualLinkMap::from_links(std::move(dup)), InvalidArgument);
}

}  // namespace
}  // namespace khop
