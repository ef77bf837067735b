// Unit tests for canonical virtual links (shortest gateway paths), including
// the horizon-bounded and parallel builds introduced in PR 4.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <tuple>
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

std::vector<NodeId> path_of(const VirtualLinkMap& m, const VirtualLink& l) {
  const auto p = m.path(l);
  return {p.begin(), p.end()};
}

void expect_links_eq(const VirtualLinkMap& got, const VirtualLinkMap& want) {
  ASSERT_EQ(got.all().size(), want.all().size());
  for (std::size_t i = 0; i < got.all().size(); ++i) {
    const VirtualLink& a = got.all()[i];
    const VirtualLink& b = want.all()[i];
    EXPECT_EQ(a.u, b.u) << "link " << i;
    EXPECT_EQ(a.v, b.v) << "link " << i;
    EXPECT_EQ(a.hops, b.hops) << "link " << i;
    EXPECT_EQ(path_of(got, a), path_of(want, b)) << "link " << i;
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
  EXPECT_EQ(l.length, 5u);
  EXPECT_EQ(path_of(links, l), (std::vector<NodeId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(path_of(links, l).size(), links.arena_size());
}

TEST(VirtualLink, UnorderedLookup) {
  const Graph g = Graph::from_edges(3, EdgeList{{0, 1}, {1, 2}});
  const auto links = VirtualLinkMap::build(g, {{2, 0}});
  EXPECT_TRUE(links.contains(0, 2));
  EXPECT_TRUE(links.contains(2, 0));
  EXPECT_EQ(links.link(2, 0).hops, 2u);
  EXPECT_EQ(links.path(links.link(0, 2)).front(), 0u);  // rooted at smaller id
}

TEST(VirtualLink, CanonicalTieBreakPicksSmallInterior) {
  // Two parallel 2-hop routes 0-1-3 and 0-2-3: the canonical path must use
  // interior node 1.
  const Graph g =
      Graph::from_edges(4, EdgeList{{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  const auto links = VirtualLinkMap::build(g, {{0, 3}});
  EXPECT_EQ(path_of(links, links.link(0, 3)), (std::vector<NodeId>{0, 1, 3}));
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
    const auto path = links.path(l);
    EXPECT_EQ(l.hops, tree.dist[v]);
    EXPECT_EQ(path.size(), l.hops + 1u);
    EXPECT_EQ(path.front(), u);
    EXPECT_EQ(path.back(), v);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      EXPECT_TRUE(net.graph.has_edge(path[i], path[i + 1]));
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
       {VirtualLinkMap::build(g, {}), VirtualLinkMap::build(g, {}, 2),
        VirtualLinkMap::build(g, {}, 2, ws),
        VirtualLinkMap::build(g, {}, 2, pool)}) {
    EXPECT_TRUE(links.all().empty());
    EXPECT_FALSE(links.contains(0, 1));
    EXPECT_EQ(links.bounded_fallbacks(), 0u);
  }
}

TEST(VirtualLink, BoundedDuplicatesAndReverseDeduplicated) {
  const Graph g = Graph::from_edges(3, EdgeList{{0, 1}, {1, 2}});
  ThreadPool pool(2);
  const auto serial = VirtualLinkMap::build(g, {{0, 2}, {2, 0}, {0, 2}}, 2);
  const auto par =
      VirtualLinkMap::build(g, {{0, 2}, {2, 0}, {0, 2}}, 2, pool);
  EXPECT_EQ(serial.all().size(), 1u);
  EXPECT_EQ(par.all().size(), 1u);
}

TEST(VirtualLink, BoundedExactlyAtHorizonNeedsNoFallback) {
  // Chain 0..5: pair (0,5) sits at exactly 5 hops. With k = 2 the paper's
  // horizon is 2k+1 = 5, so the boundary case must resolve inside the
  // bounded sweep.
  const Graph g = Graph::from_edges(
      6, EdgeList{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  const auto links = VirtualLinkMap::build(g, {{0, 5}}, 5);
  EXPECT_EQ(links.bounded_fallbacks(), 0u);
  EXPECT_EQ(links.link(0, 5).hops, 5u);
  EXPECT_EQ(path_of(links, links.link(0, 5)), (std::vector<NodeId>{0, 1, 2, 3, 4, 5}));
}

TEST(VirtualLink, BoundedBeyondHorizonFallsBackUnboundedExactly) {
  // Same chain, horizon 4 < dist 5: the source reruns unbounded and the
  // result must be byte-identical to the unbounded build.
  const Graph g = Graph::from_edges(
      6, EdgeList{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  const auto bounded = VirtualLinkMap::build(g, {{0, 5}, {0, 3}}, 4);
  EXPECT_EQ(bounded.bounded_fallbacks(), 1u);
  expect_links_eq(bounded, VirtualLinkMap::build(g, {{0, 5}, {0, 3}}));
}

TEST(VirtualLink, BoundedDisconnectedEndpointsStillThrow) {
  const Graph g = Graph::from_edges(4, EdgeList{{0, 1}, {2, 3}});
  ThreadPool pool(2);
  EXPECT_THROW(VirtualLinkMap::build(g, {{0, 3}}, 2), NotConnected);
  EXPECT_THROW(VirtualLinkMap::build(g, {{0, 3}}, 2, pool),
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
    expect_links_eq(VirtualLinkMap::build(net.graph, pairs, horizon),
                    want);
    for (const std::size_t threads : {1u, 2u, 0u}) {
      ThreadPool pool(threads);
      expect_links_eq(
          VirtualLinkMap::build(net.graph, pairs, horizon, pool),
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
            VirtualLinkMap::build(net.graph, sel_pairs, horizon, ws));
        for (const std::size_t threads : {1u, 2u, 4u}) {
          ThreadPool pool(threads);
          builds.push_back(VirtualLinkMap::build(net.graph, sel_pairs,
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
  const auto links = VirtualLinkMap::build(g, pairs, 5);
  EXPECT_EQ(links.bounded_fallbacks(), 0u);
  EXPECT_EQ(path_of(links, links.link(0, 6)), (std::vector<NodeId>{0, 1, 6}));
  EXPECT_EQ(path_of(links, links.link(0, 5)), (std::vector<NodeId>{0, 1, 5}));
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
  expect_links_eq(VirtualLinkMap::build(g, pairs, 5),
                  reference::build_virtual_links(g, pairs));
}

TEST(VirtualLink, EarlyStopTargetBeyondHorizonFallsBackExactly) {
  // Chain 0..6 with a spur 1-7: targets 7 (2 hops) and 6 (6 hops). At
  // horizon 5 the sweep cannot stamp 6, so the source reruns unbounded and
  // stops once 6 is stamped.
  const Graph g = Graph::from_edges(
      8, EdgeList{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {1, 7}});
  const std::vector<std::pair<NodeId, NodeId>> pairs = {{0, 7}, {0, 6}};
  const auto links = VirtualLinkMap::build(g, pairs, 5);
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
  const auto one_block = [](std::vector<VirtualLink> links,
                            std::vector<NodeId> arena) {
    std::vector<VirtualLinkBlock> blocks(1);
    blocks[0].links = std::move(links);
    blocks[0].arena = std::move(arena);
    return blocks;
  };
  const VirtualLink swapped{3, 1, 1, 2, 0};
  EXPECT_THROW(VirtualLinkMap::from_links(one_block({swapped}, {3, 1})),
               InvalidArgument);

  const VirtualLink l{1, 3, 1, 2, 0};
  EXPECT_THROW(VirtualLinkMap::from_links(one_block({l, l}, {1, 3})),
               InvalidArgument);
  // The same key in two blocks is a duplicate too.
  std::vector<VirtualLinkBlock> two = one_block({l}, {1, 3});
  two.push_back(two[0]);
  EXPECT_THROW(VirtualLinkMap::from_links(std::move(two)), InvalidArgument);

  // A path must lie inside its block's arena.
  EXPECT_THROW(VirtualLinkMap::from_links(one_block({l}, {1})),
               InvalidArgument);
  const VirtualLink far{1, 3, 1, 2, 5};
  EXPECT_THROW(VirtualLinkMap::from_links(one_block({far}, {1, 3})),
               InvalidArgument);
}

/// The map's state against a std::map model plus the all() order that
/// swap-pop erasure implies. Also checks the arena bound (dead entries never
/// outnumber live ones after a mutation).
struct ArenaModel {
  using Key = std::pair<NodeId, NodeId>;
  std::map<Key, std::pair<Hops, std::vector<NodeId>>> links;
  std::vector<Key> order;

  void insert(const Key& k, Hops hops, std::vector<NodeId> path) {
    if (!links.contains(k)) order.push_back(k);
    links[k] = {hops, std::move(path)};
  }
  bool erase(const Key& k) {
    if (links.erase(k) == 0) return false;
    const auto it = std::find(order.begin(), order.end(), k);
    *it = order.back();
    order.pop_back();
    return true;
  }
  void expect_matches(const VirtualLinkMap& m, NodeId max_id,
                      const std::string& label) const {
    ASSERT_EQ(m.all().size(), order.size()) << label;
    std::size_t live = 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
      const VirtualLink& l = m.all()[i];
      ASSERT_EQ(Key(l.u, l.v), order[i]) << label << " position " << i;
      const auto& [hops, path] = links.at(order[i]);
      EXPECT_EQ(l.hops, hops) << label;
      EXPECT_EQ(path_of(m, l), path) << label;
      live += path.size();
    }
    EXPECT_LE(m.arena_size(), 2 * live) << label;
    for (NodeId a = 0; a <= max_id; ++a) {
      for (NodeId b = 0; b <= max_id; ++b) {
        const VirtualLink* l = m.find(a, b);
        const auto it = links.find({std::min(a, b), std::max(a, b)});
        ASSERT_EQ(l != nullptr, a != b && it != links.end()) << label;
        if (l != nullptr) {
          EXPECT_EQ(path_of(m, *l), it->second.second);
        }
      }
    }
  }
};

TEST(VirtualLinkArena, MutationsMatchMapModel) {
  constexpr NodeId kMaxId = 24;
  std::mt19937_64 rng(2301);
  const auto uniform = [&](std::uint64_t lo, std::uint64_t hi) {
    return static_cast<NodeId>(lo + rng() % (hi - lo + 1));
  };
  // Start from a bulk map of two blocks, the second out of key order, so
  // the sorted index of the decoded-snapshot path is exercised too.
  std::vector<VirtualLinkBlock> blocks(2);
  ArenaModel model;
  for (const auto& [b, u, v] : {std::tuple<int, NodeId, NodeId>{0, 1, 4},
                                {0, 2, 9},
                                {1, 7, 8},
                                {1, 0, 3}}) {
    std::vector<NodeId> path{u, kMaxId, v};
    blocks[b].links.push_back({u, v, 2, 3, blocks[b].arena.size()});
    blocks[b].arena.insert(blocks[b].arena.end(), path.begin(), path.end());
    model.insert({u, v}, 2, path);
  }
  VirtualLinkMap m = VirtualLinkMap::from_links(std::move(blocks));
  model.expect_matches(m, kMaxId, "bulk");

  std::size_t compactions = 0;
  for (int step = 0; step < 3000; ++step) {
    const NodeId a = uniform(0, kMaxId);
    const NodeId b = uniform(0, kMaxId);
    if (a == b) continue;
    const ArenaModel::Key k(std::min(a, b), std::max(a, b));
    const std::size_t arena_before = m.arena_size();
    if (rng() % 3 == 0) {
      EXPECT_EQ(m.erase(a, b), model.erase(k)) << "step " << step;
    } else {
      // Paths of 2..9 nodes, so overwrites both shrink in place and grow by
      // appending.
      std::vector<NodeId> path{k.first};
      const NodeId len = uniform(2, 9);
      for (NodeId i = 2; i < len; ++i) path.push_back(uniform(0, kMaxId));
      path.push_back(k.second);
      m.insert(k.first, k.second, len - 1, path);
      model.insert(k, len - 1, path);
    }
    compactions += m.arena_size() < arena_before;
    model.expect_matches(m, kMaxId, "step " + std::to_string(step));
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GE(compactions, 3u);
  EXPECT_THROW(m.insert(5, 5, 0, std::vector<NodeId>{5}), InvalidArgument);
  EXPECT_THROW(m.insert(6, 5, 1, std::vector<NodeId>{6, 5}), InvalidArgument);
}

}  // namespace
}  // namespace khop
