// LmstKernel / lmst_gateways checked against an independent oracle: the
// set-based LMSTGA implementation that preceded the flat kernel, kept here
// verbatim (test-only, outside libkhop). gateway/reference forwards to the
// shared lmst_gateways, so only this file can catch a kernel bug.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "khop/cluster/clustering.hpp"
#include "khop/common/assert.hpp"
#include "khop/common/rng.hpp"
#include "khop/gateway/lmst.hpp"
#include "khop/gateway/virtual_link.hpp"
#include "khop/graph/mst.hpp"
#include "khop/nbr/neighbor_rules.hpp"
#include "khop/net/generator.hpp"

namespace khop {
namespace {

// ---------------------------------------------------------------------------
// The oracle: the pre-kernel lmst_gateways, verbatim apart from its name.

/// Set of selected unordered pairs for O(log) membership tests.
using PairSet = std::set<std::pair<NodeId, NodeId>>;

std::pair<NodeId, NodeId> ordered(NodeId a, NodeId b) {
  return {std::min(a, b), std::max(a, b)};
}

LmstResult legacy_lmst_gateways(const Clustering& c,
                                const NeighborSelection& sel,
                                const VirtualLinkMap& links,
                                LmstKeepRule keep) {
  KHOP_REQUIRE(sel.selected.size() == c.heads.size(),
               "selection does not match clustering");
  const PairSet pair_set(sel.head_pairs.begin(), sel.head_pairs.end());

  // Directed keep decisions: (head u, neighbor v) kept by u's local MST.
  std::set<std::pair<NodeId, NodeId>> kept_directed;

  for (std::uint32_t i = 0; i < c.heads.size(); ++i) {
    const NodeId u = c.heads[i];
    const auto& nbrs = sel.selected[i];
    if (nbrs.empty()) continue;

    // Local node set {u} ∪ S(u), ascending by head id. Local index order is
    // therefore id order, so comparing local indices == comparing ids, which
    // keeps edge_less's tie-breaking faithful to the paper's id rule.
    std::vector<NodeId> local_nodes;
    local_nodes.reserve(nbrs.size() + 1);
    local_nodes.push_back(u);
    local_nodes.insert(local_nodes.end(), nbrs.begin(), nbrs.end());
    std::sort(local_nodes.begin(), local_nodes.end());

    std::map<NodeId, NodeId> local_of;  // head id -> local index
    for (NodeId li = 0; li < local_nodes.size(); ++li) {
      local_of[local_nodes[li]] = li;
    }

    // Local virtual-edge adjacency: every selected pair with both endpoints
    // in the local set (u knows these from its neighbors' broadcasts).
    std::vector<std::vector<WeightedEdge>> adj(local_nodes.size());
    for (std::size_t a = 0; a < local_nodes.size(); ++a) {
      for (std::size_t b = a + 1; b < local_nodes.size(); ++b) {
        const auto p = ordered(local_nodes[a], local_nodes[b]);
        if (!pair_set.contains(p)) continue;
        const Hops w = links.link(p.first, p.second).hops;
        adj[a].push_back({static_cast<NodeId>(a), static_cast<NodeId>(b), w});
        adj[b].push_back({static_cast<NodeId>(b), static_cast<NodeId>(a), w});
      }
    }

    // The local graph is connected: u has a selected pair with every member
    // of S(u) by construction.
    const std::vector<NodeId> parent =
        prim_mst(local_nodes.size(), adj, local_of.at(u));

    // u keeps exactly the on-tree links incident to itself.
    const NodeId u_local = local_of.at(u);
    for (NodeId li = 0; li < local_nodes.size(); ++li) {
      if (parent[li] == u_local) {
        kept_directed.emplace(u, local_nodes[li]);
      } else if (li == u_local && parent[li] != kInvalidNode) {
        kept_directed.emplace(u, local_nodes[parent[li]]);
      }
    }
  }

  // Realize links per the keep rule (union by default, intersection as the
  // stricter LMST G0 ∩ G1 variant).
  LmstResult r;
  std::set<std::pair<NodeId, NodeId>> undirected;
  for (const auto& [from, to] : kept_directed) {
    undirected.insert(ordered(from, to));
  }
  for (const auto& p : undirected) {
    const bool fwd = kept_directed.contains({p.first, p.second});
    const bool rev = kept_directed.contains({p.second, p.first});
    if (fwd != rev) ++r.asymmetric_links;
    if (keep == LmstKeepRule::kBothEndpoints && !(fwd && rev)) continue;
    r.kept_links.push_back(p);
  }

  for (const auto& [u, v] : r.kept_links) {
    const VirtualLink& link = links.link(u, v);
    for (std::size_t i = 1; i + 1 < link.path.size(); ++i) {
      const NodeId w = link.path[i];
      if (!c.is_head(w)) r.gateways.push_back(w);
    }
  }
  std::sort(r.gateways.begin(), r.gateways.end());
  r.gateways.erase(std::unique(r.gateways.begin(), r.gateways.end()),
                   r.gateways.end());
  return r;
}

// ---------------------------------------------------------------------------

void expect_same(const LmstResult& got, const LmstResult& want,
                 const std::string& what) {
  EXPECT_EQ(got.kept_links, want.kept_links) << what;
  EXPECT_EQ(got.gateways, want.gateways) << what;
  EXPECT_EQ(got.asymmetric_links, want.asymmetric_links) << what;
}

constexpr LmstKeepRule kKeepRules[] = {LmstKeepRule::kEitherEndpoint,
                                       LmstKeepRule::kBothEndpoints};

Graph make_network(std::uint64_t seed, std::size_t n, double degree) {
  GeneratorConfig cfg;
  cfg.num_nodes = n;
  cfg.target_degree = degree;
  Rng rng(seed);
  return generate_network(cfg, rng).graph;
}

TEST(LmstOracle, GeneratedNetworksAllRulesAndK) {
  std::size_t asymmetric = 0;
  for (std::uint64_t seed : {9101u, 9102u, 9103u}) {
    const Graph g = make_network(seed, 160, seed % 2 == 0 ? 6.0 : 10.0);
    for (Hops k = 1; k <= 4; ++k) {
      const Clustering c = khop_clustering(g, k);
      std::vector<NeighborRule> rules = {NeighborRule::kAdjacent,
                                         NeighborRule::kAllWithin2k1};
      if (k == 1) rules.push_back(NeighborRule::kWuLou25);
      for (NeighborRule rule : rules) {
        const NeighborSelection sel = select_neighbors(g, c, rule);
        const VirtualLinkMap links = VirtualLinkMap::build(g, sel.head_pairs);
        for (LmstKeepRule keep : kKeepRules) {
          const LmstResult want = legacy_lmst_gateways(c, sel, links, keep);
          asymmetric += want.asymmetric_links;
          expect_same(lmst_gateways(c, sel, links, keep), want,
                      "seed " + std::to_string(seed) + " k " +
                          std::to_string(k) + " rule " +
                          std::to_string(static_cast<int>(rule)) + " keep " +
                          std::to_string(static_cast<int>(keep)));
        }
      }
    }
  }
  // The keep rules must actually differ somewhere, or the sweep above would
  // not distinguish them.
  EXPECT_GT(asymmetric, 0u);
}

TEST(LmstOracle, NonCanonicalHeadPairsAndSelections) {
  const Graph g = make_network(9201, 140, 8.0);
  for (Hops k = 1; k <= 3; ++k) {
    const Clustering c = khop_clustering(g, k);
    NeighborSelection sel = select_neighbors(g, c, NeighborRule::kAllWithin2k1);
    const VirtualLinkMap links = VirtualLinkMap::build(g, sel.head_pairs);
    ASSERT_GT(sel.head_pairs.size(), 3u);

    // Reversed and duplicated head_pairs; reversed per-head selections.
    Rng rng(k);
    std::reverse(sel.head_pairs.begin(), sel.head_pairs.end());
    for (std::size_t i = 0; i < sel.head_pairs.size(); i += 3) {
      sel.head_pairs.push_back(sel.head_pairs[rng.uniform_int(
          sel.head_pairs.size())]);
    }
    for (auto& list : sel.selected) std::reverse(list.begin(), list.end());

    for (LmstKeepRule keep : kKeepRules) {
      expect_same(lmst_gateways(c, sel, links, keep),
                  legacy_lmst_gateways(c, sel, links, keep),
                  "k " + std::to_string(k));
    }
  }
}

TEST(LmstOracle, HandBuiltTiedSelectionWithDuplicatePairs) {
  // Five heads on a 2-hop ring plus chords: every local graph has equal
  // weights, so the id tie-break decides. Pair (1, 3) is listed twice, the
  // pairs and lists are out of order, and head 4 selects nobody.
  const Graph g = Graph::from_edges(
      10, std::vector<std::pair<NodeId, NodeId>>{
              {0, 5}, {5, 1}, {1, 6}, {6, 2}, {2, 7}, {7, 3}, {3, 8}, {8, 0},
              {1, 9}, {9, 3}, {4, 0}});
  Clustering c;
  c.k = 1;
  c.heads = {0, 1, 2, 3, 4};
  c.head_of = {0, 1, 2, 3, 4, 0, 1, 2, 3, 1};
  c.dist_to_head = {0, 0, 0, 0, 0, 1, 1, 1, 1, 1};
  NeighborSelection sel;
  sel.selected = {{1, 3}, {3, 2, 0}, {1, 3}, {0, 2, 1}, {}};
  sel.head_pairs = {{1, 3}, {0, 1}, {2, 3}, {1, 3}, {0, 3}, {1, 2}};
  const VirtualLinkMap links = VirtualLinkMap::build(g, sel.head_pairs);
  for (LmstKeepRule keep : kKeepRules) {
    const LmstResult want = legacy_lmst_gateways(c, sel, links, keep);
    expect_same(lmst_gateways(c, sel, links, keep), want, "hand-built");
    EXPECT_FALSE(want.kept_links.empty());
  }
}

}  // namespace
}  // namespace khop
