/// \file lmst_oracle.hpp
/// Test-only LMSTGA oracle: the set-based lmst_gateways that preceded the
/// flat LmstKernel, verbatim apart from its name. Shared by the oracle and
/// pool-equivalence suites; it is not part of libkhop.
#pragma once

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "khop/cluster/clustering.hpp"
#include "khop/common/assert.hpp"
#include "khop/gateway/lmst.hpp"
#include "khop/gateway/virtual_link.hpp"
#include "khop/nbr/neighbor_rules.hpp"
#include "oracles/mst_reference.hpp"

namespace khop::oracle {

/// Set of selected unordered pairs for O(log) membership tests.
using PairSet = std::set<std::pair<NodeId, NodeId>>;

inline std::pair<NodeId, NodeId> ordered(NodeId a, NodeId b) {
  return {std::min(a, b), std::max(a, b)};
}

inline LmstResult legacy_lmst_gateways(const Clustering& c,
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
    const auto path = links.path(links.link(u, v));
    for (std::size_t i = 1; i + 1 < path.size(); ++i) {
      const NodeId w = path[i];
      if (!c.is_head(w)) r.gateways.push_back(w);
    }
  }
  std::sort(r.gateways.begin(), r.gateways.end());
  r.gateways.erase(std::unique(r.gateways.begin(), r.gateways.end()),
                   r.gateways.end());
  return r;
}

}  // namespace khop::oracle
