#include "khop/gateway/lmst.hpp"

#include <algorithm>
#include <functional>
#include <tuple>

#include "khop/common/assert.hpp"
#include "khop/common/error.hpp"

namespace khop {

namespace {

constexpr std::uint32_t kNoEdge = static_cast<std::uint32_t>(-1);

std::pair<NodeId, NodeId> ordered(NodeId a, NodeId b) {
  return {std::min(a, b), std::max(a, b)};
}

}  // namespace

void LmstKernel::prim_children(std::size_t root, std::vector<NodeId>& out) {
  const std::size_t m = local_.size();
  // Edge (from, to) under edge_less's (weight, min, max) order; local index
  // order is id order, so this is the paper's id tie-break.
  const auto key = [&](std::size_t from, std::size_t to) {
    return std::tuple(weight_[from * m + to], std::min(from, to),
                      std::max(from, to));
  };
  const auto relax = [&](std::size_t from) {
    for (std::size_t v = 0; v < m; ++v) {
      if (in_tree_[v] || weight_[from * m + v] == kUnreachable) continue;
      if (best_[v] == kNoEdge || key(from, v) < key(best_[v], v)) {
        best_[v] = static_cast<std::uint32_t>(from);
      }
    }
  };

  in_tree_.assign(m, 0);
  best_.assign(m, kNoEdge);
  in_tree_[root] = 1;
  relax(root);
  for (std::size_t added = 1; added < m; ++added) {
    std::size_t pick = m;
    for (std::size_t v = 0; v < m; ++v) {
      if (in_tree_[v] || best_[v] == kNoEdge) continue;
      if (pick == m || key(best_[v], v) < key(best_[pick], pick)) pick = v;
    }
    if (pick == m) {
      throw NotConnected("lmst: local virtual graph is not connected");
    }
    in_tree_[pick] = 1;
    relax(pick);
  }

  // best_ now holds each non-root node's tree parent.
  out.clear();
  for (std::size_t v = 0; v < m; ++v) {
    if (v != root && best_[v] == root) out.push_back(local_[v]);
  }
}

LmstResult lmst_gateways(const Clustering& c, const NeighborSelection& sel,
                         const VirtualLinkMap& links, LmstKeepRule keep) {
  KHOP_REQUIRE(sel.selected.size() == c.heads.size(),
               "selection does not match clustering");
  // Pair membership is a binary search over canonical (sorted, unique)
  // head_pairs; a non-canonical input is canonicalized once.
  std::vector<std::pair<NodeId, NodeId>> canonical;
  const std::vector<std::pair<NodeId, NodeId>>* pairs = &sel.head_pairs;
  if (std::adjacent_find(pairs->begin(), pairs->end(),
                         std::greater_equal<>()) != pairs->end()) {
    canonical = sel.head_pairs;
    std::sort(canonical.begin(), canonical.end());
    canonical.erase(std::unique(canonical.begin(), canonical.end()),
                    canonical.end());
    pairs = &canonical;
  }
  const auto pair_hops = [&](NodeId a, NodeId b) {
    return std::binary_search(pairs->begin(), pairs->end(), std::pair(a, b))
               ? links.link(a, b).hops
               : kUnreachable;
  };

  // Directed keep decisions: (head u, neighbor v) kept by u's local MST.
  LmstKernel kernel;
  std::vector<NodeId> sorted_sel;
  std::vector<NodeId> kept;
  std::vector<std::pair<NodeId, NodeId>> kept_directed;
  for (std::uint32_t i = 0; i < c.heads.size(); ++i) {
    const NodeId u = c.heads[i];
    std::span<const NodeId> nbrs = sel.selected[i];
    if (nbrs.empty()) continue;
    if (!std::is_sorted(nbrs.begin(), nbrs.end())) {
      sorted_sel.assign(nbrs.begin(), nbrs.end());
      std::sort(sorted_sel.begin(), sorted_sel.end());
      nbrs = sorted_sel;
    }
    kernel.keep_list(u, nbrs, pair_hops, kept);
    for (NodeId v : kept) kept_directed.emplace_back(u, v);
  }
  std::sort(kept_directed.begin(), kept_directed.end());
  kept_directed.erase(std::unique(kept_directed.begin(), kept_directed.end()),
                      kept_directed.end());

  // Realize links per the keep rule (union by default, intersection as the
  // stricter LMST G0 ∩ G1 variant).
  LmstResult r;
  std::vector<std::pair<NodeId, NodeId>> undirected;
  undirected.reserve(kept_directed.size());
  for (const auto& [from, to] : kept_directed) {
    undirected.push_back(ordered(from, to));
  }
  std::sort(undirected.begin(), undirected.end());
  undirected.erase(std::unique(undirected.begin(), undirected.end()),
                   undirected.end());
  const auto kept_by = [&](NodeId from, NodeId to) {
    return std::binary_search(kept_directed.begin(), kept_directed.end(),
                              std::pair(from, to));
  };
  for (const auto& p : undirected) {
    const bool fwd = kept_by(p.first, p.second);
    const bool rev = kept_by(p.second, p.first);
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

}  // namespace khop
