// Verbatim pre-PR4 neighbor-rule implementations (see nbr_reference.hpp).
// Kept byte-for-byte close to the originals on purpose — do not "clean up".
#include "oracles/nbr_reference.hpp"

#include <algorithm>
#include <set>

#include "khop/common/assert.hpp"
#include "khop/runtime/workspace.hpp"

namespace khop::reference {

std::vector<std::pair<std::uint32_t, std::uint32_t>> adjacent_cluster_pairs(
    const Graph& g, const Clustering& c) {
  std::set<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (u >= v) continue;
      const std::uint32_t cu = c.cluster_of[u];
      const std::uint32_t cv = c.cluster_of[v];
      if (cu != cv) pairs.emplace(std::min(cu, cv), std::max(cu, cv));
    }
  }
  return {pairs.begin(), pairs.end()};
}

namespace {

NeighborSelection finish(NeighborSelection sel) {
  for (auto& list : sel.selected) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  std::sort(sel.head_pairs.begin(), sel.head_pairs.end());
  sel.head_pairs.erase(
      std::unique(sel.head_pairs.begin(), sel.head_pairs.end()),
      sel.head_pairs.end());
  return sel;
}

NeighborSelection select_nc(const Graph& g, const Clustering& c,
                            Workspace& ws) {
  NeighborSelection sel;
  sel.rule = NeighborRule::kAllWithin2k1;
  sel.selected.resize(c.heads.size());
  const Hops horizon = 2 * c.k + 1;
  for (std::uint32_t i = 0; i < c.heads.size(); ++i) {
    ws.bfs.run(g, c.heads[i], horizon);
    for (std::uint32_t j = 0; j < c.heads.size(); ++j) {
      if (i == j) continue;
      if (ws.bfs.dist(c.heads[j]) != kUnreachable) {
        sel.selected[i].push_back(c.heads[j]);
        sel.head_pairs.emplace_back(std::min(c.heads[i], c.heads[j]),
                                    std::max(c.heads[i], c.heads[j]));
      }
    }
  }
  return finish(std::move(sel));
}

NeighborSelection select_ancr(const Graph& g, const Clustering& c) {
  NeighborSelection sel;
  sel.rule = NeighborRule::kAdjacent;
  sel.selected.resize(c.heads.size());
  for (const auto& [ci, cj] : reference::adjacent_cluster_pairs(g, c)) {
    const NodeId hi = c.heads[ci];
    const NodeId hj = c.heads[cj];
    sel.selected[ci].push_back(hj);
    sel.selected[cj].push_back(hi);
    sel.head_pairs.emplace_back(std::min(hi, hj), std::max(hi, hj));
  }
  return finish(std::move(sel));
}

NeighborSelection select_wulou(const Graph& g, const Clustering& c,
                               Workspace& ws) {
  KHOP_REQUIRE(c.k == 1, "Wu-Lou 2.5-hop coverage is defined for k = 1");
  NeighborSelection sel;
  sel.rule = NeighborRule::kWuLou25;
  sel.selected.resize(c.heads.size());

  for (std::uint32_t i = 0; i < c.heads.size(); ++i) {
    const NodeId u = c.heads[i];
    ws.bfs.run(g, u, 3);
    for (std::uint32_t j = 0; j < c.heads.size(); ++j) {
      if (i == j) continue;
      const NodeId v = c.heads[j];
      const Hops d = ws.bfs.dist(v);
      if (d == kUnreachable) continue;
      bool covered = false;
      if (d <= 2) {
        covered = true;
      } else {
        // d == 3: covered iff cluster j has a member within 2 hops of u.
        // `covered` is a pure existence check, so scanning the reached set
        // instead of all node ids yields the same answer.
        for (NodeId w : ws.bfs.reached()) {
          if (c.cluster_of[w] == j && ws.bfs.dist(w) <= 2) {
            covered = true;
            break;
          }
        }
      }
      if (covered) {
        sel.selected[i].push_back(v);
        sel.head_pairs.emplace_back(std::min(u, v), std::max(u, v));
      }
    }
  }
  return finish(std::move(sel));
}

}  // namespace

NeighborSelection select_neighbors(const Graph& g, const Clustering& c,
                                   NeighborRule rule) {
  KHOP_REQUIRE(!c.heads.empty(), "clustering has no heads");
  Workspace ws;  // oracle independence: never shares scratch with production
  switch (rule) {
    case NeighborRule::kAllWithin2k1:
      return select_nc(g, c, ws);
    case NeighborRule::kAdjacent:
      return select_ancr(g, c);
    case NeighborRule::kWuLou25:
      return select_wulou(g, c, ws);
  }
  KHOP_ASSERT(false, "unknown neighbor rule");
  return {};
}

}  // namespace khop::reference
