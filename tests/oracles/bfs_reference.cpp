#include "oracles/bfs_reference.hpp"

#include <algorithm>

#include "khop/common/assert.hpp"

namespace khop::reference {

namespace {

/// Shared BFS core (pre-workspace implementation, kept verbatim). Visiting
/// nodes in ascending-id order per level and scanning sorted adjacency lists
/// guarantees min-id canonical parents without any extra comparisons.
BfsTree bfs_impl(const Graph& g, NodeId source, Hops max_hops) {
  KHOP_REQUIRE(source < g.num_nodes(), "BFS source out of range");
  BfsTree t;
  t.source = source;
  t.dist.assign(g.num_nodes(), kUnreachable);
  t.parent.assign(g.num_nodes(), kInvalidNode);
  t.dist[source] = 0;

  std::vector<NodeId> frontier{source};
  Hops level = 0;
  while (!frontier.empty() && level < max_hops) {
    std::vector<NodeId> next;
    for (NodeId u : frontier) {
      for (NodeId v : g.neighbors(u)) {
        if (t.dist[v] == kUnreachable) {
          t.dist[v] = level + 1;
          t.parent[v] = u;
          next.push_back(v);
        }
      }
    }
    std::sort(next.begin(), next.end());
    frontier = std::move(next);
    ++level;
  }
  return t;
}

}  // namespace

BfsTree bfs(const Graph& g, NodeId source) {
  return bfs_impl(g, source, kUnreachable);
}

BfsTree bfs_bounded(const Graph& g, NodeId source, Hops max_hops) {
  return bfs_impl(g, source, max_hops);
}

std::vector<NodeId> k_hop_neighborhood(const Graph& g, NodeId source, Hops k) {
  const BfsTree t = reference::bfs_bounded(g, source, k);
  std::vector<NodeId> out;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v != source && t.dist[v] != kUnreachable) out.push_back(v);
  }
  return out;
}

MultiSourceBfs multi_source_bfs(const Graph& g,
                                const std::vector<NodeId>& seeds) {
  MultiSourceBfs r;
  r.dist.assign(g.num_nodes(), kUnreachable);
  r.owner.assign(g.num_nodes(), kInvalidNode);

  std::vector<NodeId> frontier;
  for (NodeId s : seeds) {
    KHOP_REQUIRE(s < g.num_nodes(), "seed out of range");
    r.dist[s] = 0;
    r.owner[s] = s;
    frontier.push_back(s);
  }
  std::sort(frontier.begin(), frontier.end());

  Hops level = 0;
  while (!frontier.empty()) {
    std::vector<NodeId> next;
    for (NodeId u : frontier) {
      for (NodeId v : g.neighbors(u)) {
        if (r.dist[v] == kUnreachable) {
          r.dist[v] = level + 1;
          r.owner[v] = r.owner[u];
          next.push_back(v);
        } else if (r.dist[v] == level + 1 && r.owner[u] < r.owner[v]) {
          r.owner[v] = r.owner[u];
        }
      }
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    frontier = std::move(next);
    ++level;
  }
  return r;
}

}  // namespace khop::reference

namespace khop {

std::vector<std::vector<Hops>> all_pairs_hops(const Graph& g) {
  std::vector<std::vector<Hops>> d;
  d.reserve(g.num_nodes());
  BfsScratch ws;
  BfsTree t;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    bfs_into(g, u, ws, t);
    d.push_back(t.dist);
  }
  return d;
}

}  // namespace khop
