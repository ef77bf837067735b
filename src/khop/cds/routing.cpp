#include "khop/cds/routing.hpp"

#include <algorithm>
#include <limits>

#include "khop/common/assert.hpp"
#include "khop/common/error.hpp"

namespace khop {

BackboneRouter::BackboneRouter(const Graph& g, const Clustering& c,
                               const Backbone& b)
    : graph_(&g),
      clustering_(&c),
      links_(VirtualLinkMap::build(g, b.virtual_links)) {
  const auto h = static_cast<std::uint32_t>(c.heads.size());
  head_trees_.reserve(h);
  for (NodeId head : c.heads) head_trees_.push_back(bfs(g, head));

  // All-pairs next-hop over the cluster graph via one Dijkstra per head
  // (hop-count weights on realized virtual links; head-id tie-breaking).
  std::vector<std::vector<std::pair<std::uint32_t, Hops>>> adj(h);
  const auto cluster_index = [&](NodeId head) {
    const auto it = std::lower_bound(c.heads.begin(), c.heads.end(), head);
    KHOP_ASSERT(it != c.heads.end() && *it == head,
                "virtual link endpoint is not a head");
    return static_cast<std::uint32_t>(std::distance(c.heads.begin(), it));
  };
  for (const auto& [u, v] : b.virtual_links) {
    const Hops w = links_.link(u, v).hops;
    adj[cluster_index(u)].emplace_back(cluster_index(v), w);
    adj[cluster_index(v)].emplace_back(cluster_index(u), w);
  }

  head_route_.assign(h, std::vector<std::uint32_t>(h, 0));
  constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();
  for (std::uint32_t src = 0; src < h; ++src) {
    std::vector<std::uint64_t> dist(h, kInf);
    std::vector<std::uint32_t> parent(h, src);
    std::vector<bool> done(h, false);
    dist[src] = 0;
    for (std::uint32_t iter = 0; iter < h; ++iter) {
      // O(h^2) selection: head graphs have tens of nodes.
      std::uint32_t best = h;
      for (std::uint32_t v = 0; v < h; ++v) {
        if (!done[v] && dist[v] != kInf &&
            (best == h || dist[v] < dist[best] ||
             (dist[v] == dist[best] && c.heads[v] < c.heads[best]))) {
          best = v;
        }
      }
      if (best == h) break;
      done[best] = true;
      for (const auto& [nbr, w] : adj[best]) {
        const std::uint64_t cand = dist[best] + w;
        if (cand < dist[nbr] ||
            (cand == dist[nbr] && !done[nbr] &&
             c.heads[best] < c.heads[parent[nbr]])) {
          dist[nbr] = cand;
          parent[nbr] = best;
        }
      }
    }
    for (std::uint32_t dst = 0; dst < h; ++dst) {
      if (dist[dst] == kInf) {
        throw NotConnected(
            "BackboneRouter: cluster graph is not connected; did the "
            "backbone validate?");
      }
      // Walk back from dst to find the first step out of src.
      std::uint32_t step = dst;
      while (step != src && parent[step] != src) step = parent[step];
      head_route_[src][dst] = dst == src ? src : step;
    }
  }
}

std::vector<NodeId> BackboneRouter::head_path(std::uint32_t from_cluster,
                                              std::uint32_t to_cluster) const {
  const auto& heads = clustering_->heads;
  std::vector<NodeId> path{heads[from_cluster]};
  std::uint32_t cur = from_cluster;
  while (cur != to_cluster) {
    const std::uint32_t next = head_route_[cur][to_cluster];
    KHOP_ASSERT(next != cur, "routing loop in cluster graph");
    const auto link = links_.path(links_.link(heads[cur], heads[next]));
    // Append the gateway path in the correct orientation.
    if (link.front() == heads[cur]) {
      path.insert(path.end(), link.begin() + 1, link.end());
    } else {
      path.insert(path.end(), link.rbegin() + 1, link.rend());
    }
    cur = next;
  }
  return path;
}

Route BackboneRouter::route(NodeId src, NodeId dst) const {
  KHOP_REQUIRE(src < graph_->num_nodes() && dst < graph_->num_nodes(),
               "route endpoint out of range");
  Route r;
  if (src == dst) {
    r.path = {src};
    return r;
  }

  const std::uint32_t cs = clustering_->cluster_of[src];
  const std::uint32_t cd = clustering_->cluster_of[dst];

  // Leg 1 (up): src -> head(src). extract_path returns head..src.
  std::vector<NodeId> up = extract_path(head_trees_[cs], src);
  std::reverse(up.begin(), up.end());

  // Leg 2 (across): head(src) -> head(dst) over the cluster graph.
  const std::vector<NodeId> across = head_path(cs, cd);

  // Leg 3 (down): head(dst) -> dst.
  const std::vector<NodeId> down = extract_path(head_trees_[cd], dst);

  // Stitch, dropping duplicated junction nodes.
  r.path = up;
  for (std::size_t i = 1; i < across.size(); ++i) r.path.push_back(across[i]);
  for (std::size_t i = 1; i < down.size(); ++i) r.path.push_back(down[i]);

  // Loop erasure: the stitched route can revisit a node (e.g. src already
  // lies on the inter-head path); return a simple path.
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<NodeId> simple;
  std::vector<std::size_t> pos(graph_->num_nodes(), kNone);
  for (NodeId v : r.path) {
    if (pos[v] != kNone) {
      while (simple.size() > pos[v] + 1) {
        pos[simple.back()] = kNone;
        simple.pop_back();
      }
    } else {
      simple.push_back(v);
      pos[v] = simple.size() - 1;
    }
  }
  r.path = std::move(simple);

  KHOP_ASSERT(r.path.front() == src && r.path.back() == dst,
              "route endpoints corrupted");
  for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
    KHOP_ASSERT(graph_->has_edge(r.path[i], r.path[i + 1]),
                "route uses a non-edge");
  }
  return r;
}

double BackboneRouter::stretch(NodeId src, NodeId dst) const {
  KHOP_REQUIRE(src != dst, "stretch undefined for src == dst");
  const Route r = route(src, dst);
  const BfsTree t = bfs(*graph_, src);
  KHOP_ASSERT(t.dist[dst] != kUnreachable && t.dist[dst] > 0,
              "disconnected endpoints");
  return static_cast<double>(r.hops()) / static_cast<double>(t.dist[dst]);
}

}  // namespace khop
