#include "khop/gateway/gmst.hpp"

#include <algorithm>
#include <utility>

#include "khop/common/assert.hpp"
#include "khop/common/error.hpp"
#include "khop/gateway/gateway_set.hpp"
#include "khop/runtime/thread_pool.hpp"
#include "khop/runtime/workspace.hpp"

namespace khop {

namespace {

/// One head's virtual edges (i, j, d) for neighbor heads j > i inside the
/// horizon, read off the sweep's reached set. Emitting only j > i (heads
/// ascend in id, so w > u <=> j > i) yields each undirected edge once.
void head_edges_one(const Graph& g, const Clustering& c, std::uint32_t i,
                    Hops horizon, Workspace& ws,
                    std::vector<WeightedEdge>& out) {
  const NodeId u = c.heads[i];
  ws.bfs.run(g, u, horizon);
  for (NodeId w : ws.bfs.reached()) {
    if (w <= u || !c.is_head(w)) continue;
    out.push_back({i, c.cluster_of[w], ws.bfs.dist(w)});
  }
}

/// Every head's edges, in head order: blocks of heads under \p exec,
/// concatenated in block order.
std::vector<WeightedEdge> head_edges(const Graph& g, const Clustering& c,
                                     Hops horizon, const Exec& exec) {
  return exec_concat<WeightedEdge>(
      exec, c.heads.size(),
      [&](std::size_t begin, std::size_t end, Workspace& ws,
          std::vector<WeightedEdge>& out) {
        for (std::size_t i = begin; i < end; ++i) {
          head_edges_one(g, c, static_cast<std::uint32_t>(i), horizon, ws,
                         out);
        }
      });
}

}  // namespace

GmstResult gmst_gateways(const Graph& g, const Clustering& c, Exec exec) {
  KHOP_REQUIRE(!c.heads.empty(), "clustering has no heads");
  const std::size_t h = c.heads.size();
  const Hops horizon = 2 * c.k + 1;

  std::vector<WeightedEdge> tree;
  try {
    tree = kruskal_mst(h, head_edges(g, c, horizon, exec));
  } catch (const NotConnected&) {
    // The bounded head graph spans whenever every node is within k hops of
    // its head (see file comment); an invariant-violating clustering gets
    // the complete virtual graph instead. Kruskal's order is a strict total
    // order on head pairs, and every omitted edge sorts after the spanning
    // bounded set, so on spanning inputs both graphs give the same MST.
    tree = kruskal_mst(h, head_edges(g, c, kUnreachable, exec));
  }

  GmstResult r;
  // Head indices are ascending in id, so index tie-breaking == id
  // tie-breaking; translate back to ids afterwards.
  r.tree.reserve(tree.size());
  for (const auto& e : tree) {
    r.tree.push_back({c.heads[e.u], c.heads[e.v], e.weight});
  }

  // Tree edges are distinct pairs; sorted, pair i is the map's link i.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(r.tree.size());
  for (const auto& e : r.tree) {
    pairs.emplace_back(std::min(e.u, e.v), std::max(e.u, e.v));
  }
  std::sort(pairs.begin(), pairs.end());
  const VirtualLinkMap links = VirtualLinkMap::build(g, pairs, horizon, exec);

  GatewaySet gateways(c, exec.ws->gateway_marks);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto& [u, v] = pairs[i];
    gateways.add(links.interior(links.link_at(i, u, v)));
  }
  r.kept_links = std::move(pairs);
  r.gateways = gateways.take();
  return r;
}

}  // namespace khop
