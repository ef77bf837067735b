#include "khop/gateway/gmst.hpp"

#include <algorithm>
#include <utility>

#include "khop/common/assert.hpp"
#include "khop/common/error.hpp"
#include "khop/gateway/gateway_set.hpp"
#include "khop/runtime/workspace.hpp"

namespace khop {

namespace {

/// Position of head \p u in c.heads (ascending ids).
NodeId head_index(const Clustering& c, NodeId u) {
  const auto it = std::lower_bound(c.heads.begin(), c.heads.end(), u);
  KHOP_REQUIRE(it != c.heads.end() && *it == u,
               "virtual link endpoint is not a clusterhead");
  return static_cast<NodeId>(it - c.heads.begin());
}

/// The MST of the virtual graph over \p links, on head indices. Heads
/// ascend in id, so index order is id order and Kruskal breaks ties as it
/// would on ids. Throws NotConnected if the links do not span the heads.
std::vector<WeightedEdge> head_mst(const Clustering& c,
                                   const VirtualLinkMap& links) {
  std::vector<WeightedEdge> edges;
  edges.reserve(links.all().size());
  for (const VirtualLink& l : links.all()) {
    edges.push_back({head_index(c, l.u), head_index(c, l.v), l.hops});
  }
  return kruskal_mst(c.heads.size(), std::move(edges));
}

}  // namespace

GmstResult gmst_gateways(const Graph& g, const Clustering& c,
                         const HeadSweep& sweep, Exec exec) {
  KHOP_REQUIRE(sweep.sel.rule == NeighborRule::kAllWithin2k1,
               "G-MST runs on the NC head sweep");
  const VirtualLinkMap* links = &sweep.links;
  VirtualLinkMap all;
  GmstResult r;
  try {
    r.tree = head_mst(c, *links);
  } catch (const NotConnected&) {
    // The NC pairs span whenever every node is within k hops of its head
    // (see file comment); an invariant-violating clustering gets every
    // head pair, whose build throws NotConnected if G itself splits them.
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (std::size_t i = 0; i < c.heads.size(); ++i) {
      for (std::size_t j = i + 1; j < c.heads.size(); ++j) {
        pairs.emplace_back(c.heads[i], c.heads[j]);
      }
    }
    all = VirtualLinkMap::build(g, pairs, kUnreachable, exec);
    links = &all;
    r.tree = head_mst(c, *links);
  }

  r.kept_links.reserve(r.tree.size());
  GatewaySet gateways(c, exec.ws->gateway_marks);
  for (WeightedEdge& e : r.tree) {
    // Head indices back to ids; u < v stays, as index order is id order.
    e.u = c.heads[e.u];
    e.v = c.heads[e.v];
    r.kept_links.emplace_back(e.u, e.v);
    gateways.add(links->interior(links->link(e.u, e.v)));
  }
  std::sort(r.kept_links.begin(), r.kept_links.end());
  r.gateways = gateways.take();
  return r;
}

}  // namespace khop
