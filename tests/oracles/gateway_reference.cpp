// Verbatim pre-PR4 gateway implementations (see gateway_reference.hpp). Kept
// byte-for-byte close to the originals on purpose — do not "clean up".
#include "oracles/gateway_reference.hpp"

#include <algorithm>
#include <map>

#include "khop/common/assert.hpp"
#include "khop/common/error.hpp"
#include "khop/gateway/lmst.hpp"
#include "khop/gateway/mesh.hpp"
#include "khop/graph/bfs.hpp"
#include "khop/graph/mst.hpp"
#include "khop/runtime/workspace.hpp"
#include "oracles/nbr_reference.hpp"

namespace khop::reference {

VirtualLinkMap build_virtual_links(
    const Graph& g, const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  Workspace ws;  // oracle independence: never shares scratch with production

  // Group pairs by smaller endpoint so each source needs a single BFS.
  std::map<NodeId, std::vector<NodeId>> by_source;
  for (const auto& [a, b] : pairs) {
    KHOP_REQUIRE(a != b, "virtual link endpoints must differ");
    by_source[std::min(a, b)].push_back(std::max(a, b));
  }

  std::vector<VirtualLinkBlock> blocks(1);
  VirtualLinkBlock& block = blocks.front();
  for (auto& [src, targets] : by_source) {
    ws.bfs.run(g, src, kUnreachable);
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
    for (NodeId dst : targets) {
      if (ws.bfs.dist(dst) == kUnreachable) {
        throw NotConnected("virtual link endpoints are disconnected in G");
      }
      VirtualLink link;
      link.u = src;
      link.v = dst;
      link.hops = ws.bfs.dist(dst);
      const std::vector<NodeId> path = ws.bfs.extract_path(dst);
      link.length = static_cast<std::uint32_t>(path.size());
      link.offset = block.arena.size();
      block.arena.insert(block.arena.end(), path.begin(), path.end());
      block.links.push_back(link);
    }
  }
  return VirtualLinkMap::from_links(std::move(blocks));
}

GmstResult gmst_gateways(const Graph& g, const Clustering& c) {
  KHOP_REQUIRE(!c.heads.empty(), "clustering has no heads");
  const std::size_t h = c.heads.size();

  // Complete virtual graph over heads; indices into c.heads.
  std::vector<WeightedEdge> edges;
  edges.reserve(h * (h - 1) / 2);
  for (std::size_t i = 0; i < h; ++i) {
    const BfsTree tree = bfs(g, c.heads[i]);
    for (std::size_t j = i + 1; j < h; ++j) {
      const Hops d = tree.dist[c.heads[j]];
      KHOP_ASSERT(d != kUnreachable, "heads disconnected in G");
      edges.push_back(
          {static_cast<NodeId>(i), static_cast<NodeId>(j), d});
    }
  }

  GmstResult r;
  // Head indices are ascending in id, so index tie-breaking == id
  // tie-breaking; translate back to ids afterwards.
  for (const auto& e : kruskal_mst(h, std::move(edges))) {
    r.tree.push_back({c.heads[e.u], c.heads[e.v], e.weight});
  }

  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(r.tree.size());
  for (const auto& e : r.tree) {
    pairs.emplace_back(std::min(e.u, e.v), std::max(e.u, e.v));
  }
  const VirtualLinkMap links = build_virtual_links(g, pairs);

  std::sort(pairs.begin(), pairs.end());
  r.kept_links = pairs;
  for (const auto& [u, v] : pairs) {
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

Backbone build_backbone(const Graph& g, const Clustering& c,
                        const BackboneSpec& spec) {
  Backbone b;
  b.spec = spec;
  b.heads = c.heads;

  if (spec.gateway == GatewayAlgorithm::kGmst) {
    GmstResult r = reference::gmst_gateways(g, c);
    b.gateways = std::move(r.gateways);
    b.virtual_links = std::move(r.kept_links);
    return b;
  }

  const NeighborSelection sel =
      reference::select_neighbors(g, c, spec.neighbor_rule);
  const VirtualLinkMap links = build_virtual_links(g, sel.head_pairs);

  if (spec.gateway == GatewayAlgorithm::kMesh) {
    MeshResult r = mesh_gateways(c, links);
    b.gateways = std::move(r.gateways);
    b.virtual_links = std::move(r.kept_links);
  } else {
    LmstResult r = lmst_gateways(c, sel, links, spec.lmst_keep);
    b.gateways = std::move(r.gateways);
    b.virtual_links = std::move(r.kept_links);
  }
  return b;
}

Backbone build_backbone(const Graph& g, const Clustering& c, Pipeline p) {
  Backbone b = reference::build_backbone(g, c, spec_for(p));
  b.pipeline = p;
  return b;
}

}  // namespace khop::reference
