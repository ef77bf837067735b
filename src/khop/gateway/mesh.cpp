#include "khop/gateway/mesh.hpp"

#include "khop/gateway/gateway_set.hpp"
#include "khop/runtime/workspace.hpp"

namespace khop {

MeshResult mesh_gateways(const Clustering& c, const NeighborSelection& sel,
                         const VirtualLinkMap& links, Workspace& ws) {
  MeshResult r;
  r.kept_links = sel.head_pairs;
  GatewaySet gateways(c, ws.gateway_marks);
  for (std::size_t i = 0; i < sel.head_pairs.size(); ++i) {
    const auto& [u, v] = sel.head_pairs[i];
    gateways.add(links.interior(links.link_at(i, u, v)));
  }
  r.gateways = gateways.take();
  return r;
}

}  // namespace khop
