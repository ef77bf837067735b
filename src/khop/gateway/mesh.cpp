#include "khop/gateway/mesh.hpp"

#include <algorithm>

#include "khop/common/assert.hpp"

namespace khop {

MeshResult mesh_gateways(const Clustering& c, const NeighborSelection& sel,
                         const VirtualLinkMap& links) {
  MeshResult r;
  r.kept_links = sel.head_pairs;
  for (const auto& [u, v] : sel.head_pairs) {
    // A shortest path may route through a third head; heads are already
    // backbone nodes and are not counted as gateways.
    for (const NodeId w : links.interior(links.link(u, v))) {
      if (!c.is_head(w)) r.gateways.push_back(w);
    }
  }
  std::sort(r.gateways.begin(), r.gateways.end());
  r.gateways.erase(std::unique(r.gateways.begin(), r.gateways.end()),
                   r.gateways.end());
  return r;
}

}  // namespace khop
