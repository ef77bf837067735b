#include "khop/gateway/mesh.hpp"

#include <algorithm>

#include "khop/gateway/gateway_set.hpp"
#include "khop/runtime/workspace.hpp"

namespace khop {

MeshResult mesh_gateways(const Clustering& c, const VirtualLinkMap& links,
                         Exec exec) {
  MeshResult r;
  r.kept_links.reserve(links.all().size());
  GatewaySet gateways(c, exec.ws->gateway_marks);
  for (const VirtualLink& l : links.all()) {
    r.kept_links.emplace_back(l.u, l.v);
    gateways.add(links.interior(l));
  }
  // A mutated map (the churn engine's) is not in (u, v) order.
  if (!std::is_sorted(r.kept_links.begin(), r.kept_links.end())) {
    std::sort(r.kept_links.begin(), r.kept_links.end());
  }
  r.gateways = gateways.take();
  return r;
}

}  // namespace khop
