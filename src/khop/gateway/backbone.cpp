#include "khop/gateway/backbone.hpp"

#include <utility>

#include "khop/common/assert.hpp"
#include "khop/gateway/gmst.hpp"
#include "khop/gateway/head_sweep.hpp"
#include "khop/gateway/lmst.hpp"
#include "khop/gateway/mesh.hpp"
#include "khop/obs/trace.hpp"

namespace khop {

std::string_view pipeline_name(Pipeline p) {
  switch (p) {
    case Pipeline::kNcMesh: return "NC-Mesh";
    case Pipeline::kAcMesh: return "AC-Mesh";
    case Pipeline::kNcLmst: return "NC-LMST";
    case Pipeline::kAcLmst: return "AC-LMST";
    case Pipeline::kGmst:   return "G-MST";
  }
  KHOP_ASSERT(false, "unknown pipeline");
  return {};
}

BackboneSpec spec_for(Pipeline p) {
  BackboneSpec spec;
  switch (p) {
    case Pipeline::kNcMesh:
      spec.neighbor_rule = NeighborRule::kAllWithin2k1;
      spec.gateway = GatewayAlgorithm::kMesh;
      break;
    case Pipeline::kAcMesh:
      spec.neighbor_rule = NeighborRule::kAdjacent;
      spec.gateway = GatewayAlgorithm::kMesh;
      break;
    case Pipeline::kNcLmst:
      spec.neighbor_rule = NeighborRule::kAllWithin2k1;
      spec.gateway = GatewayAlgorithm::kLmst;
      break;
    case Pipeline::kAcLmst:
      spec.neighbor_rule = NeighborRule::kAdjacent;
      spec.gateway = GatewayAlgorithm::kLmst;
      break;
    case Pipeline::kGmst:
      spec.neighbor_rule = NeighborRule::kAllWithin2k1;
      spec.gateway = GatewayAlgorithm::kGmst;
      break;
  }
  return spec;
}

std::vector<bool> Backbone::cds_mask(std::size_t n) const {
  std::vector<bool> mask(n, false);
  for (NodeId h : heads) {
    KHOP_REQUIRE(h < n, "head out of range");
    mask[h] = true;
  }
  for (NodeId g : gateways) {
    KHOP_REQUIRE(g < n, "gateway out of range");
    mask[g] = true;
  }
  return mask;
}

std::vector<NodeRole> Backbone::roles(std::size_t n) const {
  std::vector<NodeRole> r(n, NodeRole::kMember);
  for (NodeId g : gateways) {
    KHOP_REQUIRE(g < n, "gateway out of range");
    r[g] = NodeRole::kGateway;
  }
  for (NodeId h : heads) {
    KHOP_REQUIRE(h < n, "head out of range");
    r[h] = NodeRole::kClusterhead;
  }
  return r;
}

Backbone build_backbone(const Graph& g, const Clustering& c,
                        const BackboneSpec& spec, Exec exec) {
  obs::Span span("backbone/build");
  span.arg("heads", static_cast<std::int64_t>(c.heads.size()));

  Backbone b;
  b.spec = spec;
  b.heads = c.heads;

  const HeadSweep sweep = sweep_heads(g, c, spec.neighbor_rule, exec);
  const auto adopt = [&b](auto r) {
    b.gateways = std::move(r.gateways);
    b.virtual_links = std::move(r.kept_links);
  };
  switch (spec.gateway) {
    case GatewayAlgorithm::kMesh: {
      obs::Span gw_span("backbone/mesh");
      adopt(mesh_gateways(c, sweep.links, exec));
      break;
    }
    case GatewayAlgorithm::kLmst: {
      obs::Span gw_span("backbone/lmst");
      adopt(lmst_gateways(c, sweep.sel, sweep.links, spec.lmst_keep, exec));
      break;
    }
    case GatewayAlgorithm::kGmst: {
      obs::Span gw_span("backbone/gmst");
      adopt(gmst_gateways(g, c, sweep, exec));
      break;
    }
  }
  span.arg("gateways", static_cast<std::int64_t>(b.gateways.size()));
  return b;
}

Backbone build_backbone(const Graph& g, const Clustering& c, Pipeline p,
                        Exec exec) {
  Backbone b = build_backbone(g, c, spec_for(p), exec);
  b.pipeline = p;
  return b;
}

}  // namespace khop
