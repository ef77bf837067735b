#include "khop/gateway/backbone.hpp"

#include <utility>

#include "khop/common/assert.hpp"
#include "khop/gateway/gmst.hpp"
#include "khop/gateway/head_sweep.hpp"
#include "khop/gateway/lmst.hpp"
#include "khop/gateway/mesh.hpp"
#include "khop/obs/trace.hpp"
#include "khop/runtime/workspace.hpp"

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

  if (spec.gateway == GatewayAlgorithm::kGmst) {
    obs::Span gw_span("backbone/gmst");
    GmstResult r = gmst_gateways(g, c, exec);
    b.gateways = std::move(r.gateways);
    b.virtual_links = std::move(r.kept_links);
    span.arg("gateways", static_cast<std::int64_t>(b.gateways.size()));
    return b;
  }

  NeighborSelection sel;
  VirtualLinkMap links;
  if (spec.neighbor_rule == NeighborRule::kAllWithin2k1) {
    // NC: one fused sweep per head discovers neighbor heads AND extracts
    // their virtual links (no separate per-source BFS pass at all).
    obs::Span sweep_span("backbone/head_sweep");
    HeadSweep sweep = nc_sweep(g, c, exec);
    sel = std::move(sweep.sel);
    links = std::move(sweep.links);
    sweep_span.arg("head_pairs", static_cast<std::int64_t>(sel.head_pairs.size()));
  } else {
    // AC / Wu-Lou selections need no BFS of their own (adjacency scan /
    // horizon-3 sweeps); their pairs all sit within 2k+1 hops, so link
    // extraction runs horizon-bounded.
    obs::Span sel_span("backbone/select_neighbors");
    sel = select_neighbors(g, c, spec.neighbor_rule, exec);
    sel_span.arg("head_pairs", static_cast<std::int64_t>(sel.head_pairs.size()));
    obs::Span links_span("backbone/extract_links");
    links = VirtualLinkMap::build(g, sel.head_pairs, 2 * c.k + 1, exec);
  }

  {
    obs::Span gw_span(spec.gateway == GatewayAlgorithm::kMesh
                          ? "backbone/mesh"
                          : "backbone/lmst");
    if (spec.gateway == GatewayAlgorithm::kMesh) {
      MeshResult r = mesh_gateways(c, sel, links, *exec.ws);
      b.gateways = std::move(r.gateways);
      b.virtual_links = std::move(r.kept_links);
    } else {
      LmstResult r = lmst_gateways(c, sel, links, spec.lmst_keep, exec);
      b.gateways = std::move(r.gateways);
      b.virtual_links = std::move(r.kept_links);
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
