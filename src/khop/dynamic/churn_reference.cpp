#include "khop/dynamic/churn_reference.hpp"

#include <algorithm>
#include <unordered_map>

#include "khop/common/assert.hpp"
#include "khop/graph/components.hpp"
#include "khop/graph/subgraph.hpp"

namespace khop {

Backbone rebuild_backbone_oracle(const DynamicGraph& g, Hops k,
                                 const std::vector<NodeId>& head_of,
                                 Pipeline pipeline) {
  KHOP_REQUIRE(head_of.size() == g.capacity(),
               "head assignment does not match graph");
  const Graph snap = g.snapshot();
  const Components comps = connected_components(snap);

  // Group alive nodes by component (dead nodes are isolated singletons in
  // the snapshot; skipping them drops their pseudo-components entirely).
  std::unordered_map<NodeId, std::vector<NodeId>> by_comp;
  for (NodeId v = 0; v < snap.num_nodes(); ++v) {
    if (g.alive(v)) by_comp[comps.label[v]].push_back(v);
  }
  std::vector<NodeId> labels;
  labels.reserve(by_comp.size());
  for (const auto& [label, nodes] : by_comp) labels.push_back(label);
  std::sort(labels.begin(), labels.end());

  Backbone out;
  out.pipeline = pipeline;
  out.spec = spec_for(pipeline);
  for (NodeId label : labels) {
    const std::vector<NodeId>& nodes = by_comp[label];  // ascending already
    const InducedSubgraph sub = induced_subgraph(snap, nodes);

    // Project the head assignment into the subgraph. Relabelling is
    // order-preserving, so every min-id tie-break below matches what the
    // same computation over original ids would decide.
    Clustering c;
    c.k = k;
    const std::size_t sn = sub.graph.num_nodes();
    c.head_of.resize(sn);
    c.dist_to_head.assign(sn, 0);
    c.cluster_of.resize(sn);
    for (NodeId local = 0; local < sn; ++local) {
      const NodeId orig_head = head_of[sub.original_ids[local]];
      KHOP_REQUIRE(orig_head != kInvalidNode, "alive node without a head");
      const NodeId local_head = sub.new_id[orig_head];
      KHOP_REQUIRE(local_head != kInvalidNode,
                   "head outside its member's component");
      c.head_of[local] = local_head;
      if (c.head_of[local] == local) c.heads.push_back(local);
    }
    std::unordered_map<NodeId, std::uint32_t> head_index;
    for (std::uint32_t i = 0; i < c.heads.size(); ++i) {
      head_index[c.heads[i]] = i;
    }
    for (NodeId local = 0; local < sn; ++local) {
      c.cluster_of[local] = head_index.at(c.head_of[local]);
    }

    Backbone b = build_backbone(sub.graph, c, pipeline);
    for (NodeId h : b.heads) out.heads.push_back(sub.original_ids[h]);
    for (NodeId gw : b.gateways) out.gateways.push_back(sub.original_ids[gw]);
    for (const auto& [u, v] : b.virtual_links) {
      out.virtual_links.emplace_back(sub.original_ids[u],
                                     sub.original_ids[v]);
    }
  }
  std::sort(out.heads.begin(), out.heads.end());
  std::sort(out.gateways.begin(), out.gateways.end());
  std::sort(out.virtual_links.begin(), out.virtual_links.end());
  return out;
}

}  // namespace khop
