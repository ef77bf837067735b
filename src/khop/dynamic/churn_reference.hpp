/// \file churn_reference.hpp
/// The stateless half of the churn engine's audit: given a topology and a
/// head assignment, the backbone is a pure function, so
/// rebuild_backbone_oracle recomputes it from scratch per connected
/// component for ChurnEngine::audit() to compare bit-exact against the
/// incrementally maintained backbone. The stateful half, the full-recompute
/// ReferenceChurnMaintainer, is a test oracle (tests/oracles/).
#pragma once

#include <vector>

#include "khop/common/types.hpp"
#include "khop/gateway/backbone.hpp"
#include "khop/graph/dynamic_graph.hpp"

namespace khop {

/// Recomputes the backbone from scratch for the head assignment in
/// \p head_of: connected components of the alive subgraph are extracted,
/// build_backbone runs on each (relabelling is ascending, so canonical
/// min-id tie-breaks are preserved), and the results are merged back to
/// original ids. Heads/gateways/virtual_links come out sorted ascending.
Backbone rebuild_backbone_oracle(const DynamicGraph& g, Hops k,
                                 const std::vector<NodeId>& head_of,
                                 Pipeline pipeline);

}  // namespace khop
