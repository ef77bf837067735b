/// \file mesh.hpp
/// Mesh-based gateway selection (baseline, after Sinha-Sivakumar-Bharghavan):
/// realize *every* selected head pair with exactly one gateway path.
#pragma once

#include <vector>

#include "khop/cluster/clustering.hpp"
#include "khop/gateway/virtual_link.hpp"
#include "khop/nbr/neighbor_rules.hpp"
#include "khop/runtime/exec.hpp"

namespace khop {

struct MeshResult {
  /// Unordered head pairs realized (all of sel.head_pairs).
  std::vector<std::pair<NodeId, NodeId>> kept_links;
  /// Interior nodes of the realized paths, minus any clusterheads. Sorted.
  std::vector<NodeId> gateways;
};

/// Marks gateways for every pair in \p sel using the canonical virtual
/// links; the gateway marks live in \p ws.
MeshResult mesh_gateways(const Clustering& c, const NeighborSelection& sel,
                         const VirtualLinkMap& links,
                         Workspace& ws = tls_workspace());

}  // namespace khop
