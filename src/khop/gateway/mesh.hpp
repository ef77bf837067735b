/// \file mesh.hpp
/// Mesh-based gateway selection (baseline, after Sinha-Sivakumar-Bharghavan):
/// realize *every* selected head pair with exactly one gateway path.
#pragma once

#include <vector>

#include "khop/cluster/clustering.hpp"
#include "khop/gateway/virtual_link.hpp"
#include "khop/runtime/exec.hpp"

namespace khop {

struct MeshResult {
  /// Unordered head pairs realized (every link of the map), (min,max),
  /// sorted.
  std::vector<std::pair<NodeId, NodeId>> kept_links;
  /// Interior nodes of the realized paths, minus any clusterheads. Sorted.
  std::vector<NodeId> gateways;
};

/// Realizes every link of \p links, the front end's map of the selected
/// pairs (gateway/head_sweep.hpp), in one pass over links.all(); kept_links
/// is (u, v)-sorted even when links is a mutated map out of build order.
/// Runs on the calling thread (exec.pool is not used); the gateway marks
/// live in *exec.ws.
MeshResult mesh_gateways(const Clustering& c, const VirtualLinkMap& links,
                         Exec exec = {});

}  // namespace khop
