/// \file kcluster.hpp
/// The *other* k-hop clustering definition from the related work (Krishna,
/// Vaidya, Chatterjee, Pradhan): a k-cluster is a set of nodes that are
/// MUTUALLY reachable within k hops - pairwise distance <= k, no
/// clusterheads, clusters may overlap. The paper contrasts its head-centric
/// definition against this one (section 1); this module implements a greedy
/// cover heuristic so the two structures can be compared empirically.
#pragma once

#include <string>
#include <vector>

#include "khop/common/types.hpp"
#include "khop/graph/graph.hpp"

namespace khop {

/// An overlapping cover of the graph by k-clusters.
struct KClusterCover {
  Hops k = 1;
  /// Each cluster: ascending member ids, pairwise distance <= k in G.
  std::vector<std::vector<NodeId>> clusters;
  /// cluster ids containing each node (every node is in >= 1).
  std::vector<std::vector<std::uint32_t>> clusters_of;
};

/// Greedy cover: seeds are processed in ascending id; each seed's cluster
/// greedily absorbs candidates (ascending id) from its k-ball whose distance
/// to every current member stays <= k. Already-covered nodes may join later
/// clusters (overlap) but never seed new ones. Each node's k-ball is
/// searched once and cached for the call: the cache is O(n^2) words, freed
/// on return.
/// \pre k >= 1; g connected
KClusterCover krishna_kclusters(const Graph& g, Hops k);

/// Validates the mutual-distance and coverage properties; empty on success.
std::string validate_kcluster_cover(const Graph& g, const KClusterCover& c);

}  // namespace khop
