/// \file neighbor_rules.hpp
/// Phase 1 of the paper's localized solution: which neighbor clusterheads
/// must each clusterhead connect to?
///
/// * NC  - the usual rule: all clusterheads within 2k+1 hops.
/// * A-NCR - the paper's contribution (section 3.1): only *adjacent*
///   clusterheads, i.e. heads of clusters joined by at least one G-edge.
///   Theorem 1 guarantees the adjacent-cluster graph is connected.
/// * Wu-Lou 2.5-hop coverage - the k=1 special case A-NCR generalizes
///   (heads within 2 hops, plus heads 3 hops away owning a member within 2
///   hops); produces a directed selection.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "khop/cluster/clustering.hpp"
#include "khop/runtime/exec.hpp"

namespace khop {

enum class NeighborRule : std::uint8_t {
  kAllWithin2k1,  ///< NC baseline
  kAdjacent,      ///< A-NCR (paper)
  kWuLou25,       ///< 2.5-hop coverage; requires k == 1
};

/// Output of neighbor clusterhead selection.
struct NeighborSelection {
  NeighborRule rule = NeighborRule::kAdjacent;
  /// Per cluster index (aligned with Clustering::heads): the head ids this
  /// head selects, ascending. May be asymmetric for kWuLou25.
  std::vector<std::vector<NodeId>> selected;
  /// Symmetric closure of `selected` as unordered head-id pairs (u < v),
  /// sorted and unique: the virtual links phase 2 must realize.
  std::vector<std::pair<NodeId, NodeId>> head_pairs;
};

/// Runs the requested rule. Throws InvalidArgument unless c.cluster_of
/// covers \p g (a ChurnEngine's clustering has none).
/// \pre for kWuLou25: c.k == 1.
///
/// A-NCR (kAdjacent) runs by cluster: a counting pass groups the nodes by
/// cluster_of, then blocks of cluster indices scan their members' edges
/// under \p exec. Each cluster's selected list is written once, at its
/// exact size, and each block emits its head pairs in (u, v) order, so the
/// blocks' lists concatenate into the sorted head_pairs with no global sort,
/// for one block or any pool size alike. The NC rule returns the selection
/// of the fused head sweep (nc_sweep, gateway/head_sweep.hpp), in blocks of
/// heads under \p exec. The Wu-Lou rule runs on the calling thread; its
/// per-head bounded BFS runs reuse *exec.ws.
NeighborSelection select_neighbors(const Graph& g, const Clustering& c,
                                   NeighborRule rule, Exec exec = {});

/// Cluster-index pairs (ci < cj) whose clusters are adjacent per Definition 2
/// (some edge of G joins a node of one to a node of the other), ascending;
/// the A-NCR kernel's adjacency, one cluster at a time. Throws
/// InvalidArgument unless c.cluster_of covers \p g with valid indices.
std::vector<std::pair<std::uint32_t, std::uint32_t>> adjacent_cluster_pairs(
    const Graph& g, const Clustering& c);

}  // namespace khop
