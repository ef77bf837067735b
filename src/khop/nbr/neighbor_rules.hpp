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

/// Runs the requested rule. Every overload throws InvalidArgument unless
/// c.cluster_of covers \p g (a ChurnEngine's clustering has none).
/// \pre for kWuLou25: c.k == 1.
NeighborSelection select_neighbors(const Graph& g, const Clustering& c,
                                   NeighborRule rule);

struct Workspace;

/// Workspace variant: the per-head bounded BFS runs reuse \p ws.
/// Bit-identical output; the overload above forwards here.
NeighborSelection select_neighbors(const Graph& g, const Clustering& c,
                                   NeighborRule rule, Workspace& ws);

class ThreadPool;

/// Pool variant, bit-identical to the overloads above. For kAdjacent the
/// cross-cluster edge scan runs over node blocks on \p pool, each block
/// sorting and deduping its pairs before a final merge; the other rules
/// run the workspace path on the calling thread's tls_workspace().
NeighborSelection select_neighbors(const Graph& g, const Clustering& c,
                                   NeighborRule rule, ThreadPool& pool);

/// Cluster-index pairs (ci < cj) whose clusters are adjacent per Definition 2
/// (some edge of G joins a node of one to a node of the other).
std::vector<std::pair<std::uint32_t, std::uint32_t>> adjacent_cluster_pairs(
    const Graph& g, const Clustering& c);

/// Canonicalizes a raw selection: sorts + uniques every selected list and the
/// head-pair closure. All selection producers (the rules above and the fused
/// NC sweep in gateway/head_sweep.hpp) funnel through this, so their outputs
/// are comparable bit-for-bit.
NeighborSelection finalize_selection(NeighborSelection sel);

}  // namespace khop
