/// \file gmst.hpp
/// G-MST: the centralized global-minimum-spanning-tree baseline the paper
/// uses as a lower bound. Its virtual graph is the complete graph over the
/// clusterheads, weighted by hop distance in G; the backbone is that graph's
/// MST, realized by the interior nodes of the tree edges' canonical
/// shortest paths.
///
/// G-MST is a combiner over the NC head sweep (gateway/head_sweep.hpp), like
/// mesh and LMSTGA: Kruskal runs over the NC pairs only, the heads within
/// 2k+1 hops of each other, and the kept paths are read from the sweep's
/// link map. The NC pairs suffice by the cycle property. Every node lies
/// within k hops of its head, so walking a shortest path between any two
/// heads visits a chain of heads whose consecutive distances are all at most
/// 2k+1. An edge longer than 2k+1 is therefore the strict maximum, in
/// Kruskal's (weight, min id, max id) order, of a cycle whose other edges
/// are NC pairs, and no MST contains it. A clustering that breaks that
/// invariant can leave the NC pairs without a spanning tree; the combiner
/// then builds the links of every head pair unbounded and runs Kruskal over
/// the complete graph, so it returns the reference's tree on every input.
#pragma once

#include <vector>

#include "khop/cluster/clustering.hpp"
#include "khop/gateway/head_sweep.hpp"
#include "khop/graph/mst.hpp"
#include "khop/runtime/exec.hpp"

namespace khop {

struct GmstResult {
  /// MST edges over head ids (weights are hop distances).
  std::vector<WeightedEdge> tree;
  /// Realized head pairs, (min,max), sorted.
  std::vector<std::pair<NodeId, NodeId>> kept_links;
  /// Interior nodes of tree-edge paths, minus heads. Sorted.
  std::vector<NodeId> gateways;
};

/// Computes the G-MST backbone for \p c over \p g from \p sweep, the NC
/// head sweep of (g, c). Heads are indexed by their position in c.heads;
/// cluster_of is never read. The complete-graph fallback's link build runs
/// in blocks under \p exec; the gateway marks live in *exec.ws. Throws
/// InvalidArgument unless sweep.sel.rule is kAllWithin2k1, and
/// NotConnected if the heads are disconnected in \p g.
GmstResult gmst_gateways(const Graph& g, const Clustering& c,
                         const HeadSweep& sweep, Exec exec = {});

}  // namespace khop
