/// \file gmst.hpp
/// G-MST: the centralized global-minimum-spanning-tree baseline the paper
/// uses as a lower bound. Builds the virtual graph over all clusterheads
/// (weight = hop distance in G), takes its MST, and marks the interior nodes
/// of the tree edges' canonical shortest paths as gateways.
///
/// PR4: the virtual graph is built from one 2k+1-BOUNDED BFS per head
/// (neighbor heads read off the reached set) instead of one unbounded BFS
/// per head probing all H heads. Dropping the > 2k+1 edges cannot change the
/// MST: every node sits within k hops of its head, so walking any shortest
/// path between two heads yields a head chain whose edges are all <= 2k+1 —
/// a cycle in which any longer edge is the strict maximum (cycle property).
/// If the bounded head graph fails to span (input violating the clustering
/// invariant), the build transparently falls back to the complete graph, so
/// the output stays bit-identical to the reference on every spanning input.
#pragma once

#include <vector>

#include "khop/cluster/clustering.hpp"
#include "khop/gateway/virtual_link.hpp"
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

/// Computes the G-MST backbone for \p c over \p g. The per-head sweeps and
/// the link extraction run in blocks of heads (of sources) under \p exec,
/// merged in head order; the gateway marks live in *exec.ws.
GmstResult gmst_gateways(const Graph& g, const Clustering& c, Exec exec = {});

}  // namespace khop
