/// \file mst.hpp
/// Minimum spanning tree construction over explicitly weighted edge lists.
///
/// Both the LMSTGA local trees and the global G-MST baseline operate on
/// *virtual graphs* whose edges carry hop-count weights, so the MST API takes
/// an edge list rather than a Graph. Ties are broken by the total order
/// (weight, min endpoint id, max endpoint id) - the same order the paper
/// suggests ("IDs of two nodes of a virtual link can be used to break a
/// tie") - making the MST unique and the whole pipeline deterministic.
#pragma once

#include <cstdint>
#include <vector>

#include "khop/common/types.hpp"

namespace khop {

/// One weighted undirected edge of a virtual graph.
struct WeightedEdge {
  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;
  std::uint64_t weight = 0;
};

/// Deterministic strict ordering used for all MST computations.
bool edge_less(const WeightedEdge& a, const WeightedEdge& b) noexcept;

/// Kruskal MST over nodes {0..n-1}. Returns the chosen edges.
/// Throws NotConnected if the edges do not span all n nodes.
std::vector<WeightedEdge> kruskal_mst(std::size_t n,
                                      std::vector<WeightedEdge> edges);

}  // namespace khop
