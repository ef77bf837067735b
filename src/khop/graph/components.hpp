/// \file components.hpp
/// Connected-component analysis.
#pragma once

#include <span>
#include <vector>

#include "khop/common/types.hpp"
#include "khop/graph/graph.hpp"

namespace khop {

/// Label of each node's component (labels are 0-based, assigned in order of
/// the smallest node id in each component) plus the component count.
struct Components {
  std::vector<NodeId> label;
  std::size_t count = 0;
};

Components connected_components(const Graph& g);

/// True iff the graph is connected (vacuously true for <= 1 node).
bool is_connected(const Graph& g);

/// True iff the nodes listed in \p part_a and \p part_b together induce a
/// connected subgraph of \p g (edges with both endpoints in the subset).
/// Vacuously true for <= 1 node. The two lists are a backbone's heads and
/// gateways; an id may repeat within or across them. One byte mark per node
/// and one search over the subset, which stops once it has reached every
/// member. \pre every id < g.num_nodes() (throws InvalidArgument)
bool is_connected_subset(const Graph& g, std::span<const NodeId> part_a,
                         std::span<const NodeId> part_b);

/// Extraction of the largest connected component with a dense re-labelling.
struct LargestComponent {
  std::vector<NodeId> original_ids;  ///< new id -> old id, ascending
  std::vector<NodeId> new_id;        ///< old id -> new id or kInvalidNode
};
LargestComponent largest_component(const Graph& g);

}  // namespace khop
