/// \file mst_reference.hpp
/// Prim's MST over an explicit weighted adjacency list, the local tree the
/// set-based LMSTGA oracle (lmst_oracle.hpp) builds per head. The library's
/// LmstKernel computes the same tree without it.
#pragma once

#include <cstddef>
#include <vector>

#include "khop/common/types.hpp"
#include "khop/graph/mst.hpp"

namespace khop {

/// Prim MST rooted at \p root over nodes {0..n-1} given an adjacency list of
/// weighted edges (both directions must be present). Returns parent array
/// (parent[root] == kInvalidNode). Throws NotConnected when not spanning.
std::vector<NodeId> prim_mst(
    std::size_t n, const std::vector<std::vector<WeightedEdge>>& adj,
    NodeId root);

}  // namespace khop
