/// \file bfs_reference.hpp
/// The original allocating BFS implementations, preserved verbatim as an
/// independent oracle. The production kernels in bfs.hpp now run on
/// BfsScratch (epoch-stamped marks, reused buffers); these reference
/// versions re-fill fresh O(n) arrays per call and share no code with them,
/// so the equivalence suite and the perf-regression harness can compare two
/// genuinely distinct implementations (bit-exactness and speedup
/// respectively). Not for production call sites.
#pragma once

#include <vector>

#include "khop/common/types.hpp"
#include "khop/graph/bfs.hpp"
#include "khop/graph/graph.hpp"

namespace khop::reference {

/// Allocating full BFS; output bit-identical to khop::bfs.
BfsTree bfs(const Graph& g, NodeId source);

/// Allocating bounded BFS; output bit-identical to khop::bfs_bounded.
BfsTree bfs_bounded(const Graph& g, NodeId source, Hops max_hops);

/// Allocating k-hop neighborhood (O(n) scan); output bit-identical to
/// khop::k_hop_neighborhood.
std::vector<NodeId> k_hop_neighborhood(const Graph& g, NodeId source, Hops k);

/// Allocating multi-source BFS; output bit-identical to
/// khop::multi_source_bfs.
MultiSourceBfs multi_source_bfs(const Graph& g,
                                const std::vector<NodeId>& seeds);

}  // namespace khop::reference

namespace khop {

/// All-pairs hop distances via n BFS runs, a test helper for property
/// checks on small graphs (tens of nodes); cost O(n * (n + m)).
std::vector<std::vector<Hops>> all_pairs_hops(const Graph& g);

}  // namespace khop
