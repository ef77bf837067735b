/// \file bfs.hpp
/// Breadth-first search toolkit: hop distances, bounded-depth neighborhoods,
/// and *canonical* shortest-path trees.
///
/// Canonical trees pick, among all shortest paths, the one whose parent at
/// every level has the smallest node id. This makes every derived object
/// (virtual links, gateways) a pure function of the topology - essential for
/// reproducibility and for cross-validating the centralized algorithms
/// against the message-passing protocols.
#pragma once

#include <vector>

#include "khop/common/types.hpp"
#include "khop/graph/bfs_scratch.hpp"
#include "khop/graph/graph.hpp"

namespace khop {

/// Result of a single-source BFS.
struct BfsTree {
  NodeId source = kInvalidNode;
  std::vector<Hops> dist;      ///< hop distance, kUnreachable if not reached
  std::vector<NodeId> parent;  ///< canonical parent, kInvalidNode at source /
                               ///< unreached nodes
};

/// Full BFS from \p source with canonical (min-id) parents.
BfsTree bfs(const Graph& g, NodeId source);

/// BFS from \p source exploring only nodes within \p max_hops.
/// dist[v] == kUnreachable for nodes farther than max_hops.
BfsTree bfs_bounded(const Graph& g, NodeId source, Hops max_hops);

/// Nodes with 1 <= dist(source, v) <= k, ascending id order.
std::vector<NodeId> k_hop_neighborhood(const Graph& g, NodeId source, Hops k);

/// Extracts the canonical shortest path source -> target from a BFS tree.
/// Returned path includes both endpoints.
/// \pre tree.dist[target] != kUnreachable
std::vector<NodeId> extract_path(const BfsTree& tree, NodeId target);

/// Multi-source BFS: dist[v] = hops to the nearest seed; owner[v] = the seed
/// that claims v (ties broken by smaller seed id, resolved level by level).
struct MultiSourceBfs {
  std::vector<Hops> dist;
  std::vector<NodeId> owner;
};
MultiSourceBfs multi_source_bfs(const Graph& g,
                                const std::vector<NodeId>& seeds);

// ---------------------------------------------------------------------------
// Zero-allocation variants. Each *_into overload reuses the caller's scratch
// (epoch-stamped visited marks, see BfsScratch) and writes the result into a
// caller-owned output object, reusing its capacity. Outputs are bit-identical
// to the allocating functions above, which are now thin wrappers over these.
// ---------------------------------------------------------------------------

/// bfs(g, source) into \p out, reusing \p ws.
void bfs_into(const Graph& g, NodeId source, BfsScratch& ws, BfsTree& out);

/// bfs_bounded(g, source, max_hops) into \p out, reusing \p ws.
void bfs_bounded_into(const Graph& g, NodeId source, Hops max_hops,
                      BfsScratch& ws, BfsTree& out);

/// k_hop_neighborhood(g, source, k) into \p out, reusing \p ws.
/// Cost O(reached log reached), independent of n.
void k_hop_neighborhood_into(const Graph& g, NodeId source, Hops k,
                             BfsScratch& ws, std::vector<NodeId>& out);

/// multi_source_bfs(g, seeds) into \p out, reusing \p ws.
void multi_source_bfs_into(const Graph& g, const std::vector<NodeId>& seeds,
                           BfsScratch& ws, MultiSourceBfs& out);

}  // namespace khop
