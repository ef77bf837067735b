/// \file dynamic_graph.hpp
/// Mutable undirected graph for the continuous-maintenance (churn) layer.
///
/// Unlike the CSR `Graph`, a DynamicGraph supports in-place node
/// removal/revival and single-link flips without rebuilding or copying the
/// topology. The id space (capacity) is fixed at construction: a failed node
/// keeps its id and can later be revived by a join event, which is exactly
/// the paper's switch-off/switch-on model and keeps every maintained
/// per-node array index-stable across events.
///
/// Neighbor lists stay sorted ascending, so BFS over a DynamicGraph visits
/// nodes in the same canonical order as over an equivalent `Graph` — the
/// property every min-id tie-break in the library relies on. Dead nodes have
/// empty neighbor lists and are therefore unreachable; algorithms need no
/// per-visit liveness test.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "khop/common/types.hpp"
#include "khop/graph/graph.hpp"

namespace khop {

/// Mutable undirected simple graph over a fixed id space with a liveness
/// mask. Mutations are O(degree) (sorted-vector insert/erase), so a topology
/// event costs work proportional to the node's neighborhood, never to n.
class DynamicGraph {
 public:
  /// Starts from \p g with every node alive.
  explicit DynamicGraph(const Graph& g);

  /// Reassembles a graph from externally held state (snapshot restore):
  /// one sorted neighbor list per node plus the liveness mask. Validates the
  /// full structural invariant set via check_consistency and throws
  /// InvalidArgument on any violation, so corrupt persisted state can never
  /// become a live graph.
  static DynamicGraph from_state(std::vector<std::vector<NodeId>> adj,
                                 std::vector<char> alive);

  /// Size of the id space (alive + dead nodes). Named num_nodes so the BFS
  /// kernels can treat Graph and DynamicGraph uniformly.
  std::size_t num_nodes() const noexcept { return adj_.size(); }
  std::size_t capacity() const noexcept { return adj_.size(); }

  std::size_t num_alive() const noexcept { return num_alive_; }
  std::size_t num_edges() const noexcept { return num_edges_; }

  bool alive(NodeId u) const;

  /// Sorted neighbor list of \p u (empty for dead nodes).
  std::span<const NodeId> neighbors(NodeId u) const;

  std::size_t degree(NodeId u) const;

  /// True iff the undirected edge {u, v} exists. O(log deg(u)).
  bool has_edge(NodeId u, NodeId v) const;

  /// Removes \p u and all incident edges in place. Returns the node's former
  /// neighbors (the repair scope of the failure event).
  /// \pre alive(u)
  std::vector<NodeId> remove_node(NodeId u);

  /// Revives dead node \p u with links to \p nbrs. Every precondition is
  /// checked before the first edge is inserted, so a violation changes
  /// nothing.
  /// \pre !alive(u); nbrs alive, unique, != u
  void add_node(NodeId u, std::span<const NodeId> nbrs);

  /// Adds edge {u, v}. Returns false (no-op) if it already exists.
  /// \pre alive(u) && alive(v) && u != v
  bool add_edge(NodeId u, NodeId v);

  /// Removes edge {u, v}. Returns false (no-op) if it does not exist.
  /// \pre alive(u) && alive(v)
  bool remove_edge(NodeId u, NodeId v);

  /// Ascending ids of the alive nodes. O(capacity).
  std::vector<NodeId> alive_nodes() const;

  /// Immutable CSR copy over the full id space (dead nodes isolated). Used
  /// by the audit/oracle paths only — never by the incremental hot path.
  Graph snapshot() const;

  /// Structural self-check (adjacency sorted/symmetric, dead nodes isolated,
  /// counters consistent). Returns "" on success, else the first violation.
  std::string check_consistency() const;

 private:
  DynamicGraph() = default;  ///< from_state assembles the members directly

  std::vector<std::vector<NodeId>> adj_;  ///< sorted; empty for dead nodes
  std::vector<char> alive_;
  std::size_t num_alive_ = 0;
  std::size_t num_edges_ = 0;

  void check_node(NodeId u) const;
};

}  // namespace khop
