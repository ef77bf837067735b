/// \file graph.hpp
/// Immutable undirected graph in compressed-sparse-row form.
///
/// All khop algorithms operate on this structure. Neighbor lists are sorted
/// by node id, which gives deterministic iteration order (the basis for the
/// library-wide canonical tie-breaking) and O(log d) edge queries.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "khop/common/types.hpp"
#include "khop/runtime/exec.hpp"

namespace khop {

/// Immutable undirected simple graph (no self-loops, no multi-edges).
class Graph {
 public:
  /// Empty graph with \p n isolated vertices.
  explicit Graph(std::size_t n = 0);

  /// Builds from an undirected edge list. Duplicate edges and self-loops are
  /// rejected (InvalidArgument), endpoints must be < n.
  static Graph from_edges(std::size_t n,
                          std::span<const std::pair<NodeId, NodeId>> edges);

  /// Adopts pre-built CSR arrays (the streamed generation path emits these
  /// directly, skipping the O(m) edge-pair intermediate of from_edges).
  /// Validates the full Graph invariant before adopting: offsets monotone
  /// with offsets[0] == 0 and offsets[n] == adjacency.size(), every row
  /// strictly ascending (catches duplicates), no self-loops, and symmetric
  /// (v in row(u) iff u in row(v)). Throws InvalidArgument otherwise.
  /// Symmetry costs one search per undirected edge: each upper entry v > u
  /// of row u is looked up in row v, and the upper entries must be exactly
  /// half the adjacency, which makes their mirrors all the lower entries.
  /// A missing mirror of a lower entry is therefore reported only after
  /// every row passed its own checks. The O(n) offset checks run on the
  /// calling thread, the per-row checks (range, self-loop, ascending,
  /// symmetry) over row blocks on exec.pool when it is set: a malformed
  /// input throws the same exception, message included, at any block
  /// count, the lowest failing row's. Reads only exec.pool.
  static Graph from_csr(std::vector<std::size_t> offsets,
                        std::vector<NodeId> adjacency, Exec exec = {});

  /// Number of vertices.
  std::size_t num_nodes() const noexcept { return offsets_.size() - 1; }

  /// Number of undirected edges.
  std::size_t num_edges() const noexcept { return adjacency_.size() / 2; }

  /// Sorted neighbor list of \p u.
  std::span<const NodeId> neighbors(NodeId u) const;

  /// Degree of \p u.
  std::size_t degree(NodeId u) const;

  /// True iff the undirected edge {u, v} exists. O(log deg(u)).
  bool has_edge(NodeId u, NodeId v) const;

  /// All undirected edges as (min, max) pairs, sorted lexicographically.
  std::vector<std::pair<NodeId, NodeId>> edge_list() const;

  /// Returns a copy of this graph with node \p u isolated (all incident
  /// edges removed). Used by the dynamics module to model node failure while
  /// keeping ids stable.
  Graph without_node(NodeId u) const;

 private:
  std::vector<std::size_t> offsets_;  // size n+1
  std::vector<NodeId> adjacency_;     // grouped by source, each group sorted

  void check_node(NodeId u) const;

  /// from_csr's header and offset checks; adopts the arrays with their
  /// rows not yet checked.
  static Graph adopt_csr(std::vector<std::size_t> offsets,
                         std::vector<NodeId> adjacency);
  /// from_csr's checks of row \p u; throws InvalidArgument on a violation.
  /// Only the upper entries (v > u) are searched for their mirror; returns
  /// their number for check_csr_upper_count.
  std::size_t check_csr_row(NodeId u) const;
  /// from_csr's symmetry check of the lower entries: throws unless the
  /// rows' upper entries, \p upper in all, are half the adjacency.
  void check_csr_upper_count(std::size_t upper) const;
};

}  // namespace khop
