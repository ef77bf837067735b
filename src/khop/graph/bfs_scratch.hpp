/// \file bfs_scratch.hpp
/// Reusable scratch state for the BFS kernels: epoch-stamped visited marks
/// plus distance/parent/frontier buffers that survive across runs.
///
/// Why: the clustering pipeline performs thousands of bounded BFS runs per
/// topology, and each allocating run pays two O(n) array fills plus several
/// heap allocations even when it only visits a few dozen nodes. A BfsScratch
/// amortizes the buffers across runs and replaces the O(n) clears with an
/// epoch bump, so a bounded run costs O(visited + visited edges) only.
///
/// Layout (the million-node rewrite): visited marks are one *byte* per node
/// (4x less mark traffic than the former uint32 stamps; the 255-epoch wrap
/// costs one O(n) clear every 255 runs, amortized to O(n/255) per run), and
/// the level frontiers live directly inside reached_ — each level is a
/// contiguous [begin, end) span of the flat array, so there is no separate
/// frontier/next double buffer to copy between. Sparse levels expand
/// top-down (scan the frontier span, stamp unseen neighbors, sort the
/// appended tail); dense levels (>= 1/8 of the graph) switch to a bottom-up
/// scan over all unvisited nodes against a word-packed frontier bitset,
/// which turns the random scatter of frontier expansion into a sequential
/// sweep. Both directions produce bit-identical output (see bfs_scratch.cpp
/// for the argument); the allocating BFS in tests/oracles/bfs_reference.hpp
/// remains the oracle.
///
/// Contract:
///  * One run at a time: calling any run_* invalidates the previous run's
///    query results (the epoch advances).
///  * Not thread-safe: one BfsScratch per thread (see Workspace /
///    tls_workspace() in khop/runtime/workspace.hpp).
///  * dist()/parent()/owner() queries are valid for any v < num_nodes of the
///    graph given to the last run.
///  * Early stop: run_to_targets() ends once its last target is stamped, so
///    reached() is partial for that run; every stamped node's dist() and
///    parent() are still the full run's.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "khop/common/types.hpp"
#include "khop/graph/graph.hpp"

namespace khop {

class DynamicGraph;

class BfsScratch {
 public:
  /// Bounded single-source BFS with canonical (min-id) parents; equivalent
  /// to bfs_bounded(g, source, max_hops) but touching only reached nodes.
  /// Pass kUnreachable as \p max_hops for an unbounded run.
  void run(const Graph& g, NodeId source, Hops max_hops);

  /// The same canonical bounded BFS over a mutable DynamicGraph (the churn
  /// layer's topology). Neighbor lists are sorted in both graph types, so a
  /// run here is bit-identical to a run over DynamicGraph::snapshot(). Dead
  /// nodes are isolated and therefore never reached.
  /// \pre g.alive(source)
  void run(const DynamicGraph& g, NodeId source, Hops max_hops);

  /// The canonical bounded BFS of run(g, source, max_hops), stopped as soon
  /// as every node of \p targets is stamped, which may be in the middle of a
  /// level. A node's first stamp already fixes its min-id parent (each level
  /// expands in ascending order, top-down and bottom-up alike), so dist(),
  /// parent() and extract_path() of every stamped node — each target among
  /// them — equal those of the full run. reached() is partial for this run:
  /// it ends wherever the last target was stamped, and that last level is
  /// not sorted. A target beyond \p max_hops is simply not stamped.
  /// \pre every target < g.num_nodes() (throws InvalidArgument)
  void run_to_targets(const Graph& g, NodeId source, Hops max_hops,
                      std::span<const NodeId> targets);

  /// Multi-source BFS; equivalent to multi_source_bfs(g, seeds). After this
  /// run owner() is meaningful and parent() must not be used.
  void run_multi(const Graph& g, std::span<const NodeId> seeds);

  /// Multi-source coverage sweep: stamps every node within \p max_hops of a
  /// seed and returns how many distinct nodes that is. It keeps no owners and
  /// does not sort its levels, so it costs one bounded sweep and nothing
  /// more. Afterwards dist() and reached() are valid (reached() level by
  /// level, unordered within a level); parent() and owner() must not be
  /// used.
  std::size_t run_cover(const Graph& g, std::span<const NodeId> seeds,
                        Hops max_hops);

  /// Hop distance of \p v from the last run's source(s); kUnreachable if the
  /// run did not reach v.
  Hops dist(NodeId v) const noexcept {
    return stamp_[v] == epoch_ ? dist_[v] : kUnreachable;
  }

  /// Canonical parent of \p v in the last single-source run (kInvalidNode at
  /// the source and at unreached nodes).
  NodeId parent(NodeId v) const noexcept {
    return stamp_[v] == epoch_ ? parent_[v] : kInvalidNode;
  }

  /// Owning seed of \p v after run_multi (kInvalidNode if unreached).
  NodeId owner(NodeId v) const noexcept { return parent(v); }

  /// Every node the last run reached (sources included), in visit order:
  /// level by level, ascending id within each level. Exceptions: after
  /// run_cover the levels are unordered, and after run_to_targets the last
  /// level is cut short and unsorted.
  std::span<const NodeId> reached() const noexcept { return reached_; }

  /// The nodes of the last run at distance <= \p d: a prefix of reached()
  /// (levels are contiguous), so scans bounded by distance pay only for the
  /// nodes they look at. d past the last level returns all of reached().
  std::span<const NodeId> reached_within(Hops d) const noexcept {
    if (d >= level_end_.size()) return reached_;
    return {reached_.data(), level_end_[d]};
  }

  /// Source of the last single-source run.
  NodeId source() const noexcept { return source_; }

  /// Canonical shortest path source -> target from the last single-source
  /// run, both endpoints included. \pre dist(target) != kUnreachable
  std::vector<NodeId> extract_path(NodeId target) const;

  /// extract_path appended to \p out (dist(target) + 1 nodes, written back
  /// to front along the parent chain), so callers that keep many paths in
  /// one buffer make no allocation per path.
  void append_path(NodeId target, std::vector<NodeId>& out) const;

 private:
  /// Grows the per-node arrays to \p n and opens a fresh epoch.
  void begin(std::size_t n);

  /// Shared body of the single-source runs; GraphT needs num_nodes() and
  /// sorted neighbors(u). With kToTargets the run stops once pending_ (the
  /// unstamped targets) is empty. Defined in the .cpp and instantiated there.
  template <bool kToTargets, typename GraphT>
  void run_any(const GraphT& g, NodeId source, Hops max_hops);

  /// Bottom-up expansion of one dense level: every unvisited node scans its
  /// (sorted) adjacency for a member of the current frontier, whose
  /// membership is looked up in the word-packed frontier_bits_ set. Returns
  /// true when kToTargets and the level stamped the last pending target (the
  /// scan stops there).
  template <bool kToTargets, typename GraphT>
  bool expand_bottom_up(const GraphT& g, std::size_t lvl_begin,
                        std::size_t lvl_end, Hops level);

  /// Removes \p v from pending_ if it is a target; true once none is left.
  bool settle_target(NodeId v);

  std::uint8_t epoch_ = 0;
  std::vector<std::uint8_t> stamp_;  ///< stamp_[v] == epoch_ <=> v visited
  std::vector<Hops> dist_;
  std::vector<NodeId> parent_;  ///< parent (single-source) or owner (multi)
  std::vector<NodeId> reached_;  ///< doubles as flat frontier storage
  std::vector<std::size_t> level_end_;  ///< level_end_[d] = #reached at <= d
  std::vector<std::uint64_t> frontier_bits_;  ///< dense-level membership set
  std::vector<NodeId> pending_;  ///< run_to_targets: targets not yet stamped
  NodeId source_ = kInvalidNode;
};

}  // namespace khop
