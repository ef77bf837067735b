/// \file workspace.hpp
/// Shared reusable-scratch subsystem for the hot paths across graph, cluster,
/// gateway, sim and exp layers.
///
/// A Workspace bundles every per-thread scratch structure the pipeline
/// kernels need, so one object threaded through a call tree eliminates all
/// transient heap allocation. The API contract:
///
///  * Epoch invalidation - scratch results (BfsScratch queries, EpochFlags
///    generations) are valid only until the next kernel call that reuses
///    the same workspace. Kernels never hold workspace-backed views across
///    calls; their outputs are plain owned containers.
///  * Thread affinity - a Workspace is NOT thread-safe. Use one per thread;
///    tls_workspace() (runtime/exec.hpp) hands out a lazily-created
///    thread-local instance. It is the default of every stage's trailing
///    Exec or Workspace& parameter, and what each pool worker and
///    run_trials hand their blocks and trials.
///  * Growth only - buffers grow to the largest graph seen and are retained,
///    so steady-state reuse is allocation-free.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "khop/common/types.hpp"
#include "khop/graph/bfs_scratch.hpp"
#include "khop/graph/spatial_grid.hpp"
#include "khop/graph/union_find.hpp"
#include "khop/runtime/exec.hpp"

namespace khop {

/// Epoch-stamped boolean set over dense indices: set/test are O(1) and
/// begin() clears in O(1) amortized (no per-generation fill). Backs the
/// per-cluster coverage marks of the Wu-Lou neighbor rule.
class EpochFlags {
 public:
  /// Opens a fresh (all-false) generation over indices [0, n).
  void begin(std::size_t n) {
    if (stamp_.size() < n) stamp_.resize(n, 0);
    if (epoch_ == std::numeric_limits<std::uint32_t>::max()) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 0;
    }
    ++epoch_;
  }

  void set(std::size_t i) noexcept { stamp_[i] = epoch_; }
  bool test(std::size_t i) const noexcept { return stamp_[i] == epoch_; }

 private:
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> stamp_;
};

/// LMSTGA's selected-pair distance table (gateway/lmst.cpp): row r holds
/// (b, hops), b ascending, for every selected pair (a, b) whose smaller
/// endpoint a is heads[r], i.e. the cluster index cluster_of[a]. Entry i
/// is canonical pair i; its keep flags record whether a, and whether b,
/// keeps the link (two arrays, so the blocks that set them never share a
/// byte).
struct PairHopRows {
  std::vector<std::size_t> offsets;
  std::vector<std::pair<NodeId, Hops>> entries;
  std::vector<std::uint8_t> kept_by_smaller;
  std::vector<std::uint8_t> kept_by_larger;
  /// Sorted, deduplicated copy of a non-canonical head_pairs input.
  std::vector<std::pair<NodeId, NodeId>> canonical;
};

/// khop_clustering's round lists: each round's winners and claimed
/// members, and for its active-set rounds the ascending undecided list and
/// the two frontiers its label pushes alternate between.
struct ElectionLists {
  std::vector<NodeId> winners;
  std::vector<NodeId> claimed;
  std::vector<NodeId> undecided;
  std::vector<NodeId> frontier;
  std::vector<NodeId> frontier_next;
};

/// The per-thread scratch bundle threaded through the hot paths.
struct Workspace {
  /// Primary BFS scratch (clustering election, neighbor rules, floods).
  BfsScratch bfs;
  /// Secondary scratch for kernels that interleave two BFS result sets.
  BfsScratch bfs2;
  /// Epoch-stamped flag set (neighbor-rule coverage marks).
  EpochFlags flags;
  /// General-purpose node id buffer.
  std::vector<NodeId> node_buf;
  /// Spatial grid reused across topology builds (Monte-Carlo trials of one
  /// configuration rebuild it in place instead of re-allocating).
  SpatialGrid grid;
  /// Connectivity-first placement test (generate_network): the union-find
  /// over the grid's pairs and the upper rows recorded in the same walk.
  /// khop_clustering reuses the union-find, over cluster indices, for its
  /// connected-input check.
  UnionFind uf;
  UpperRows upper_rows;
  /// The pair table lmst_gateways builds once per call.
  PairHopRows lmst_pairs;
  /// The election's per-round lists (khop_clustering).
  ElectionLists election;
  /// One byte per node id, zero between calls: the gateway marks of the
  /// backbone combiners (gateway/gateway_set.hpp).
  std::vector<std::uint8_t> gateway_marks;
};

}  // namespace khop
