/// \file clustering.hpp
/// The paper's k-hop clustering (section 3): iterative lowest-priority
/// election in k-hop neighborhoods, producing clusterheads that form a k-hop
/// independent set and a k-hop dominating set, plus non-overlapping member
/// assignments.
///
/// This is the centralized reference implementation; khop/sim runs the same
/// algorithm as an actual message-passing protocol, and the test suite
/// asserts both produce identical results.
#pragma once

#include <cstdint>
#include <vector>

#include "khop/cluster/priority.hpp"
#include "khop/common/types.hpp"
#include "khop/graph/graph.hpp"
#include "khop/runtime/exec.hpp"

namespace khop {

/// How a node that hears several clusterhead declarations picks its cluster
/// (paper section 3, options (1)-(3)).
enum class AffiliationRule : std::uint8_t {
  kIdBased,        ///< join the declaring head with the smallest id
  kDistanceBased,  ///< join the nearest declaring head (ties: smaller id)
  kSizeBased,      ///< join the currently smallest cluster (ties: distance,
                   ///< then id); greedy approximation of size balancing
};

/// Result of k-hop clustering. Clusters are non-overlapping: head_of is a
/// total function from nodes to heads.
struct Clustering {
  Hops k = 1;
  std::vector<NodeId> heads;       ///< ascending node ids
  std::vector<NodeId> head_of;     ///< node -> its clusterhead (self for heads)
  std::vector<Hops> dist_to_head;  ///< hop distance to own head (0 for heads)
  std::vector<std::uint32_t> cluster_of;  ///< node -> index into `heads`
  std::size_t election_rounds = 0;        ///< iterations until all joined

  bool is_head(NodeId v) const { return head_of[v] == v; }
  std::size_t num_clusters() const { return heads.size(); }

  /// Members of cluster \p c (including its head), ascending.
  std::vector<NodeId> cluster_members(std::uint32_t c) const;
};

/// Runs the iterative k-hop clustering over connected graph \p g.
/// \p priorities must be one key per node, lower = better. Equal keys are
/// allowed and neither node beats the other, so two tied nodes within k hops
/// that both win a round throw InvariantViolation.
/// \pre k >= 1; no key is NaN (checked: throws InvalidArgument);
///      g connected (checked: throws NotConnected)
///
/// The connectivity precondition is decided after the election, from the
/// cluster graph: every node lies within k hops of its head, so each cluster
/// sits inside one component of g, and g is connected iff the clusters are
/// joined by its edges (a union-find over the cluster indices and one pass
/// over the adjacency; no search over all n nodes). The error behaviour is
/// that of a check made first: a disconnected input throws NotConnected, also
/// when the election on it would trip an error of its own (a NaN key, tied
/// keys within k hops); only then is a full is_connected search run.
///
/// The election's priority-order and min-label sweep buffer, its round
/// lists (Workspace::election), and the declaring heads' k-bounded BFS runs
/// reuse \p ws (one workspace per thread; see khop/runtime/workspace.hpp);
/// the output does not depend on what \p ws held before.
///
/// Each round's declaration test runs k - 1 min-label passes over the whole
/// graph while many nodes are undecided. Once fewer than n/4 are, it keeps
/// the undecided nodes in an ascending list, pushes the passes from that
/// list into its (k-1)-balls, tests only the listed nodes and resets only
/// the labels it set, so a late round costs in proportion to the undecided
/// set and its balls, not to n.
///
/// Under kIdBased and kDistanceBased, members affiliate while the round's
/// winners search, in ascending winner order: the first claim on a node is
/// the id rule's pick, and the distance rule moves a claim only to a
/// strictly nearer head, so no declaration list is kept or sorted.
/// kSizeBased collects each round's declarations and affiliates them in
/// ascending node order, the order its greedy is defined in. cluster_of is
/// filled through a head -> index array in \p ws.
Clustering khop_clustering(const Graph& g, Hops k,
                           const std::vector<PriorityKey>& priorities,
                           AffiliationRule rule = AffiliationRule::kIdBased,
                           Workspace& ws = tls_workspace());

/// Convenience overload: lowest-ID priorities (the paper's configuration).
Clustering khop_clustering(const Graph& g, Hops k,
                           AffiliationRule rule = AffiliationRule::kIdBased);

}  // namespace khop
