/// \file validate.hpp
/// Invariant checkers for clustering results. Used by property tests and by
/// the dynamics module after local repairs.
#pragma once

#include <string>

#include "khop/cluster/clustering.hpp"

namespace khop {

/// What to verify.
struct ClusteringChecks {
  bool require_khop_independent_heads = true;  ///< cluster algorithm only
  bool require_khop_dominating = true;
  bool require_total_membership = true;
  bool require_distance_consistency = true;  ///< dist_to_head == BFS distance
};

/// Returns an empty string when all requested invariants hold; otherwise a
/// human-readable description of the first violation. Malformed input (a
/// head or cluster index out of range) is a violation, never UB.
///
/// Cost: one BfsScratch search per head, bounded at the horizon max(k, max
/// recorded dist_to_head). Within that horizon every check is decided
/// exactly: a node is consistent iff its own head's search reaches it at its
/// recorded distance (each node is matched exactly once), and two heads are
/// within k iff one lies in the other's k-ball. Only when that pass finds
/// a violation (or a recorded distance is kUnreachable) does the unbounded
/// per-head BFS run, to word the first violation. The bounded searches
/// reuse \p ws.bfs and ws.flags.
std::string validate_clustering(const Graph& g, const Clustering& c,
                                const ClusteringChecks& checks = {},
                                Workspace& ws = tls_workspace());

}  // namespace khop
