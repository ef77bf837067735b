#include "khop/cluster/validate.hpp"

#include <algorithm>
#include <sstream>

#include "khop/graph/bfs.hpp"
#include "khop/runtime/workspace.hpp"

namespace khop {

namespace {

/// The checks that need no search: vector sizes, membership and head
/// indices. Every index the searches below use is in range once this
/// returns "".
std::string index_violation(const Graph& g, const Clustering& c,
                            const ClusteringChecks& checks) {
  const std::size_t n = g.num_nodes();
  if (c.head_of.size() != n || c.dist_to_head.size() != n ||
      c.cluster_of.size() != n) {
    return "clustering vectors are not sized to the graph";
  }
  std::ostringstream err;
  if (checks.require_total_membership) {
    for (NodeId v = 0; v < n; ++v) {
      if (c.head_of[v] == kInvalidNode) {
        err << "node " << v << " belongs to no cluster";
        return err.str();
      }
      if (c.cluster_of[v] >= c.heads.size() ||
          c.heads[c.cluster_of[v]] != c.head_of[v]) {
        err << "node " << v << " has inconsistent cluster index";
        return err.str();
      }
    }
  }
  for (NodeId h : c.heads) {
    if (h >= n) {
      err << "head " << h << " is not a node";
      return err.str();
    }
    if (checks.require_total_membership && c.head_of[h] != h) {
      err << "head " << h << " is not its own head";
      return err.str();
    }
  }
  return {};
}

/// The search checks with one unbounded BFS tree per head. Runs only after
/// the bounded pass below found (or could not rule out) a violation, and
/// words the first one. \pre index_violation() returned ""
std::string search_violation(const Graph& g, const Clustering& c,
                             const ClusteringChecks& checks) {
  const std::size_t n = g.num_nodes();
  std::ostringstream err;
  std::vector<BfsTree> head_trees;
  head_trees.reserve(c.heads.size());
  for (NodeId h : c.heads) head_trees.push_back(bfs(g, h));

  if (checks.require_distance_consistency) {
    for (NodeId v = 0; v < n; ++v) {
      if (c.cluster_of[v] >= c.heads.size()) {
        err << "node " << v << " has inconsistent cluster index";
        return err.str();
      }
      const auto& tree = head_trees[c.cluster_of[v]];
      if (tree.dist[v] != c.dist_to_head[v]) {
        err << "node " << v << " records distance " << c.dist_to_head[v]
            << " to head " << c.head_of[v] << " but BFS says " << tree.dist[v];
        return err.str();
      }
    }
  }

  if (checks.require_khop_dominating) {
    for (NodeId v = 0; v < n; ++v) {
      if (c.dist_to_head[v] > c.k) {
        err << "node " << v << " is " << c.dist_to_head[v]
            << " hops from its head; k = " << c.k;
        return err.str();
      }
    }
  }

  if (checks.require_khop_independent_heads) {
    for (std::size_t i = 0; i < c.heads.size(); ++i) {
      for (std::size_t j = i + 1; j < c.heads.size(); ++j) {
        const Hops d = head_trees[i].dist[c.heads[j]];
        if (d <= c.k) {
          err << "heads " << c.heads[i] << " and " << c.heads[j]
              << " are only " << d << " hops apart; k = " << c.k;
          return err.str();
        }
      }
    }
  }

  return {};
}

/// True only if search_violation() would return ""; false sends the caller
/// to it. Each head's search stops at horizon = max(k, max recorded
/// dist_to_head): a recorded distance d <= horizon equals the true one iff
/// the bounded search reaches the node at d, and heads within k hops lie
/// inside the horizon too. \pre index_violation() returned ""
bool holds_bounded(const Graph& g, const Clustering& c,
                   const ClusteringChecks& checks, Workspace& ws) {
  const std::size_t n = g.num_nodes();
  Hops horizon = c.k;
  for (const Hops d : c.dist_to_head) horizon = std::max(horizon, d);
  if (checks.require_khop_dominating && horizon > c.k) return false;
  const bool consistency = checks.require_distance_consistency;
  const bool independence = checks.require_khop_independent_heads;
  if (!consistency && !independence) return true;
  // A recorded kUnreachable matches an unreached node only in an unbounded
  // search; leave that corner to the unbounded validator.
  if (horizon == kUnreachable) return false;

  // Head marks for the independence scan; a repeated head is 0 hops from
  // itself, which the pairwise check reports.
  if (independence) {
    ws.flags.begin(n);
    for (NodeId h : c.heads) {
      if (ws.flags.test(h)) return false;
      ws.flags.set(h);
    }
  }

  std::size_t matched = 0;  // nodes whose own head's search confirms them
  for (std::uint32_t i = 0; i < c.heads.size(); ++i) {
    const NodeId h = c.heads[i];
    ws.bfs.run(g, h, horizon);
    if (consistency) {
      for (const NodeId v : ws.bfs.reached()) {
        if (c.cluster_of[v] == i && ws.bfs.dist(v) == c.dist_to_head[v]) {
          ++matched;
        }
      }
    }
    if (independence) {
      for (const NodeId w : ws.bfs.reached_within(c.k)) {
        if (w != h && ws.flags.test(w)) return false;
      }
    }
  }
  // Each node can only be matched in its own cluster's search, once.
  return !consistency || matched == n;
}

}  // namespace

std::string validate_clustering(const Graph& g, const Clustering& c,
                                const ClusteringChecks& checks,
                                Workspace& ws) {
  std::string err = index_violation(g, c, checks);
  if (!err.empty() || holds_bounded(g, c, checks, ws)) return err;
  return search_violation(g, c, checks);
}

}  // namespace khop
