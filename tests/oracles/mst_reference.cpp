#include "oracles/mst_reference.hpp"

#include "khop/common/assert.hpp"
#include "khop/common/error.hpp"

namespace khop {

std::vector<NodeId> prim_mst(
    std::size_t n, const std::vector<std::vector<WeightedEdge>>& adj,
    NodeId root) {
  KHOP_REQUIRE(adj.size() == n, "adjacency size mismatch");
  KHOP_REQUIRE(root < n, "root out of range");

  std::vector<bool> in_tree(n, false);
  std::vector<NodeId> parent(n, kInvalidNode);
  // best[v]: lightest edge connecting v to the tree, by edge_less order.
  std::vector<WeightedEdge> best(n);
  std::vector<bool> has_best(n, false);

  in_tree[root] = true;
  std::size_t tree_size = 1;
  for (const auto& e : adj[root]) {
    KHOP_ASSERT(e.u == root, "adjacency list edge must originate at its node");
    if (!has_best[e.v] || edge_less(e, best[e.v])) {
      best[e.v] = e;
      has_best[e.v] = true;
    }
  }

  // O(n^2) scan per step: the virtual graphs have at most a few dozen nodes,
  // so simplicity beats a heap here.
  while (tree_size < n) {
    NodeId pick = kInvalidNode;
    for (NodeId v = 0; v < n; ++v) {
      if (in_tree[v] || !has_best[v]) continue;
      if (pick == kInvalidNode || edge_less(best[v], best[pick])) pick = v;
    }
    if (pick == kInvalidNode) {
      throw NotConnected("prim_mst: graph is not connected");
    }
    in_tree[pick] = true;
    parent[pick] = best[pick].u;
    ++tree_size;
    for (const auto& e : adj[pick]) {
      KHOP_ASSERT(e.u == pick, "adjacency list edge must originate at its node");
      if (!in_tree[e.v] && (!has_best[e.v] || edge_less(e, best[e.v]))) {
        best[e.v] = e;
        has_best[e.v] = true;
      }
    }
  }
  return parent;
}

}  // namespace khop
