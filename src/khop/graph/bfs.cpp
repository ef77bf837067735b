#include "khop/graph/bfs.hpp"

#include <algorithm>

#include "khop/common/assert.hpp"

namespace khop {

namespace {

/// Per-thread scratch backing the allocating convenience signatures, so that
/// legacy call sites stop paying per-call frontier/mark allocations without
/// any signature change. Thread-local keeps them safe under parallel_for.
BfsScratch& wrapper_scratch() {
  thread_local BfsScratch ws;
  return ws;
}

}  // namespace

void bfs_into(const Graph& g, NodeId source, BfsScratch& ws, BfsTree& out) {
  bfs_bounded_into(g, source, kUnreachable, ws, out);
}

void bfs_bounded_into(const Graph& g, NodeId source, Hops max_hops,
                      BfsScratch& ws, BfsTree& out) {
  ws.run(g, source, max_hops);
  out.source = source;
  out.dist.assign(g.num_nodes(), kUnreachable);
  out.parent.assign(g.num_nodes(), kInvalidNode);
  for (NodeId v : ws.reached()) {
    out.dist[v] = ws.dist(v);
    out.parent[v] = ws.parent(v);
  }
}

void k_hop_neighborhood_into(const Graph& g, NodeId source, Hops k,
                             BfsScratch& ws, std::vector<NodeId>& out) {
  ws.run(g, source, k);
  out.clear();
  // reached() is level-ordered and includes the source; the contract is
  // ascending ids without the source.
  for (NodeId v : ws.reached()) {
    if (v != source) out.push_back(v);
  }
  std::sort(out.begin(), out.end());
}

void multi_source_bfs_into(const Graph& g, const std::vector<NodeId>& seeds,
                           BfsScratch& ws, MultiSourceBfs& out) {
  ws.run_multi(g, seeds);
  out.dist.assign(g.num_nodes(), kUnreachable);
  out.owner.assign(g.num_nodes(), kInvalidNode);
  for (NodeId v : ws.reached()) {
    out.dist[v] = ws.dist(v);
    out.owner[v] = ws.owner(v);
  }
}

BfsTree bfs(const Graph& g, NodeId source) {
  BfsTree t;
  bfs_into(g, source, wrapper_scratch(), t);
  return t;
}

BfsTree bfs_bounded(const Graph& g, NodeId source, Hops max_hops) {
  BfsTree t;
  bfs_bounded_into(g, source, max_hops, wrapper_scratch(), t);
  return t;
}

std::vector<NodeId> k_hop_neighborhood(const Graph& g, NodeId source, Hops k) {
  std::vector<NodeId> out;
  k_hop_neighborhood_into(g, source, k, wrapper_scratch(), out);
  return out;
}

std::vector<NodeId> extract_path(const BfsTree& tree, NodeId target) {
  KHOP_REQUIRE(target < tree.dist.size(), "path target out of range");
  KHOP_REQUIRE(tree.dist[target] != kUnreachable,
               "target unreachable from BFS source");
  std::vector<NodeId> path;
  for (NodeId v = target; v != kInvalidNode; v = tree.parent[v]) {
    path.push_back(v);
  }
  std::reverse(path.begin(), path.end());
  KHOP_ASSERT(path.front() == tree.source, "path does not start at source");
  return path;
}

MultiSourceBfs multi_source_bfs(const Graph& g,
                                const std::vector<NodeId>& seeds) {
  MultiSourceBfs r;
  multi_source_bfs_into(g, seeds, wrapper_scratch(), r);
  return r;
}

}  // namespace khop
