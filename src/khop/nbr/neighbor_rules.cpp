#include "khop/nbr/neighbor_rules.hpp"

#include <algorithm>

#include "khop/common/assert.hpp"
#include "khop/gateway/head_sweep.hpp"
#include "khop/runtime/thread_pool.hpp"
#include "khop/runtime/workspace.hpp"

namespace khop {

namespace {

using ClusterPair = std::pair<std::uint32_t, std::uint32_t>;

/// The nodes grouped by cluster (a counting sort on cluster_of): cluster
/// ci's members are members[offsets[ci], offsets[ci + 1]), ascending.
struct ClusterMembers {
  std::vector<std::size_t> offsets;
  std::vector<NodeId> members;

  ClusterMembers(const Graph& g, const Clustering& c) {
    KHOP_REQUIRE(c.cluster_of.size() == g.num_nodes(),
                 "clustering has no cluster_of for this graph");
    const std::size_t h = c.heads.size();
    offsets.assign(h + 1, 0);
    for (const std::uint32_t ci : c.cluster_of) {
      KHOP_REQUIRE(ci < h, "cluster_of names no cluster");
      ++offsets[ci + 1];
    }
    for (std::size_t ci = 0; ci < h; ++ci) offsets[ci + 1] += offsets[ci];
    // offsets[ci] doubles as cluster ci's fill cursor and ends at the start
    // of cluster ci + 1; shift back afterwards.
    members.resize(g.num_nodes());
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      members[offsets[c.cluster_of[u]]++] = u;
    }
    for (std::size_t ci = h; ci > 0; --ci) offsets[ci] = offsets[ci - 1];
    offsets[0] = 0;
  }
};

/// Writes to \p out, ascending, the clusters adjacent to cluster \p ci per
/// Definition 2: the clusters other than ci of its members' neighbors.
void adjacent_clusters(const Graph& g, const Clustering& c,
                       const ClusterMembers& cm, std::uint32_t ci,
                       std::vector<std::uint32_t>& out) {
  out.clear();
  for (std::size_t i = cm.offsets[ci]; i < cm.offsets[ci + 1]; ++i) {
    for (const NodeId y : g.neighbors(cm.members[i])) {
      const std::uint32_t cj = c.cluster_of[y];
      if (cj != ci) out.push_back(cj);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

/// A-NCR for clusters [begin, end): fills sel.selected[ci] with one
/// exact-size allocation and appends to \p pairs the head pairs (heads[ci],
/// heads[cj]), cj > ci. Heads ascend with their index, so the lists come out
/// sorted and the pairs in (u, v) order.
void select_ancr_range(const Graph& g, const Clustering& c,
                       const ClusterMembers& cm, std::size_t begin,
                       std::size_t end, std::vector<std::uint32_t>& scratch,
                       NeighborSelection& sel,
                       std::vector<std::pair<NodeId, NodeId>>& pairs) {
  for (auto ci = static_cast<std::uint32_t>(begin); ci < end; ++ci) {
    adjacent_clusters(g, c, cm, ci, scratch);
    std::vector<NodeId>& list = sel.selected[ci];
    list.reserve(scratch.size());
    for (const std::uint32_t cj : scratch) {
      list.push_back(c.heads[cj]);
      if (cj > ci) pairs.emplace_back(c.heads[ci], c.heads[cj]);
    }
  }
}

}  // namespace

std::vector<std::pair<std::uint32_t, std::uint32_t>> adjacent_cluster_pairs(
    const Graph& g, const Clustering& c) {
  const ClusterMembers cm(g, c);
  std::vector<ClusterPair> pairs;
  std::vector<std::uint32_t> adjacent;
  for (std::uint32_t ci = 0; ci < c.heads.size(); ++ci) {
    adjacent_clusters(g, c, cm, ci, adjacent);
    for (const std::uint32_t cj : adjacent) {
      if (cj > ci) pairs.emplace_back(ci, cj);
    }
  }
  return pairs;
}

namespace {

/// Canonicalizes a raw selection: sorts + uniques every selected list and
/// the head-pair closure (the Wu-Lou rule collects them unordered).
NeighborSelection finalize_selection(NeighborSelection sel) {
  for (auto& list : sel.selected) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  std::sort(sel.head_pairs.begin(), sel.head_pairs.end());
  sel.head_pairs.erase(
      std::unique(sel.head_pairs.begin(), sel.head_pairs.end()),
      sel.head_pairs.end());
  return sel;
}

/// A-NCR over every cluster, in blocks of clusters under \p exec. Blocks
/// write disjoint selected lists; their pair lists, concatenated in block
/// order, are the one-block list.
NeighborSelection select_ancr(const Graph& g, const Clustering& c,
                              const Exec& exec) {
  NeighborSelection sel;
  sel.rule = NeighborRule::kAdjacent;
  sel.selected.resize(c.heads.size());
  const ClusterMembers cm(g, c);
  sel.head_pairs = exec_concat<std::pair<NodeId, NodeId>>(
      exec, c.heads.size(),
      [&](std::size_t begin, std::size_t end, Workspace& ws,
          std::vector<std::pair<NodeId, NodeId>>& out) {
        select_ancr_range(g, c, cm, begin, end, ws.node_buf, sel, out);
      });
  return sel;
}

NeighborSelection select_wulou(const Graph& g, const Clustering& c,
                               Workspace& ws) {
  KHOP_REQUIRE(c.k == 1, "Wu-Lou 2.5-hop coverage is defined for k = 1");
  NeighborSelection sel;
  sel.rule = NeighborRule::kWuLou25;
  sel.selected.resize(c.heads.size());

  for (std::uint32_t i = 0; i < c.heads.size(); ++i) {
    const NodeId u = c.heads[i];
    ws.bfs.run(g, u, 3);
    // One pass over the <=2-hop prefix of the reached set marks every
    // cluster owning a member within 2 hops of u; the d == 3 coverage test
    // below is then O(1) instead of a rescan of the whole reached set per
    // candidate head pair.
    ws.flags.begin(c.heads.size());
    for (NodeId w : ws.bfs.reached_within(2)) ws.flags.set(c.cluster_of[w]);
    for (NodeId v : ws.bfs.reached()) {
      if (v == u || !c.is_head(v)) continue;
      if (ws.bfs.dist(v) == 3 && !ws.flags.test(c.cluster_of[v])) continue;
      sel.selected[i].push_back(v);
      sel.head_pairs.emplace_back(std::min(u, v), std::max(u, v));
    }
  }
  return finalize_selection(std::move(sel));
}

}  // namespace

NeighborSelection select_neighbors(const Graph& g, const Clustering& c,
                                   NeighborRule rule, Exec exec) {
  KHOP_REQUIRE(!c.heads.empty(), "clustering has no heads");
  KHOP_REQUIRE(c.cluster_of.size() == g.num_nodes(),
               "clustering has no cluster_of for this graph");
  switch (rule) {
    case NeighborRule::kAllWithin2k1:
      return nc_sweep(g, c, exec).sel;
    case NeighborRule::kAdjacent:
      return select_ancr(g, c, exec);
    case NeighborRule::kWuLou25:
      return select_wulou(g, c, *exec.ws);
  }
  KHOP_ASSERT(false, "unknown neighbor rule");
  return {};
}

}  // namespace khop
