#include "khop/nbr/neighbor_rules.hpp"

#include <algorithm>

#include "khop/common/assert.hpp"
#include "khop/runtime/thread_pool.hpp"
#include "khop/runtime/workspace.hpp"

namespace khop {

namespace {

using ClusterPair = std::pair<std::uint32_t, std::uint32_t>;

/// Appends the cluster-index pair (min, max) of every cross-cluster edge
/// {u, v}, u < v, with u in [begin, end); then sorts and dedupes \p out.
void cross_cluster_pairs(const Graph& g, const Clustering& c,
                         std::size_t begin, std::size_t end,
                         std::vector<ClusterPair>& out) {
  for (auto u = static_cast<NodeId>(begin); u < end; ++u) {
    const std::uint32_t cu = c.cluster_of[u];
    for (NodeId v : g.neighbors(u)) {
      if (u >= v) continue;
      const std::uint32_t cv = c.cluster_of[v];
      if (cu != cv) out.emplace_back(std::min(cu, cv), std::max(cu, cv));
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

}  // namespace

std::vector<std::pair<std::uint32_t, std::uint32_t>> adjacent_cluster_pairs(
    const Graph& g, const Clustering& c) {
  // Flat vector + sort/unique instead of a std::set: this sits on the AC
  // pipeline and ANCR protocol hot path, and the cross-edge stream is cheap
  // to buffer (<= m entries) but expensive to feed through a red-black tree.
  std::vector<ClusterPair> pairs;
  cross_cluster_pairs(g, c, 0, g.num_nodes(), pairs);
  return pairs;
}

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

namespace {

NeighborSelection select_nc(const Graph& g, const Clustering& c,
                            Workspace& ws) {
  NeighborSelection sel;
  sel.rule = NeighborRule::kAllWithin2k1;
  sel.selected.resize(c.heads.size());
  const Hops horizon = 2 * c.k + 1;
  for (std::uint32_t i = 0; i < c.heads.size(); ++i) {
    const NodeId u = c.heads[i];
    ws.bfs.run(g, u, horizon);
    // Scan the sweep's reached set for heads (is_head is an O(1) lookup)
    // instead of probing all H heads: per head the cost is O(|reached|),
    // not O(H).
    for (NodeId w : ws.bfs.reached()) {
      if (w == u || !c.is_head(w)) continue;
      sel.selected[i].push_back(w);
      sel.head_pairs.emplace_back(std::min(u, w), std::max(u, w));
    }
  }
  return finalize_selection(std::move(sel));
}

NeighborSelection select_ancr(const Clustering& c,
                              const std::vector<ClusterPair>& adjacent) {
  NeighborSelection sel;
  sel.rule = NeighborRule::kAdjacent;
  sel.selected.resize(c.heads.size());
  for (const auto& [ci, cj] : adjacent) {
    const NodeId hi = c.heads[ci];
    const NodeId hj = c.heads[cj];
    sel.selected[ci].push_back(hj);
    sel.selected[cj].push_back(hi);
    sel.head_pairs.emplace_back(std::min(hi, hj), std::max(hi, hj));
  }
  return finalize_selection(std::move(sel));
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
                                   NeighborRule rule, Workspace& ws) {
  KHOP_REQUIRE(!c.heads.empty(), "clustering has no heads");
  KHOP_REQUIRE(c.cluster_of.size() == g.num_nodes(),
               "clustering has no cluster_of for this graph");
  switch (rule) {
    case NeighborRule::kAllWithin2k1:
      return select_nc(g, c, ws);
    case NeighborRule::kAdjacent:
      return select_ancr(c, adjacent_cluster_pairs(g, c));
    case NeighborRule::kWuLou25:
      return select_wulou(g, c, ws);
  }
  KHOP_ASSERT(false, "unknown neighbor rule");
  return {};
}

NeighborSelection select_neighbors(const Graph& g, const Clustering& c,
                                   NeighborRule rule) {
  return select_neighbors(g, c, rule, tls_workspace());
}

NeighborSelection select_neighbors(const Graph& g, const Clustering& c,
                                   NeighborRule rule, ThreadPool& pool) {
  if (rule != NeighborRule::kAdjacent) {
    return select_neighbors(g, c, rule, tls_workspace());
  }
  KHOP_REQUIRE(!c.heads.empty(), "clustering has no heads");
  KHOP_REQUIRE(c.cluster_of.size() == g.num_nodes(),
               "clustering has no cluster_of for this graph");
  // Each block collects, sorts and dedupes the pairs of its node range; the
  // merge sorts and dedupes again, which yields the serial pair list.
  std::vector<ClusterPair> pairs = parallel_concat<ClusterPair>(
      pool, g.num_nodes(),
      [&](std::size_t begin, std::size_t end, std::vector<ClusterPair>& out) {
        cross_cluster_pairs(g, c, begin, end, out);
      });
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return select_ancr(c, pairs);
}

}  // namespace khop
