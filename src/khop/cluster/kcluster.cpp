#include "khop/cluster/kcluster.hpp"

#include <algorithm>
#include <sstream>

#include "khop/common/assert.hpp"
#include "khop/common/error.hpp"
#include "khop/graph/bfs.hpp"
#include "khop/graph/bfs_scratch.hpp"
#include "khop/graph/components.hpp"

namespace khop {

KClusterCover krishna_kclusters(const Graph& g, Hops k) {
  KHOP_REQUIRE(k >= 1, "k must be >= 1");
  if (!is_connected(g)) {
    throw NotConnected("krishna_kclusters: input graph must be connected");
  }

  const std::size_t n = g.num_nodes();
  KClusterCover cover;
  cover.k = k;
  cover.clusters_of.resize(n);

  std::vector<bool> covered(n, false);
  // Ball cache for this call: row v, once filled (n entries), is v's full
  // k-bounded distance row - O(1) lookup and no BfsTree parent arrays. It
  // is O(n^2) words, so it is never kept past the call.
  BfsScratch bfs;
  std::vector<std::vector<Hops>> balls(n);
  const auto ball = [&](NodeId v) -> const std::vector<Hops>& {
    std::vector<Hops>& row = balls[v];
    if (row.empty()) {
      bfs.run(g, v, k);
      row.assign(n, kUnreachable);
      for (NodeId r : bfs.reached()) row[r] = bfs.dist(r);
    }
    return row;
  };

  for (NodeId seed = 0; seed < n; ++seed) {
    if (covered[seed]) continue;
    std::vector<NodeId> members{seed};
    const std::vector<Hops>& seed_ball = ball(seed);
    for (NodeId cand = 0; cand < n; ++cand) {
      if (cand == seed || seed_ball[cand] == kUnreachable) continue;
      // cand joins iff it is within k of every current member.
      const std::vector<Hops>& cand_ball = ball(cand);
      bool fits = true;
      for (NodeId m : members) {
        if (cand_ball[m] == kUnreachable || cand_ball[m] > k) {
          fits = false;
          break;
        }
      }
      if (fits) members.push_back(cand);
    }
    std::sort(members.begin(), members.end());
    const auto cluster_id = static_cast<std::uint32_t>(cover.clusters.size());
    for (NodeId m : members) {
      covered[m] = true;
      cover.clusters_of[m].push_back(cluster_id);
    }
    cover.clusters.push_back(std::move(members));
  }
  return cover;
}

std::string validate_kcluster_cover(const Graph& g, const KClusterCover& c) {
  std::ostringstream err;
  if (c.clusters_of.size() != g.num_nodes()) {
    return "cover index not sized to the graph";
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (c.clusters_of[v].empty()) {
      err << "node " << v << " is uncovered";
      return err.str();
    }
    for (std::uint32_t idx : c.clusters_of[v]) {
      if (idx >= c.clusters.size() ||
          !std::binary_search(c.clusters[idx].begin(), c.clusters[idx].end(),
                              v)) {
        err << "node " << v << " has a dangling cluster reference";
        return err.str();
      }
    }
  }
  for (std::uint32_t i = 0; i < c.clusters.size(); ++i) {
    const auto& members = c.clusters[i];
    for (NodeId m : members) {
      const BfsTree t = bfs_bounded(g, m, c.k);
      for (NodeId other : members) {
        if (other == m) continue;
        if (t.dist[other] == kUnreachable || t.dist[other] > c.k) {
          err << "cluster " << i << ": members " << m << " and " << other
              << " are more than " << c.k << " hops apart";
          return err.str();
        }
      }
    }
  }
  return {};
}

}  // namespace khop
