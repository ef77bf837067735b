#include "oracles/cluster_reference.hpp"

#include <algorithm>
#include <map>
#include <tuple>

#include "khop/common/assert.hpp"
#include "khop/common/error.hpp"
#include "khop/graph/components.hpp"
#include "oracles/bfs_reference.hpp"

namespace khop::reference {

namespace {

/// Candidate head heard by an undecided node in the current round.
struct Candidate {
  NodeId head = kInvalidNode;
  Hops dist = kUnreachable;
};

NodeId pick_cluster(const std::vector<Candidate>& cands, AffiliationRule rule,
                    const std::vector<std::size_t>& cluster_sizes) {
  KHOP_ASSERT(!cands.empty(), "node heard no declarations");
  const Candidate* best = &cands.front();
  for (const Candidate& c : cands) {
    bool better = false;
    switch (rule) {
      case AffiliationRule::kIdBased:
        better = c.head < best->head;
        break;
      case AffiliationRule::kDistanceBased:
        better = std::tuple(c.dist, c.head) < std::tuple(best->dist, best->head);
        break;
      case AffiliationRule::kSizeBased:
        better = std::tuple(cluster_sizes[c.head], c.dist, c.head) <
                 std::tuple(cluster_sizes[best->head], best->dist, best->head);
        break;
    }
    if (better) best = &c;
  }
  return best->head;
}

}  // namespace

Clustering khop_clustering(const Graph& g, Hops k,
                           const std::vector<PriorityKey>& priorities,
                           AffiliationRule rule) {
  KHOP_REQUIRE(k >= 1, "k must be >= 1");
  KHOP_REQUIRE(priorities.size() == g.num_nodes(),
               "one priority key per node required");
  if (!is_connected(g)) {
    throw NotConnected("khop_clustering: input graph must be connected");
  }

  const std::size_t n = g.num_nodes();
  Clustering result;
  result.k = k;
  result.head_of.assign(n, kInvalidNode);
  result.dist_to_head.assign(n, kUnreachable);

  std::vector<bool> decided(n, false);
  std::size_t undecided_count = n;
  std::vector<std::size_t> cluster_sizes(n, 0);

  while (undecided_count > 0) {
    ++result.election_rounds;
    KHOP_ASSERT(result.election_rounds <= n, "election failed to make progress");

    std::vector<NodeId> winners;
    for (NodeId u = 0; u < n; ++u) {
      if (decided[u]) continue;
      const BfsTree ball = reference::bfs_bounded(g, u, k);
      bool best = true;
      for (NodeId v = 0; v < n && best; ++v) {
        if (v == u || decided[v] || ball.dist[v] == kUnreachable) continue;
        if (priorities[v] < priorities[u]) best = false;
      }
      if (best) winners.push_back(u);
    }
    KHOP_ASSERT(!winners.empty(), "no winner in a round");

    std::vector<std::vector<Candidate>> heard(n);
    for (NodeId w : winners) {
      decided[w] = true;
      --undecided_count;
      result.head_of[w] = w;
      result.dist_to_head[w] = 0;
      cluster_sizes[w] = 1;
      result.heads.push_back(w);

      const BfsTree ball = reference::bfs_bounded(g, w, k);
      for (NodeId v = 0; v < n; ++v) {
        if (decided[v] || ball.dist[v] == kUnreachable || v == w) continue;
        heard[v].push_back({w, ball.dist[v]});
      }
    }

    for (NodeId w : winners) {
      KHOP_ASSERT(heard[w].empty(), "two same-round winners within k hops");
    }

    for (NodeId v = 0; v < n; ++v) {
      if (decided[v] || heard[v].empty()) continue;
      const NodeId h = pick_cluster(heard[v], rule, cluster_sizes);
      decided[v] = true;
      --undecided_count;
      result.head_of[v] = h;
      result.dist_to_head[v] =
          std::find_if(heard[v].begin(), heard[v].end(),
                       [&](const Candidate& c) { return c.head == h; })
              ->dist;
      ++cluster_sizes[h];
    }
  }

  std::sort(result.heads.begin(), result.heads.end());
  result.cluster_of.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    const auto it = std::lower_bound(result.heads.begin(), result.heads.end(),
                                     result.head_of[v]);
    KHOP_ASSERT(it != result.heads.end() && *it == result.head_of[v],
                "head_of references a non-head");
    result.cluster_of[v] =
        static_cast<std::uint32_t>(std::distance(result.heads.begin(), it));
  }
  return result;
}

Clustering khop_core(const Graph& g, Hops k,
                     const std::vector<PriorityKey>& priorities) {
  KHOP_REQUIRE(k >= 1, "k must be >= 1");
  KHOP_REQUIRE(priorities.size() == g.num_nodes(),
               "one priority key per node required");
  if (!is_connected(g)) {
    throw NotConnected("khop_core: input graph must be connected");
  }

  const std::size_t n = g.num_nodes();
  Clustering result;
  result.k = k;
  result.election_rounds = 1;
  result.head_of.assign(n, kInvalidNode);
  result.dist_to_head.assign(n, kUnreachable);

  for (NodeId u = 0; u < n; ++u) {
    const BfsTree ball = reference::bfs_bounded(g, u, k);
    NodeId best = u;
    for (NodeId v = 0; v < n; ++v) {
      if (ball.dist[v] == kUnreachable) continue;
      if (priorities[v] < priorities[best]) best = v;
    }
    result.head_of[u] = best;
    result.dist_to_head[u] = ball.dist[best];
  }

  std::vector<bool> is_head(n, false);
  for (NodeId u = 0; u < n; ++u) is_head[result.head_of[u]] = true;
  for (NodeId u = 0; u < n; ++u) {
    if (is_head[u]) {
      result.head_of[u] = u;
      result.dist_to_head[u] = 0;
    }
  }
  for (NodeId u = 0; u < n; ++u) {
    if (is_head[u]) result.heads.push_back(u);
  }

  result.cluster_of.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    const auto it = std::lower_bound(result.heads.begin(), result.heads.end(),
                                     result.head_of[v]);
    KHOP_ASSERT(it != result.heads.end() && *it == result.head_of[v],
                "head_of references a non-head");
    result.cluster_of[v] =
        static_cast<std::uint32_t>(std::distance(result.heads.begin(), it));
  }
  return result;
}

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
  std::map<NodeId, BfsTree> ball_cache;
  const auto ball = [&](NodeId v) -> const BfsTree& {
    auto it = ball_cache.find(v);
    if (it == ball_cache.end()) {
      it = ball_cache.emplace(v, reference::bfs_bounded(g, v, k)).first;
    }
    return it->second;
  };

  for (NodeId seed = 0; seed < n; ++seed) {
    if (covered[seed]) continue;
    std::vector<NodeId> members{seed};
    const BfsTree& seed_ball = ball(seed);
    for (NodeId cand = 0; cand < n; ++cand) {
      if (cand == seed || seed_ball.dist[cand] == kUnreachable) continue;
      const BfsTree& cand_ball = ball(cand);
      bool fits = true;
      for (NodeId m : members) {
        if (cand_ball.dist[m] == kUnreachable || cand_ball.dist[m] > k) {
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

}  // namespace khop::reference
