#include "khop/cluster/core_variant.hpp"

#include <algorithm>
#include <span>

#include "khop/cluster/min_label.hpp"
#include "khop/common/assert.hpp"
#include "khop/common/error.hpp"
#include "khop/graph/components.hpp"
#include "khop/runtime/workspace.hpp"

namespace khop {

Clustering khop_core(const Graph& g, Hops k,
                     const std::vector<PriorityKey>& priorities,
                     Workspace& ws) {
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
  result.dist_to_head.assign(n, 0);

  // Ranks are positions in (priority, id) order, so a label names its node.
  // After pass i, label[u] is the best rank in u's closed i-ball; labels
  // only shrink, so the pass that last lowered it is the hop distance to
  // that node. The labels live in cluster_of until it is filled below.
  std::vector<NodeId>& order = ws.node_buf;
  priority_order(priorities, order);
  result.cluster_of.resize(n);
  std::vector<std::uint32_t> sweep_buf(n);
  std::span<std::uint32_t> cur{result.cluster_of.data(), n};
  std::span<std::uint32_t> nxt{sweep_buf.data(), n};
  for (std::size_t i = 0; i < n; ++i) {
    cur[order[i]] = static_cast<std::uint32_t>(i);
  }
  for (Hops i = 1; i <= k; ++i) {
    if (!min_label_pass(g, cur, nxt)) break;
    for (NodeId u = 0; u < n; ++u) {
      if (nxt[u] < cur[u]) result.dist_to_head[u] = i;
    }
    std::swap(cur, nxt);
  }
  for (NodeId u = 0; u < n; ++u) {
    const NodeId best = order[cur[u]];
    // u keeps itself unless someone is strictly better (the reference's
    // strict `<` scan); among equal keys the label picks the smallest id,
    // the reference's ascending-scan choice.
    if (priorities[best] < priorities[u]) {
      result.head_of[u] = best;
    } else {
      result.head_of[u] = u;
      result.dist_to_head[u] = 0;
    }
  }

  // Heads are exactly the designated nodes. A designated node always
  // designates itself: anyone it prefers within its own k-ball would also be
  // visible (within 2k hops) to... not necessarily to the designator - so we
  // normalize: designated nodes become heads of themselves.
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

Clustering khop_core(const Graph& g, Hops k) {
  return khop_core(g, k, make_priorities(g, PriorityRule::kLowestId));
}

}  // namespace khop
