#include "khop/cluster/clustering.hpp"

#include <algorithm>
#include <span>
#include <tuple>

#include "khop/cluster/min_label.hpp"
#include "khop/common/assert.hpp"
#include "khop/common/error.hpp"
#include "khop/graph/components.hpp"
#include "khop/obs/trace.hpp"
#include "khop/runtime/workspace.hpp"

namespace khop {

std::vector<NodeId> Clustering::cluster_members(std::uint32_t c) const {
  KHOP_REQUIRE(c < heads.size(), "cluster index out of range");
  std::vector<NodeId> out;
  for (NodeId v = 0; v < cluster_of.size(); ++v) {
    if (cluster_of[v] == c) out.push_back(v);
  }
  return out;
}

namespace {

/// One declaration heard this round under the size-based rule: undecided
/// node \p v heard head \p head at hop distance \p dist. The round's
/// declarations live in one flat vector (winner-major fill order, then
/// grouped by v).
struct Candidate {
  NodeId v = kInvalidNode;
  NodeId head = kInvalidNode;
  Hops dist = kUnreachable;
};

/// The size-based pick among one node's candidates: the currently smallest
/// cluster, ties broken by distance, then head id. \p cluster_sizes maps
/// head -> current member count.
const Candidate& pick_smallest(std::span<const Candidate> cands,
                               const std::vector<std::size_t>& cluster_sizes) {
  KHOP_ASSERT(!cands.empty(), "node heard no declarations");
  const Candidate* best = &cands.front();
  for (const Candidate& c : cands) {
    if (std::tuple(cluster_sizes[c.head], c.dist, c.head) <
        std::tuple(cluster_sizes[best->head], best->dist, best->head)) {
      best = &c;
    }
  }
  return *best;
}

/// The connected-input precondition, decided from a finished clustering: G
/// is connected iff its cluster graph is. Every node lies within k hops of
/// its head in G, so each cluster sits inside one component of G, and an
/// edge of G joins the components of its endpoints' clusters. One
/// union-find over the cluster indices and one pass over the adjacency
/// (each edge once, from its smaller end), which stops once every cluster
/// is joined.
bool clusters_connected(const Graph& g, const Clustering& c, UnionFind& uf) {
  const std::size_t h = c.heads.size();
  if (h <= 1) return true;
  uf.reset(h);
  std::size_t joins = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const std::uint32_t cu = c.cluster_of[u];
    for (NodeId v : g.neighbors(u)) {
      if (v < u) continue;
      const std::uint32_t cv = c.cluster_of[v];
      if (cv != cu && uf.unite(cu, cv) && ++joins == h - 1) return true;
    }
  }
  return false;
}

/// The sparse form of min_label_pass, for rounds with few undecided nodes:
/// pushes in[s] from every source s into its closed neighborhood in \p out,
/// which must hold kNoLabel on every node outside the sources' balls.
/// \p touched receives each node whose label the pass set, once.
void push_label_pass(const Graph& g, std::span<const std::uint32_t> in,
                     std::span<const NodeId> sources,
                     std::span<std::uint32_t> out,
                     std::vector<NodeId>& touched) {
  touched.clear();
  for (const NodeId s : sources) {
    const std::uint32_t l = in[s];
    const auto lower = [&](NodeId v) {
      if (l >= out[v]) return;
      if (out[v] == kNoLabel) touched.push_back(v);
      out[v] = l;
    };
    lower(s);
    for (const NodeId v : g.neighbors(s)) lower(v);
  }
}

[[noreturn]] void throw_not_connected() {
  throw NotConnected("khop_clustering: input graph must be connected");
}

/// The election itself; khop_clustering wraps it with the precondition.
Clustering elect(const Graph& g, Hops k,
                 const std::vector<PriorityKey>& priorities,
                 AffiliationRule rule, Workspace& ws) {
  obs::Span span("cluster/elect");

  const std::size_t n = g.num_nodes();
  Clustering result;
  result.k = k;
  result.head_of.assign(n, kInvalidNode);
  result.dist_to_head.assign(n, kUnreachable);

  // Dense priority ranks, equal keys sharing one, so `label < rank[u]` is
  // exactly the strict `priorities[v] < priorities[u]` test. A decided node's
  // rank becomes kNoLabel: it still relays the sweeps (distances are measured
  // in the full graph G) but never wins a minimum. The ranks live in
  // cluster_of, which is overwritten once the election is done.
  std::vector<std::uint32_t>& rank = result.cluster_of;
  rank.resize(n);
  std::vector<NodeId>& order = ws.node_buf;
  priority_order(priorities, order);
  for (std::size_t i = 0, r = 0; i < n; ++i) {
    if (i > 0 && priorities[order[i - 1]] < priorities[order[i]]) ++r;
    rank[order[i]] = static_cast<std::uint32_t>(r);
  }
  // Sweep buffers: the order buffer, free again, and for k >= 3 a second one
  // to alternate with (the first pass reads the ranks directly).
  const std::span<std::uint32_t> sweep_a{order.data(), n};
  std::vector<std::uint32_t> sweep_b(k >= 3 ? n : 0);
  std::size_t undecided = n;
  // cluster_sizes[head]: members assigned so far (head included). Only the
  // size-based rule reads it; the other rules skip the O(n) array entirely.
  std::vector<std::size_t> cluster_sizes;
  if (rule == AffiliationRule::kSizeBased) cluster_sizes.assign(n, 0);
  const auto decided = [&](NodeId v) { return rank[v] == kNoLabel; };
  const auto decide = [&](NodeId v, NodeId head, Hops dist) {
    result.head_of[v] = head;
    result.dist_to_head[v] = dist;
    rank[v] = kNoLabel;
    if (rule == AffiliationRule::kSizeBased) ++cluster_sizes[head];
    --undecided;
  };

  // Round-scoped buffers, reused across rounds (and calls, in ws).
  std::vector<NodeId>& winners = ws.election.winners;
  std::vector<NodeId>& claimed = ws.election.claimed;
  std::vector<Candidate> declared;

  // Once fewer than n/4 nodes are undecided, phase A works from the
  // ascending undecided list instead of all n nodes: the sweep buffers hold
  // kNoLabel except where this round's pushes set a label, and only those
  // entries are reset after the winner test.
  std::vector<NodeId>& active = ws.election.undecided;
  bool sparse = false;

  while (undecided > 0) {
    ++result.election_rounds;
    KHOP_ASSERT(result.election_rounds <= n, "election failed to make progress");
    if (sparse) {
      std::erase_if(active, decided);
    } else if (undecided < n / 4) {
      sparse = true;
      active.clear();
      for (NodeId v = 0; v < n; ++v) {
        if (!decided(v)) active.push_back(v);
      }
      std::fill(sweep_a.begin(), sweep_a.end(), kNoLabel);
      std::fill(sweep_b.begin(), sweep_b.end(), kNoLabel);
    }

    // Phase A - declaration: an undecided node wins iff it holds the best
    // priority among *undecided* nodes within its k-hop neighborhood, i.e.
    // iff the minimum rank over its closed k-ball is its own. k - 1 min-label
    // passes leave the minimum over each (k-1)-ball in `label`; the k-th
    // pass is folded into the winner test, which needs it only at undecided
    // nodes and stops at the first better neighbor.
    std::span<const std::uint32_t> label = rank;
    const auto wins = [&](NodeId u) {
      if (label[u] < rank[u]) return false;
      const auto nbrs = g.neighbors(u);
      return std::all_of(nbrs.begin(), nbrs.end(),
                         [&](NodeId v) { return label[v] >= rank[u]; });
    };
    winners.clear();
    if (!sparse) {
      for (Hops i = 1; i < k; ++i) {
        const std::span<std::uint32_t> out =
            i % 2 == 1 ? sweep_a : std::span<std::uint32_t>(sweep_b);
        const bool dropped = min_label_pass(g, label, out);
        label = out;
        if (!dropped) break;
      }
      for (NodeId u = 0; u < n; ++u) {
        if (!decided(u) && wins(u)) winners.push_back(u);
      }
    } else {
      // Pass i pushes from the nodes pass i - 1 set (the undecided list
      // first) into the buffer pass i - 2 wrote, whose labels lie on those
      // same nodes, so clearing them first leaves it all kNoLabel. Unlike
      // the dense passes these never stop early: labels stop dropping only
      // once a ball spans its whole component, and every component holds a
      // head, which is more than k hops from each undecided node.
      std::span<const NodeId> sources = active;
      std::vector<NodeId>* touched = &ws.election.frontier;
      std::vector<NodeId>* spare = &ws.election.frontier_next;
      for (Hops i = 1; i < k; ++i) {
        const std::span<std::uint32_t> out =
            i % 2 == 1 ? sweep_a : std::span<std::uint32_t>(sweep_b);
        if (i >= 3) {
          for (const NodeId v : sources) out[v] = kNoLabel;
        }
        push_label_pass(g, label, sources, out, *touched);
        label = out;
        sources = *touched;
        std::swap(touched, spare);
      }
      for (const NodeId u : active) {
        if (wins(u)) winners.push_back(u);
      }
      // The last pass set labels on `sources`, a superset of the nodes the
      // pass before it set in the other buffer.
      if (k >= 2) {
        for (const NodeId v : sources) {
          sweep_a[v] = kNoLabel;
          if (k >= 3) sweep_b[v] = kNoLabel;
        }
      }
    }
    KHOP_ASSERT(!winners.empty(), "no winner in a round");

    if (rule != AffiliationRule::kSizeBased) {
      // Phase B - winners declare, and undecided nodes within k hops
      // affiliate as the declarations arrive. Every winner is marked (head
      // of itself, rank untouched) before any searches, so a search that
      // reaches another same-round winner is caught: same-round winners
      // must be mutually > k hops apart, otherwise one would have seen the
      // other's better priority. Winners search in ascending id order, so
      // the first claim on a node is the id rule's pick; the distance rule
      // moves a claim only to a strictly nearer head.
      for (NodeId w : winners) {
        result.head_of[w] = w;
        result.dist_to_head[w] = 0;
      }
      claimed.clear();
      for (NodeId w : winners) {
        ws.bfs.run(g, w, k);
        for (NodeId v : ws.bfs.reached()) {
          if (v == w || decided(v)) continue;
          const NodeId h = result.head_of[v];
          KHOP_ASSERT(h != v, "two same-round winners within k hops");
          const Hops d = ws.bfs.dist(v);
          if (h == kInvalidNode) {
            claimed.push_back(v);
          } else if (rule == AffiliationRule::kIdBased ||
                     d >= result.dist_to_head[v]) {
            continue;  // the earlier claim stands
          }
          result.head_of[v] = w;
          result.dist_to_head[v] = d;
        }
      }
      for (NodeId w : winners) decide(w, w, 0);
      result.heads.insert(result.heads.end(), winners.begin(), winners.end());
      for (NodeId v : claimed) {
        decide(v, result.head_of[v], result.dist_to_head[v]);
      }
      continue;
    }

    // Size-based rule. Phase B - winners declare; undecided nodes within k
    // hops collect the declarations they hear this round, filled
    // winner-major (ascending winner id) into the flat `declared` vector.
    declared.clear();
    for (NodeId w : winners) {
      decide(w, w, 0);
      result.heads.push_back(w);

      ws.bfs.run(g, w, k);
      for (NodeId v : ws.bfs.reached()) {
        if (decided(v)) continue;
        declared.push_back({v, w, ws.bfs.dist(v)});
      }
    }

    // Phase C - affiliation, grouped by ascending node id (the order that
    // keeps the size-based greedy deterministic). Inside a group, heads
    // ascend in winner order — the order the reference's per-node heard[v]
    // lists accumulate them in — so sorting by (v, head) needs no stable
    // merge buffer.
    std::sort(declared.begin(), declared.end(),
              [](const Candidate& a, const Candidate& b) {
                return std::tie(a.v, a.head) < std::tie(b.v, b.head);
              });
    std::size_t i = 0;
    while (i < declared.size()) {
      const NodeId v = declared[i].v;
      std::size_t j = i;
      while (j < declared.size() && declared[j].v == v) ++j;
      // No declaration may target an already-decided node — at this point,
      // exactly the winners.
      KHOP_ASSERT(!decided(v), "two same-round winners within k hops");
      const Candidate& pick = pick_smallest({declared.data() + i, j - i},
                                            cluster_sizes);
      decide(v, pick.head, pick.dist);
      i = j;
    }
  }

  // cluster_of through a head -> cluster index array in the order buffer,
  // which the election no longer needs.
  std::sort(result.heads.begin(), result.heads.end());
  std::vector<NodeId>& index_of = ws.node_buf;
  std::fill_n(index_of.begin(), n, kInvalidNode);
  for (std::size_t i = 0; i < result.heads.size(); ++i) {
    index_of[result.heads[i]] = static_cast<NodeId>(i);
  }
  for (NodeId v = 0; v < n; ++v) {
    const NodeId h = result.head_of[v];
    KHOP_ASSERT(h < n && index_of[h] != kInvalidNode,
                "head_of references a non-head");
    result.cluster_of[v] = index_of[h];
  }
  span.arg("rounds", static_cast<std::int64_t>(result.election_rounds));
  span.arg("heads", static_cast<std::int64_t>(result.heads.size()));
  return result;
}

}  // namespace

Clustering khop_clustering(const Graph& g, Hops k,
                           const std::vector<PriorityKey>& priorities,
                           AffiliationRule rule, Workspace& ws) {
  KHOP_REQUIRE(k >= 1, "k must be >= 1");
  KHOP_REQUIRE(priorities.size() == g.num_nodes(),
               "one priority key per node required");
  Clustering result;
  try {
    result = elect(g, k, priorities, rule, ws);
  } catch (const Error&) {
    // The precondition comes first: a disconnected input reports
    // NotConnected whatever else it trips (a NaN key, tied keys within k
    // hops).
    if (!is_connected(g)) throw_not_connected();
    throw;
  }
  if (!clusters_connected(g, result, ws.uf)) throw_not_connected();
  return result;
}

Clustering khop_clustering(const Graph& g, Hops k, AffiliationRule rule) {
  return khop_clustering(g, k, make_priorities(g, PriorityRule::kLowestId),
                         rule);
}

}  // namespace khop
