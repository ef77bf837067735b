#include "oracles/churn_reference.hpp"

#include <unordered_map>
#include <unordered_set>

#include "khop/cluster/clustering.hpp"
#include "khop/common/assert.hpp"
#include "khop/graph/bfs.hpp"

namespace khop {

ReferenceChurnMaintainer::ReferenceChurnMaintainer(const Graph& g0, Hops k,
                                                   Pipeline pipeline)
    : g_(g0), k_(k), pipeline_(pipeline) {
  const Clustering c = khop_clustering(g0, k, AffiliationRule::kIdBased);
  head_of_ = c.head_of;
  dist_ = c.dist_to_head;
}

std::vector<NodeId> ReferenceChurnMaintainer::heads() const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < g_.capacity(); ++v) {
    if (g_.alive(v) && head_of_[v] == v) out.push_back(v);
  }
  return out;
}

void ReferenceChurnMaintainer::apply(const ChurnEvent& e) {
  if (!apply_event(g_, e)) return;  // structural no-op
  if (e.type == ChurnEventType::kFail) {
    head_of_[e.a] = kInvalidNode;
    dist_[e.a] = kUnreachable;
  } else if (e.type == ChurnEventType::kJoin) {
    head_of_[e.a] = kInvalidNode;  // enters as an orphan
    dist_[e.a] = kUnreachable;
  }

  const Graph snap = g_.snapshot();
  const std::vector<NodeId> survivors = heads();
  const std::unordered_set<NodeId> survivor_set(survivors.begin(),
                                                survivors.end());

  // Exact member distances from every surviving head; members pushed beyond
  // k (or cut off entirely) become orphans. Policy step 1.
  std::vector<NodeId> orphans;
  std::unordered_map<NodeId, BfsTree> head_ball;
  for (NodeId h : survivors) head_ball[h] = bfs_bounded(snap, h, k_);
  for (NodeId v = 0; v < g_.capacity(); ++v) {
    if (!g_.alive(v)) continue;
    const NodeId h = head_of_[v];
    if (h == kInvalidNode || !survivor_set.contains(h)) {
      orphans.push_back(v);
      continue;
    }
    const Hops d = head_ball.at(h).dist[v];
    if (d == kUnreachable) {
      orphans.push_back(v);
    } else {
      dist_[v] = d;
    }
  }

  // Adoption: nearest surviving pre-event head within k, ties to the
  // smaller id. BfsScratch::reached() is level-ordered and ascending within
  // a level, so the first head found is the (distance, id) minimum.
  BfsScratch bfs;
  std::vector<NodeId> undecided;
  for (NodeId u : orphans) {
    bfs.run(snap, u, k_);
    NodeId adopted = kInvalidNode;
    for (NodeId w : bfs.reached()) {
      if (w != u && survivor_set.contains(w)) {
        adopted = w;
        break;
      }
    }
    if (adopted != kInvalidNode) {
      head_of_[u] = adopted;
      dist_[u] = bfs.dist(adopted);
    } else {
      head_of_[u] = kInvalidNode;
      undecided.push_back(u);
    }
  }

  // Iterative lowest-id election among the rest. Policy step 3.
  std::unordered_set<NodeId> undecided_set(undecided.begin(), undecided.end());
  while (!undecided.empty()) {
    std::vector<NodeId> winners;
    for (NodeId u : undecided) {
      bfs.run(snap, u, k_);
      bool wins = true;
      for (NodeId w : bfs.reached()) {
        if (w != u && w < u && undecided_set.contains(w)) {
          wins = false;
          break;
        }
      }
      if (wins) winners.push_back(u);
    }
    KHOP_ASSERT(!winners.empty(), "election round produced no winner");
    const std::unordered_set<NodeId> winner_set(winners.begin(),
                                                winners.end());
    for (NodeId w : winners) {
      head_of_[w] = w;
      dist_[w] = 0;
      undecided_set.erase(w);
    }
    std::vector<NodeId> next;
    for (NodeId u : undecided) {
      if (winner_set.contains(u)) continue;
      bfs.run(snap, u, k_);
      NodeId joined = kInvalidNode;
      for (NodeId w : bfs.reached()) {
        if (w != u && winner_set.contains(w)) {
          joined = w;
          break;
        }
      }
      if (joined != kInvalidNode) {
        head_of_[u] = joined;
        dist_[u] = bfs.dist(joined);
        undecided_set.erase(u);
      } else {
        next.push_back(u);
      }
    }
    undecided = std::move(next);
  }
}

}  // namespace khop
