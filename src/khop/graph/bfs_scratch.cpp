#include "khop/graph/bfs_scratch.hpp"

#include <algorithm>
#include <limits>

#include "khop/common/assert.hpp"
#include "khop/graph/dynamic_graph.hpp"
#include "khop/obs/metrics.hpp"
#include "khop/obs/telemetry.hpp"

namespace khop {

namespace {

// A level switches to bottom-up expansion once its frontier holds at least
// n / kDenseFrontierDivisor nodes. The cutover is a pure cost heuristic: both
// directions compute the identical level (see expand_bottom_up), so the
// threshold affects wall time only, never output.
constexpr std::size_t kDenseFrontierDivisor = 8;
// Below this the bitset bookkeeping costs more than it saves; tiny graphs
// always expand top-down.
constexpr std::size_t kDenseMinNodes = 128;

obs::Histogram& frontier_size_hist() {
  // Name resolution takes the registry mutex; do it once per process (the
  // instrument address is stable for the registry's lifetime).
  static obs::Histogram& h =
      obs::Registry::global().histogram("bfs.frontier_size");
  return h;
}

}  // namespace

void BfsScratch::begin(std::size_t n) {
  if (stamp_.size() < n) {
    stamp_.resize(n, 0);
    dist_.resize(n);
    parent_.resize(n);
  }
  if (epoch_ == std::numeric_limits<std::uint8_t>::max()) {
    // Epoch wrap: stale stamps could alias the new epoch, so clear them once
    // every 255 runs (amortized O(n/255) per run).
    std::fill(stamp_.begin(), stamp_.end(), std::uint8_t{0});
    epoch_ = 0;
  }
  ++epoch_;
  reached_.clear();
  level_end_.clear();
}

bool BfsScratch::settle_target(NodeId v) {
  const auto it = std::remove(pending_.begin(), pending_.end(), v);
  if (it == pending_.end()) return false;
  pending_.erase(it, pending_.end());
  return pending_.empty();
}

template <bool kToTargets, typename GraphT>
bool BfsScratch::expand_bottom_up(const GraphT& g, std::size_t lvl_begin,
                                  std::size_t lvl_end, Hops level) {
  const std::size_t n = g.num_nodes();
  if (frontier_bits_.size() < (n + 63) / 64) {
    frontier_bits_.assign((n + 63) / 64, 0);
  }
  for (std::size_t i = lvl_begin; i < lvl_end; ++i) {
    const NodeId u = reached_[i];
    frontier_bits_[u >> 6] |= std::uint64_t{1} << (u & 63);
  }
  // Bit-exactness vs the top-down direction: a node v first reachable at
  // distance level+1 has, among its neighbors, only nodes at distance level
  // (the frontier) or level+1 or level+2 (both unvisited so far). Its
  // canonical top-down parent is the minimum-id frontier neighbor (the
  // frontier span is sorted ascending, so the smallest-id frontier member
  // adjacent to v stamps it first). Scanning v's *sorted* adjacency and
  // taking the first frontier hit yields exactly that node. Appending v in
  // the ascending v-scan order reproduces the sorted level order the
  // top-down direction gets from its tail sort.
  bool done = false;
  for (NodeId v = 0; v < static_cast<NodeId>(n) && !done; ++v) {
    if (stamp_[v] == epoch_) continue;
    for (NodeId u : g.neighbors(v)) {
      if ((frontier_bits_[u >> 6] >> (u & 63)) & 1u) {
        stamp_[v] = epoch_;
        dist_[v] = level + 1;
        parent_[v] = u;
        reached_.push_back(v);
        if constexpr (kToTargets) done = settle_target(v);
        break;
      }
    }
  }
  for (std::size_t i = lvl_begin; i < lvl_end; ++i) {
    const NodeId u = reached_[i];
    frontier_bits_[u >> 6] &= ~(std::uint64_t{1} << (u & 63));
  }
  return done;
}

template <bool kToTargets, typename GraphT>
void BfsScratch::run_any(const GraphT& g, NodeId source, Hops max_hops) {
  KHOP_REQUIRE(source < g.num_nodes(), "BFS source out of range");
  const std::size_t n = g.num_nodes();
  begin(n);
  source_ = source;
  stamp_[source] = epoch_;
  dist_[source] = 0;
  parent_[source] = kInvalidNode;
  reached_.push_back(source);
  level_end_.push_back(reached_.size());
  if (kToTargets && pending_.empty()) return;

  const bool telemetry_on = obs::enabled();
  std::size_t lvl_begin = 0;
  std::size_t lvl_end = reached_.size();
  Hops level = 0;
  while (lvl_begin < lvl_end && level < max_hops) {
    const std::size_t frontier_size = lvl_end - lvl_begin;
    if (telemetry_on) frontier_size_hist().record(frontier_size);
    if (n >= kDenseMinNodes && frontier_size * kDenseFrontierDivisor >= n) {
      if (expand_bottom_up<kToTargets>(g, lvl_begin, lvl_end, level)) {
        level_end_.push_back(reached_.size());
        return;
      }
    } else {
      for (std::size_t i = lvl_begin; i < lvl_end; ++i) {
        const NodeId u = reached_[i];
        for (NodeId v : g.neighbors(u)) {
          if (stamp_[v] != epoch_) {
            stamp_[v] = epoch_;
            dist_[v] = level + 1;
            parent_[v] = u;
            reached_.push_back(v);
            if constexpr (kToTargets) {
              // Every stamped node's parent is final: stop mid-level.
              if (settle_target(v)) {
                level_end_.push_back(reached_.size());
                return;
              }
            }
          }
        }
      }
      // Keep each level ascending: with sorted adjacency this preserves the
      // canonical min-id parent guarantee for the next level (see bfs.cpp).
      std::sort(reached_.begin() + static_cast<std::ptrdiff_t>(lvl_end),
                reached_.end());
    }
    if (reached_.size() > lvl_end) level_end_.push_back(reached_.size());
    lvl_begin = lvl_end;
    lvl_end = reached_.size();
    ++level;
  }
}

void BfsScratch::run(const Graph& g, NodeId source, Hops max_hops) {
  run_any<false>(g, source, max_hops);
}

void BfsScratch::run(const DynamicGraph& g, NodeId source, Hops max_hops) {
  KHOP_REQUIRE(g.alive(source), "BFS source must be alive");
  run_any<false>(g, source, max_hops);
}

void BfsScratch::run_to_targets(const Graph& g, NodeId source, Hops max_hops,
                                std::span<const NodeId> targets) {
  pending_.clear();
  for (NodeId t : targets) {
    KHOP_REQUIRE(t < g.num_nodes(), "BFS target out of range");
    if (t != source) pending_.push_back(t);
  }
  run_any<true>(g, source, max_hops);
}

std::size_t BfsScratch::run_cover(const Graph& g,
                                  std::span<const NodeId> seeds,
                                  Hops max_hops) {
  const std::size_t n = g.num_nodes();
  begin(n);
  source_ = kInvalidNode;
  for (NodeId s : seeds) {
    KHOP_REQUIRE(s < n, "seed out of range");
    if (stamp_[s] == epoch_) continue;
    stamp_[s] = epoch_;
    dist_[s] = 0;
    reached_.push_back(s);
  }
  if (!reached_.empty()) level_end_.push_back(reached_.size());

  // Coverage needs only the set of nodes at each level, which both
  // directions compute; no parent, owner or level order is kept.
  const bool telemetry_on = obs::enabled();
  std::size_t lvl_begin = 0;
  std::size_t lvl_end = reached_.size();
  Hops level = 0;
  while (lvl_begin < lvl_end && level < max_hops) {
    const std::size_t frontier_size = lvl_end - lvl_begin;
    if (telemetry_on) frontier_size_hist().record(frontier_size);
    if (n >= kDenseMinNodes && frontier_size * kDenseFrontierDivisor >= n) {
      expand_bottom_up<false>(g, lvl_begin, lvl_end, level);
    } else {
      for (std::size_t i = lvl_begin; i < lvl_end; ++i) {
        for (NodeId v : g.neighbors(reached_[i])) {
          if (stamp_[v] != epoch_) {
            stamp_[v] = epoch_;
            dist_[v] = level + 1;
            reached_.push_back(v);
          }
        }
      }
    }
    if (reached_.size() > lvl_end) level_end_.push_back(reached_.size());
    lvl_begin = lvl_end;
    lvl_end = reached_.size();
    ++level;
  }
  return reached_.size();
}

void BfsScratch::run_multi(const Graph& g, std::span<const NodeId> seeds) {
  begin(g.num_nodes());
  source_ = kInvalidNode;
  for (NodeId s : seeds) {
    KHOP_REQUIRE(s < g.num_nodes(), "seed out of range");
    stamp_[s] = epoch_;
    dist_[s] = 0;
    parent_[s] = s;  // owner
    reached_.push_back(s);
  }
  std::sort(reached_.begin(), reached_.end());
  if (!reached_.empty()) level_end_.push_back(reached_.size());

  // Owner propagation stays top-down at every density: the min-owner
  // tie-break below must see *all* frontier neighbors of a node, which the
  // first-hit bottom-up scan cannot provide.
  const bool telemetry_on = obs::enabled();
  std::size_t lvl_begin = 0;
  std::size_t lvl_end = reached_.size();
  Hops level = 0;
  while (lvl_begin < lvl_end) {
    if (telemetry_on) frontier_size_hist().record(lvl_end - lvl_begin);
    for (std::size_t i = lvl_begin; i < lvl_end; ++i) {
      const NodeId u = reached_[i];
      for (NodeId v : g.neighbors(u)) {
        if (stamp_[v] != epoch_) {
          stamp_[v] = epoch_;
          dist_[v] = level + 1;
          parent_[v] = parent_[u];
          reached_.push_back(v);
        } else if (dist_[v] == level + 1 && parent_[u] < parent_[v]) {
          // Same level, smaller owning seed wins (deterministic tie-break).
          parent_[v] = parent_[u];
        }
      }
    }
    std::sort(reached_.begin() + static_cast<std::ptrdiff_t>(lvl_end),
              reached_.end());
    if (reached_.size() > lvl_end) level_end_.push_back(reached_.size());
    lvl_begin = lvl_end;
    lvl_end = reached_.size();
    ++level;
  }
}

std::vector<NodeId> BfsScratch::extract_path(NodeId target) const {
  std::vector<NodeId> path;
  append_path(target, path);
  return path;
}

void BfsScratch::append_path(NodeId target, std::vector<NodeId>& out) const {
  KHOP_REQUIRE(target < stamp_.size(), "path target out of range");
  const Hops d = dist(target);
  KHOP_REQUIRE(d != kUnreachable, "target unreachable from BFS source");
  const std::size_t first = out.size();
  out.resize(first + d + 1);
  NodeId v = target;
  for (std::size_t i = first + d + 1; i-- > first;) {
    out[i] = v;
    v = parent(v);
  }
  KHOP_ASSERT(out[first] == source_ && v == kInvalidNode,
              "path does not start at source");
}

}  // namespace khop
