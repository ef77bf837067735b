#include "khop/dynamic/churn_trace.hpp"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "khop/common/assert.hpp"
#include "khop/common/rng.hpp"
#include "khop/graph/bfs_scratch.hpp"

namespace khop {

namespace {

/// True iff \p ids repeats a value. O(d) on the sorted lists traces emit.
bool has_duplicate(const std::vector<NodeId>& ids) {
  if (std::is_sorted(ids.begin(), ids.end())) {
    return std::adjacent_find(ids.begin(), ids.end()) != ids.end();
  }
  std::vector<NodeId> sorted(ids);
  std::sort(sorted.begin(), sorted.end());
  return std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
}

}  // namespace

void check_event(const DynamicGraph& g, const ChurnEvent& e) {
  const std::size_t n = g.capacity();
  KHOP_REQUIRE(e.a < n, "churn event node id out of range");
  switch (e.type) {
    case ChurnEventType::kFail:
      KHOP_REQUIRE(g.alive(e.a), "failure event names a dead node");
      return;
    case ChurnEventType::kJoin:
      KHOP_REQUIRE(!g.alive(e.a), "join event names an alive node");
      for (NodeId w : e.neighbors) {
        KHOP_REQUIRE(w < n, "join neighbor id out of range");
        KHOP_REQUIRE(w != e.a, "join neighbor names the joining node");
        KHOP_REQUIRE(g.alive(w), "join neighbor must be alive");
      }
      KHOP_REQUIRE(!has_duplicate(e.neighbors), "duplicate join neighbor");
      return;
    case ChurnEventType::kLinkDown:
    case ChurnEventType::kLinkUp:
      KHOP_REQUIRE(e.b < n, "churn event node id out of range");
      KHOP_REQUIRE(e.a != e.b, "link event is a self-link");
      KHOP_REQUIRE(g.alive(e.a) && g.alive(e.b),
                   "link event endpoints must be alive");
      return;
  }
  KHOP_REQUIRE(false, "unknown churn event type");
}

bool apply_event(DynamicGraph& g, const ChurnEvent& e) {
  check_event(g, e);
  switch (e.type) {
    case ChurnEventType::kFail:
      g.remove_node(e.a);
      return true;
    case ChurnEventType::kJoin:
      g.add_node(e.a, e.neighbors);
      return true;
    case ChurnEventType::kLinkDown:
      return g.remove_edge(e.a, e.b);
    case ChurnEventType::kLinkUp:
      return g.add_edge(e.a, e.b);
  }
  KHOP_ASSERT(false, "unknown churn event type");
  return false;
}

namespace {

/// Draws a uniformly random element of a non-empty vector.
NodeId pick(const std::vector<NodeId>& v, Rng& rng) {
  return v[rng.uniform_int(v.size())];
}

ChurnEvent link_event(ChurnEventType type, NodeId x, NodeId y) {
  ChurnEvent e;
  e.type = type;
  e.a = std::min(x, y);
  e.b = std::max(x, y);
  return e;
}

/// Stateful generator: draws events while mirroring them on a DynamicGraph
/// so every emitted event is valid when replayed.
class TraceBuilder {
 public:
  TraceBuilder(const Graph& g0, const ChurnTraceConfig& cfg, std::uint64_t seed)
      : cfg_(cfg), g_(g0), rng_(seed) {
    for (NodeId u = 0; u < g_.capacity(); ++u) alive_.push_back(u);
  }

  std::vector<ChurnEvent> build() {
    std::vector<ChurnEvent> events;
    events.reserve(cfg_.num_events);
    std::size_t background_emitted = 0;
    while (events.size() < cfg_.num_events) {
      if (scripted_.empty()) {
        if (cfg_.burst_at != ChurnTraceConfig::kNoScenario &&
            !burst_done_ && background_emitted >= cfg_.burst_at) {
          script_ball_failure(cfg_.burst_radius, /*schedule_rejoin=*/false);
          burst_done_ = true;
        } else if (cfg_.partition_at != ChurnTraceConfig::kNoScenario &&
                   !partition_done_ &&
                   background_emitted >= cfg_.partition_at) {
          script_ring_failure(cfg_.partition_radius);
          partition_done_ = true;
        }
      }
      if (!scripted_.empty()) {
        ChurnEvent e = std::move(scripted_.front());
        scripted_.pop_front();
        const bool emitted = emit(std::move(e), events);
        if (scripted_.empty() && !rejoin_queue_.empty() &&
            rejoin_due_ == kUnset) {
          rejoin_due_ = background_emitted + cfg_.rejoin_after;
        }
        if (!emitted) continue;
      } else {
        if (!emit_background(events)) break;  // graph too degenerate
        ++background_emitted;
        if (!rejoin_queue_.empty() && background_emitted >= rejoin_due_) {
          script_rejoin();
        }
      }
    }
    return events;
  }

 private:
  /// Validates and applies \p e, then appends it. Scripted events can go
  /// stale (e.g. a ring node already killed by background churn) — those are
  /// dropped, not emitted.
  bool emit(ChurnEvent e, std::vector<ChurnEvent>& events) {
    switch (e.type) {
      case ChurnEventType::kFail: {
        if (!g_.alive(e.a)) return false;
        // Remember the links for a potential scripted rejoin later.
        const auto nbrs = g_.neighbors(e.a);
        former_neighbors_[e.a].assign(nbrs.begin(), nbrs.end());
        break;
      }
      case ChurnEventType::kJoin: {
        if (g_.alive(e.a)) return false;
        std::erase_if(e.neighbors, [&](NodeId w) { return !g_.alive(w); });
        if (e.neighbors.empty()) return false;
        break;
      }
      case ChurnEventType::kLinkDown:
        if (!g_.alive(e.a) || !g_.alive(e.b) || !g_.has_edge(e.a, e.b)) {
          return false;
        }
        break;
      case ChurnEventType::kLinkUp:
        if (!g_.alive(e.a) || !g_.alive(e.b) || g_.has_edge(e.a, e.b)) {
          return false;
        }
        break;
    }
    apply_event(g_, e);
    refresh_pools(e);
    events.push_back(std::move(e));
    return true;
  }

  void refresh_pools(const ChurnEvent& e) {
    if (e.type == ChurnEventType::kFail) {
      std::erase(alive_, e.a);
      dead_.push_back(e.a);
    } else if (e.type == ChurnEventType::kJoin) {
      std::erase(dead_, e.a);
      const auto it = std::lower_bound(alive_.begin(), alive_.end(), e.a);
      alive_.insert(it, e.a);
    }
  }

  /// One background event drawn from the configured mix. Returns false only
  /// when no event type can be realized at all.
  bool emit_background(std::vector<ChurnEvent>& events) {
    const bool can_shrink = g_.num_alive() > cfg_.min_alive;
    double wf = can_shrink ? cfg_.p_fail : 0.0;
    double wj = dead_.empty() ? 0.0 : cfg_.p_join;
    double wd = (can_shrink && g_.num_edges() > 0) ? cfg_.p_link_down : 0.0;
    double wu = alive_.size() >= 2 ? cfg_.p_link_up : 0.0;
    for (int attempt = 0; attempt < 64; ++attempt) {
      const double total = wf + wj + wd + wu;
      if (total <= 0.0) return false;
      const double r = rng_.uniform(0.0, total);
      ChurnEvent e;
      bool ok = false;
      if (r < wf) {
        e.type = ChurnEventType::kFail;
        e.a = pick(alive_, rng_);
        ok = true;
      } else if (r < wf + wj) {
        ok = draw_join(e);
        if (!ok) wj = 0.0;  // no anchor with alive 2-hop candidates
      } else if (r < wf + wj + wd) {
        ok = draw_link_down(e);
        if (!ok) wd = 0.0;
      } else {
        ok = draw_link_up(e);
        if (!ok) wu = 0.0;  // close to a clique; stop trying ups
      }
      if (ok && emit(std::move(e), events)) return true;
    }
    return false;
  }

  bool draw_join(ChurnEvent& e) {
    e.type = ChurnEventType::kJoin;
    e.a = pick(dead_, rng_);
    // Link the newcomer into a random anchor's 2-hop neighborhood: joins
    // model a node switching on *somewhere*, i.e. its links are spatially
    // correlated, not uniform over the network.
    const NodeId anchor = pick(alive_, rng_);
    std::vector<NodeId> pool{anchor};
    for (NodeId w : g_.neighbors(anchor)) {
      pool.push_back(w);
      for (NodeId x : g_.neighbors(w)) {
        if (x != anchor) pool.push_back(x);
      }
    }
    std::sort(pool.begin(), pool.end());
    pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
    const std::size_t want =
        1 + rng_.uniform_int(std::max<std::size_t>(cfg_.max_join_degree, 1));
    e.neighbors.clear();
    while (!pool.empty() && e.neighbors.size() < want) {
      const std::size_t i = rng_.uniform_int(pool.size());
      e.neighbors.push_back(pool[i]);
      pool[i] = pool.back();
      pool.pop_back();
    }
    std::sort(e.neighbors.begin(), e.neighbors.end());
    return !e.neighbors.empty();
  }

  bool draw_link_down(ChurnEvent& e) {
    for (int tries = 0; tries < 16; ++tries) {
      const NodeId u = pick(alive_, rng_);
      const auto nbrs = g_.neighbors(u);
      if (nbrs.empty()) continue;
      const NodeId v = nbrs[rng_.uniform_int(nbrs.size())];
      e = link_event(ChurnEventType::kLinkDown, u, v);
      return true;
    }
    return false;
  }

  bool draw_link_up(ChurnEvent& e) {
    // Prefer closing a 2-hop gap (new links appear between nearby nodes);
    // fall back to a uniform alive pair.
    for (int tries = 0; tries < 16; ++tries) {
      const NodeId u = pick(alive_, rng_);
      const auto nbrs = g_.neighbors(u);
      if (!nbrs.empty()) {
        const NodeId w = nbrs[rng_.uniform_int(nbrs.size())];
        const auto nn = g_.neighbors(w);
        const NodeId v = nn[rng_.uniform_int(nn.size())];
        if (v != u && !g_.has_edge(u, v)) {
          e = link_event(ChurnEventType::kLinkUp, u, v);
          return true;
        }
      }
      const NodeId x = pick(alive_, rng_);
      if (x != u && !g_.has_edge(u, x)) {
        e = link_event(ChurnEventType::kLinkUp, u, x);
        return true;
      }
    }
    return false;
  }

  /// Queues failure of every node within \p radius of a random pivot.
  void script_ball_failure(Hops radius, bool schedule_rejoin) {
    const NodeId pivot = pick(alive_, rng_);
    bfs_.run(g_, pivot, radius);
    for (NodeId v : bfs_.reached()) {
      ChurnEvent e;
      e.type = ChurnEventType::kFail;
      e.a = v;
      scripted_.push_back(std::move(e));
      if (schedule_rejoin) rejoin_queue_.push_back(v);
    }
  }

  /// Queues failure of the BFS ring at exactly \p radius around a random
  /// pivot. Any interior-to-exterior path crosses a ring node, so killing
  /// the whole ring disconnects the interior whenever both sides are
  /// non-empty. Ring nodes are queued for rejoin (component merge).
  void script_ring_failure(Hops radius) {
    // Prefer a pivot whose ring is non-trivial and leaves an exterior.
    for (int tries = 0; tries < 8; ++tries) {
      const NodeId pivot = pick(alive_, rng_);
      bfs_.run(g_, pivot, radius);
      const auto ball = bfs_.reached();
      const auto interior = bfs_.reached_within(radius - 1);
      const std::size_t ring = ball.size() - interior.size();
      if (ring == 0 || ball.size() >= g_.num_alive()) continue;
      for (NodeId v : ball.subspan(interior.size())) {
        ChurnEvent e;
        e.type = ChurnEventType::kFail;
        e.a = v;
        scripted_.push_back(std::move(e));
        rejoin_queue_.push_back(v);
      }
      rejoin_due_ = kUnset;  // fixed once the scripted queue drains
      return;
    }
  }

  /// Queues join events reviving earlier scripted casualties with their
  /// surviving former neighbors (emit() re-filters liveness at emit time).
  void script_rejoin() {
    for (NodeId v : rejoin_queue_) {
      if (g_.alive(v)) continue;
      ChurnEvent e;
      e.type = ChurnEventType::kJoin;
      e.a = v;
      for (NodeId w : former_neighbors_[v]) {
        if (g_.alive(w)) e.neighbors.push_back(w);
      }
      std::sort(e.neighbors.begin(), e.neighbors.end());
      scripted_.push_back(std::move(e));
    }
    rejoin_queue_.clear();
  }

  static constexpr std::size_t kUnset = static_cast<std::size_t>(-1);

  const ChurnTraceConfig cfg_;
  DynamicGraph g_;
  Rng rng_;
  BfsScratch bfs_;
  std::vector<NodeId> alive_;  ///< sorted
  std::vector<NodeId> dead_;
  std::deque<ChurnEvent> scripted_;
  std::vector<NodeId> rejoin_queue_;
  std::size_t rejoin_due_ = 0;
  bool burst_done_ = false;
  bool partition_done_ = false;
  std::unordered_map<NodeId, std::vector<NodeId>> former_neighbors_;
};

}  // namespace

ChurnTrace ChurnTrace::generate(const Graph& g0, const ChurnTraceConfig& cfg,
                                std::uint64_t seed) {
  KHOP_REQUIRE(g0.num_nodes() > 0, "churn trace needs a non-empty graph");
  KHOP_REQUIRE(cfg.p_fail >= 0 && cfg.p_join >= 0 && cfg.p_link_down >= 0 &&
                   cfg.p_link_up >= 0,
               "event weights must be non-negative");
  KHOP_REQUIRE(cfg.partition_at == ChurnTraceConfig::kNoScenario ||
                   cfg.partition_radius >= 1,
               "partition radius must be at least 1");
  TraceBuilder builder(g0, cfg, seed);
  ChurnTrace t;
  t.events_ = builder.build();
  return t;
}

}  // namespace khop
