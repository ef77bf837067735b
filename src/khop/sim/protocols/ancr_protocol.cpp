#include "khop/sim/protocols/ancr_protocol.hpp"

#include <algorithm>

#include "khop/common/assert.hpp"

namespace khop {

namespace {

/// First record of a table sorted by head whose head is not below \p head.
template <typename Table>
auto lower_head(Table& table, NodeId head) {
  return std::lower_bound(
      table.begin(), table.end(), head,
      [](const AncrAgent::HeadInfo& rec, NodeId h) { return rec.head < h; });
}

/// The record of \p head in a table sorted by head, or nullptr.
template <typename Table>
auto* find_head(Table& table, NodeId head) {
  const auto it = lower_head(table, head);
  return it != table.end() && it->head == head ? &*it : nullptr;
}

/// Reused payload buffer: the engine copies a payload when it is sent, so
/// one buffer per thread serves every agent that thread runs.
std::vector<std::int64_t>& payload_scratch() {
  thread_local std::vector<std::int64_t> words;
  words.clear();
  return words;
}

}  // namespace

AncrAgent::AncrAgent(Hops k, NodeId my_head, Hops my_dist)
    : k_(k), my_head_(my_head), my_dist_(my_dist) {
  KHOP_REQUIRE(k >= 1, "k must be >= 1");
}

bool AncrAgent::is_head(NodeContext& ctx) const {
  return my_head_ == ctx.id();
}

bool AncrAgent::finished() const { return ancr_done_; }

const AncrAgent::HeadInfo* AncrAgent::far_head(NodeId head) const {
  return find_head(far_heads_, head);
}

Hops AncrAgent::reported_dist(NodeId from, NodeId to) const {
  const HeadInfo* rec = far_head(from);
  if (rec == nullptr) return kUnreachable;
  for (std::uint32_t i = rec->adj_begin; i < rec->adj_end; ++i) {
    if (adjset_pairs_[i].first == to) return adjset_pairs_[i].second;
  }
  return kUnreachable;
}

void AncrAgent::on_start(NodeContext& ctx) {
  am_head_ = is_head(ctx);
  if (am_head_) {
    ctx.broadcast(kHeadcast, {static_cast<std::int64_t>(ctx.id()), 1});
  }
}

void AncrAgent::on_headcast(NodeContext& ctx, const Message& msg,
                            std::vector<HeadInfo>& table, Hops radius) {
  const auto origin = static_cast<NodeId>(msg.data[0]);
  const auto hops = static_cast<Hops>(msg.data[1]);
  if (origin == ctx.id()) return;
  auto it = lower_head(table, origin);
  if (it == table.end() || it->head != origin) {
    it = table.insert(it, HeadInfo{.head = origin});
  }
  HeadInfo& rec = *it;
  if (hops < rec.dist) {
    rec.dist = hops;
    rec.parent = msg.sender;
    if (hops < radius) {
      ctx.broadcast(msg.type, {static_cast<std::int64_t>(origin),
                               static_cast<std::int64_t>(hops + 1)});
    }
  } else if (hops == rec.dist && msg.sender < rec.parent) {
    rec.parent = msg.sender;
  }
}

void AncrAgent::on_message(NodeContext& ctx, const Message& msg) {
  switch (msg.type) {
    case kHeadcast:
      on_headcast(ctx, msg, near_heads_, k_);
      break;
    case kClusterId: {
      const auto head = static_cast<NodeId>(msg.data[0]);
      if (head != my_head_ &&
          std::find(foreign_heads_.begin(), foreign_heads_.end(), head) ==
              foreign_heads_.end()) {
        foreign_heads_.push_back(head);
      }
      break;
    }
    case kWitness: {
      const auto target = static_cast<NodeId>(msg.data[0]);
      if (target == ctx.id()) {
        for (std::size_t i = 1; i < msg.data.size(); ++i) {
          insert_sorted(adjacency_, static_cast<NodeId>(msg.data[i]));
        }
      } else {
        const HeadInfo* route = find_head(near_heads_, target);
        KHOP_ASSERT(route != nullptr,
                    "witness relay has no route toward the head");
        ctx.send(route->parent, kWitness, msg.data);
      }
      break;
    }
    case kHeadcast2:
      on_headcast(ctx, msg, far_heads_, 2 * k_ + 1);
      break;
    case kAdjSet: {
      const auto origin = static_cast<NodeId>(msg.data[0]);
      const auto hops = static_cast<Hops>(msg.data[1]);
      if (origin == ctx.id()) return;
      // The ADJSET flood covers the same 2k+1 hops as HEADCAST2, so its
      // origin's record exists; the heard mark suppresses duplicates.
      HeadInfo* rec = find_head(far_heads_, origin);
      KHOP_ASSERT(rec != nullptr, "ADJSET from a head beyond 2k+1 hops");
      if (rec->adjset_heard) return;
      rec->adjset_heard = true;
      if (am_head_) {
        rec->adj_begin = static_cast<std::uint32_t>(adjset_pairs_.size());
        for (std::size_t i = 2; i + 1 < msg.data.size(); i += 2) {
          adjset_pairs_.emplace_back(static_cast<NodeId>(msg.data[i]),
                                     static_cast<Hops>(msg.data[i + 1]));
        }
        rec->adj_end = static_cast<std::uint32_t>(adjset_pairs_.size());
      }
      if (hops < 2 * k_ + 1) {
        std::vector<std::int64_t>& fwd = payload_scratch();
        fwd.assign(msg.data.begin(), msg.data.end());
        fwd[1] = static_cast<std::int64_t>(hops + 1);
        ctx.broadcast(kAdjSet, fwd);
      }
      break;
    }
    default:
      KHOP_ASSERT(false, "unexpected message type in AncrAgent");
  }
}

void AncrAgent::on_round_end(NodeContext& ctx) {
  const std::size_t r = ctx.round();
  const std::size_t k = k_;

  if (r == k) {
    // Every node announces its cluster once.
    ctx.broadcast(kClusterId, {static_cast<std::int64_t>(my_head_)});
  } else if (r == k + 1) {
    // Witness detection: neighbors in a different cluster.
    if (!foreign_heads_.empty()) {
      std::sort(foreign_heads_.begin(), foreign_heads_.end());
      if (am_head_) {
        for (NodeId h : foreign_heads_) insert_sorted(adjacency_, h);
      } else {
        std::vector<std::int64_t>& data = payload_scratch();
        data.push_back(static_cast<std::int64_t>(my_head_));
        for (NodeId h : foreign_heads_) {
          data.push_back(static_cast<std::int64_t>(h));
        }
        const HeadInfo* route = find_head(near_heads_, my_head_);
        KHOP_ASSERT(route != nullptr,
                    "member never heard its own head's HEADCAST");
        ctx.send(route->parent, kWitness, data);
      }
    }
  } else if (r == 2 * k + 1) {
    if (am_head_) {
      ctx.broadcast(kHeadcast2, {static_cast<std::int64_t>(ctx.id()), 1});
    }
  } else if (r == 4 * k + 2) {
    if (am_head_) {
      std::vector<std::int64_t>& data = payload_scratch();
      data.push_back(static_cast<std::int64_t>(ctx.id()));
      data.push_back(1);
      for (NodeId adj : adjacency_) {
        const HeadInfo* rec = far_head(adj);
        KHOP_ASSERT(rec != nullptr,
                    "adjacent head not heard within 2k+1 hops");
        data.push_back(static_cast<std::int64_t>(adj));
        data.push_back(static_cast<std::int64_t>(rec->dist));
      }
      ctx.broadcast(kAdjSet, data);
    }
  } else if (r == done_round()) {
    ancr_done_ = true;
    on_ancr_complete(ctx);
  }
}

NeighborSelection run_distributed_nc(const Graph& g, const Clustering& c,
                                     SimStats* stats) {
  SyncEngine engine(g, [&](NodeId v) {
    return std::make_unique<AncrAgent>(c.k, c.head_of[v], c.dist_to_head[v]);
  });
  const bool done = engine.run(8 * static_cast<std::size_t>(c.k) + 16);
  KHOP_ASSERT(done, "distributed NC did not terminate");
  if (stats != nullptr) *stats = engine.stats();

  NeighborSelection sel;
  sel.rule = NeighborRule::kAllWithin2k1;
  sel.selected.resize(c.heads.size());
  for (std::uint32_t i = 0; i < c.heads.size(); ++i) {
    const auto& agent =
        dynamic_cast<const AncrAgent&>(engine.agent(c.heads[i]));
    for (const AncrAgent::HeadInfo& info : agent.far_heads()) {
      const NodeId head = info.head;
      if (!std::binary_search(c.heads.begin(), c.heads.end(), head)) continue;
      sel.selected[i].push_back(head);
      sel.head_pairs.emplace_back(std::min(c.heads[i], head),
                                  std::max(c.heads[i], head));
    }
    std::sort(sel.selected[i].begin(), sel.selected[i].end());
  }
  std::sort(sel.head_pairs.begin(), sel.head_pairs.end());
  sel.head_pairs.erase(
      std::unique(sel.head_pairs.begin(), sel.head_pairs.end()),
      sel.head_pairs.end());
  return sel;
}

NeighborSelection run_distributed_ancr(const Graph& g, const Clustering& c,
                                       SimStats* stats) {
  SyncEngine engine(g, [&](NodeId v) {
    return std::make_unique<AncrAgent>(c.k, c.head_of[v], c.dist_to_head[v]);
  });
  const bool done = engine.run(8 * static_cast<std::size_t>(c.k) + 16);
  KHOP_ASSERT(done, "distributed A-NCR did not terminate");
  if (stats != nullptr) *stats = engine.stats();

  NeighborSelection sel;
  sel.rule = NeighborRule::kAdjacent;
  sel.selected.resize(c.heads.size());
  for (std::uint32_t i = 0; i < c.heads.size(); ++i) {
    const auto& agent =
        dynamic_cast<const AncrAgent&>(engine.agent(c.heads[i]));
    sel.selected[i] = agent.adjacent_heads();
    for (NodeId other : sel.selected[i]) {
      sel.head_pairs.emplace_back(std::min(c.heads[i], other),
                                  std::max(c.heads[i], other));
    }
  }
  std::sort(sel.head_pairs.begin(), sel.head_pairs.end());
  sel.head_pairs.erase(
      std::unique(sel.head_pairs.begin(), sel.head_pairs.end()),
      sel.head_pairs.end());
  return sel;
}

}  // namespace khop
