#include "oracles/sim_reference.hpp"

#include <algorithm>
#include <tuple>

#include "khop/common/assert.hpp"

namespace khop::reference {

std::size_t NodeContext::round() const noexcept { return engine_->round_; }

std::span<const NodeId> NodeContext::neighbors() const {
  return engine_->graph_->neighbors(id_);
}

void NodeContext::broadcast(std::uint16_t type,
                            std::vector<std::int64_t> data) {
  ++engine_->stats_.transmissions;
  engine_->stats_.payload_words += data.size();
  // One materialization per broadcast: every neighbor's delivery aliases the
  // same interned words (the old path deep-copied the vector per neighbor).
  const PayloadView payload = engine_->arenas_[engine_->write_].intern(data);
  for (NodeId v : engine_->graph_->neighbors(id_)) {
    engine_->enqueue(id_, v, type, payload);
  }
}

void NodeContext::send(NodeId to, std::uint16_t type,
                       std::vector<std::int64_t> data) {
  KHOP_REQUIRE(engine_->graph_->has_edge(id_, to),
               "addressed send target is not a neighbor");
  ++engine_->stats_.transmissions;
  engine_->stats_.payload_words += data.size();
  const PayloadView payload = engine_->arenas_[engine_->write_].intern(data);
  engine_->enqueue(id_, to, type, payload);
}

SyncEngine::SyncEngine(const Graph& g, const AgentFactory& factory,
                       const DeliveryOptions& delivery)
    : graph_(&g), delivery_(delivery) {
  KHOP_REQUIRE(static_cast<bool>(factory), "agent factory required");
  agents_.reserve(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    agents_.push_back(factory(v));
    KHOP_REQUIRE(agents_.back() != nullptr, "factory returned null agent");
  }
}

void SyncEngine::enqueue(NodeId from, NodeId to, std::uint16_t type,
                         PayloadView data) {
  queues_[write_].push_back(Routed{to, Message{from, type, data}});
}

bool SyncEngine::delivered(const Routed& r, std::size_t seq) {
  const DeliveryModel* model = delivery_.model;
  if (model == nullptr) return true;
  const NodeId from = r.msg.sender;
  for (std::size_t attempt = 0; attempt <= delivery_.retry_budget;
       ++attempt) {
    if (attempt > 0) ++stats_.retransmissions;
    if (model->attempt(from, r.to,
                       delivery_key(model->seed(), round_, from, r.to, seq,
                                    attempt))) {
      return true;
    }
  }
  ++stats_.drops;
  return false;
}

NodeAgent& SyncEngine::agent(NodeId v) {
  KHOP_REQUIRE(v < agents_.size(), "node out of range");
  return *agents_[v];
}

const NodeAgent& SyncEngine::agent(NodeId v) const {
  KHOP_REQUIRE(v < agents_.size(), "node out of range");
  return *agents_[v];
}

bool SyncEngine::run(std::size_t max_rounds) {
  round_ = 0;
  for (NodeId v = 0; v < graph_->num_nodes(); ++v) {
    NodeContext ctx(*this, v);
    agents_[v]->on_start(ctx);
  }

  while (round_ < max_rounds) {
    // Quiescence check at the round boundary.
    if (queues_[write_].empty()) {
      const bool all_done = std::all_of(
          agents_.begin(), agents_.end(),
          [](const std::unique_ptr<NodeAgent>& a) { return a->finished(); });
      if (all_done) return true;
    }

    ++round_;
    ++stats_.rounds;

    // Flip buffers: this round's deliveries become the read side; handlers
    // enqueue into the other side, whose previous contents (delivered two
    // rounds ago) are dropped with capacity retained.
    std::vector<Routed>& inbox = queues_[write_];
    write_ ^= 1u;
    queues_[write_].clear();
    arenas_[write_].clear();

    // Deterministic delivery order, bit-for-bit as the per-destination
    // implementation: destinations ascending, then (sender, type, payload).
    // A single flat sort gives the same sequence because messages equal in
    // all three keys are indistinguishable.
    std::sort(inbox.begin(), inbox.end(), [](const Routed& a, const Routed& b) {
      return std::tie(a.to, a.msg.sender, a.msg.type, a.msg.data) <
             std::tie(b.to, b.msg.sender, b.msg.type, b.msg.data);
    });

    // Loss is decided while walking the sorted inbox: seq is the index
    // within each (to, sender) run.
    std::size_t seq = 0;
    for (std::size_t i = 0; i < inbox.size(); ++i) {
      const Routed& r = inbox[i];
      const bool same_link = i > 0 && inbox[i - 1].to == r.to &&
                             inbox[i - 1].msg.sender == r.msg.sender;
      seq = same_link ? seq + 1 : 0;
      if (!delivered(r, seq)) continue;
      ++stats_.receptions;
      NodeContext ctx(*this, r.to);
      agents_[r.to]->on_message(ctx, r.msg);
    }
    for (NodeId v = 0; v < graph_->num_nodes(); ++v) {
      NodeContext ctx(*this, v);
      agents_[v]->on_round_end(ctx);
    }
  }
  return queues_[write_].empty() &&
         std::all_of(agents_.begin(), agents_.end(),
                     [](const std::unique_ptr<NodeAgent>& a) {
                       return a->finished();
                     });
}

void NeighborhoodDiscoveryAgent::on_start(NodeContext& ctx) {
  ctx.broadcast(kHello, {static_cast<std::int64_t>(ctx.id()), 1});
}

void NeighborhoodDiscoveryAgent::on_message(NodeContext& ctx,
                                            const Message& msg) {
  KHOP_ASSERT(msg.type == kHello, "unexpected message type");
  const auto origin = static_cast<NodeId>(msg.data[0]);
  const auto hops = static_cast<Hops>(msg.data[1]);
  if (origin == ctx.id()) return;

  auto [it, inserted] = known_.try_emplace(origin);
  Known& rec = it->second;
  if (inserted || hops < rec.dist) {
    // First (synchronous flooding => shortest) arrival. The inbox is sorted
    // by sender, so on the discovery round the first arrival also carries
    // the minimum-id parent - matching the centralized canonical BFS.
    rec.dist = hops;
    rec.parent = msg.sender;
    if (hops < k_) {
      ctx.broadcast(kHello,
                    {static_cast<std::int64_t>(origin),
                     static_cast<std::int64_t>(hops + 1)});
    }
  } else if (hops == rec.dist && msg.sender < rec.parent) {
    rec.parent = msg.sender;  // same-round arrivals keep the smallest parent
  }
}

}  // namespace khop::reference
