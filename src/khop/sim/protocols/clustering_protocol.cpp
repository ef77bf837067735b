#include "khop/sim/protocols/clustering_protocol.hpp"

#include <algorithm>
#include <bit>
#include <tuple>

#include "khop/common/assert.hpp"

namespace khop {

std::int64_t encode_priority(double key) noexcept {
  auto u = std::bit_cast<std::uint64_t>(key);
  // Map IEEE754 order onto unsigned order, then shift into signed order.
  u = (u & 0x8000000000000000ULL) ? ~u : (u | 0x8000000000000000ULL);
  return std::bit_cast<std::int64_t>(u ^ 0x8000000000000000ULL);
}

DistributedClusteringAgent::DistributedClusteringAgent(Hops k,
                                                       PriorityKey priority,
                                                       AffiliationRule rule)
    : k_(k), priority_(priority), rule_(rule) {
  KHOP_REQUIRE(k >= 1, "k must be >= 1");
  KHOP_REQUIRE(rule != AffiliationRule::kSizeBased,
               "size-based affiliation needs non-local cluster sizes; use the "
               "centralized khop_clustering for it");
}

void DistributedClusteringAgent::begin_iteration(NodeContext& ctx) {
  candidates_.clear();
  declares_.clear();
  min_candidate_key_ = kNoCandidate;
  if (state_ == State::kUndecided) {
    ctx.broadcast(kCandidate,
                  {iteration_, static_cast<std::int64_t>(ctx.id()),
                   encode_priority(priority_.key), 1});
  }
}

void DistributedClusteringAgent::on_start(NodeContext& ctx) {
  begin_iteration(ctx);
}

void DistributedClusteringAgent::on_message(NodeContext& ctx,
                                            const Message& msg) {
  switch (msg.type) {
    case kCandidate: {
      const std::int64_t iter = msg.data[0];
      if (iter != iteration_) return;  // stale flood remnants: drop
      const auto origin = static_cast<NodeId>(msg.data[1]);
      const std::int64_t enc_key = msg.data[2];
      const auto hops = static_cast<Hops>(msg.data[3]);
      if (origin == ctx.id()) return;

      bool inserted = false;
      KnownRecord& rec = candidates_.upsert(origin, inserted);
      if (inserted || hops < rec.dist) {
        rec.dist = hops;
        rec.parent = msg.sender;
        min_candidate_key_ = std::min(min_candidate_key_, {enc_key, origin});
        if (hops < k_) {
          ctx.broadcast(kCandidate,
                        {iter, static_cast<std::int64_t>(origin), enc_key,
                         static_cast<std::int64_t>(hops + 1)});
        }
      }
      break;
    }
    case kDeclare: {
      const std::int64_t iter = msg.data[0];
      if (iter != iteration_) return;
      const auto origin = static_cast<NodeId>(msg.data[1]);
      const auto hops = static_cast<Hops>(msg.data[2]);
      if (origin == ctx.id()) return;

      bool inserted = false;
      KnownRecord& rec = declares_.upsert(origin, inserted);
      if (inserted || hops < rec.dist) {
        rec.dist = hops;
        rec.parent = msg.sender;
        if (hops < k_) {
          ctx.broadcast(kDeclare,
                        {iter, static_cast<std::int64_t>(origin),
                         static_cast<std::int64_t>(hops + 1)});
        }
      } else if (hops == rec.dist && msg.sender < rec.parent) {
        rec.parent = msg.sender;
      }
      break;
    }
    case kJoin: {
      const auto head = static_cast<NodeId>(msg.data[0]);
      const auto member = static_cast<NodeId>(msg.data[1]);
      if (head == ctx.id()) {
        members_.push_back(member);
      } else {
        const KnownRecord* route = declares_.find(head);
        KHOP_ASSERT(route != nullptr,
                    "JOIN relay has no route toward the head");
        ctx.send(route->parent, kJoin, msg.data);
      }
      break;
    }
    default:
      KHOP_ASSERT(false, "unexpected message type");
  }
}

void DistributedClusteringAgent::on_round_end(NodeContext& ctx) {
  const std::size_t local = ctx.round() % iteration_len();

  if (local == static_cast<std::size_t>(k_)) {
    // Election point. Only undecided nodes participate; candidate floods
    // originate from undecided nodes only, so the comparison set is right.
    if (state_ == State::kUndecided) {
      const std::pair<std::int64_t, NodeId> mine{
          encode_priority(priority_.key), ctx.id()};
      if (!(min_candidate_key_ < mine)) {
        state_ = State::kHead;
        head_ = ctx.id();
        dist_to_head_ = 0;
        members_.push_back(ctx.id());
        ctx.broadcast(kDeclare, {iteration_,
                                 static_cast<std::int64_t>(ctx.id()), 1});
      }
    }
  } else if (local == static_cast<std::size_t>(2) * k_ && ctx.round() > 0) {
    // Affiliation point.
    if (state_ == State::kUndecided && !declares_.empty()) {
      // The minimum under a total order, so the table's unspecified
      // iteration order cannot change the pick.
      NodeId chosen = kInvalidNode;
      Hops chosen_dist = kUnreachable;
      NodeId route = kInvalidNode;
      declares_.for_each([&](NodeId origin, const KnownRecord& rec) {
        const bool better = rule_ == AffiliationRule::kIdBased
                                ? origin < chosen
                                : std::tuple(rec.dist, origin) <
                                      std::tuple(chosen_dist, chosen);
        if (better) {
          chosen = origin;
          chosen_dist = rec.dist;
          route = rec.parent;
        }
      });
      state_ = State::kMember;
      head_ = chosen;
      dist_to_head_ = chosen_dist;
      ctx.send(route, kJoin,
               {static_cast<std::int64_t>(chosen),
                static_cast<std::int64_t>(ctx.id())});
    }
  } else if (local == 0 && ctx.round() > 0) {
    // New iteration for any remaining undecided nodes.
    ++iteration_;
    begin_iteration(ctx);
  }
}

Clustering run_distributed_clustering(const Graph& g, Hops k,
                                      const std::vector<PriorityKey>& prio,
                                      AffiliationRule rule, SimStats* stats,
                                      const DeliveryOptions& delivery) {
  KHOP_REQUIRE(prio.size() == g.num_nodes(), "one priority per node");

  SyncEngine engine(
      g,
      [&](NodeId v) {
        return std::make_unique<DistributedClusteringAgent>(k, prio[v], rule);
      },
      delivery);
  // Worst case: one new head per iteration, n iterations of 3k rounds.
  const std::size_t max_rounds = 3 * static_cast<std::size_t>(k) *
                                     (g.num_nodes() + 2) +
                                 16;
  const bool done = engine.run(max_rounds);
  KHOP_ASSERT(done, "distributed clustering did not terminate");
  if (stats != nullptr) *stats = engine.stats();

  Clustering c;
  c.k = k;
  const std::size_t n = g.num_nodes();
  c.head_of.assign(n, kInvalidNode);
  c.dist_to_head.assign(n, kUnreachable);
  for (NodeId v = 0; v < n; ++v) {
    const auto& agent =
        dynamic_cast<const DistributedClusteringAgent&>(engine.agent(v));
    c.head_of[v] = agent.head();
    c.dist_to_head[v] = agent.dist_to_head();
    if (agent.state() == DistributedClusteringAgent::State::kHead) {
      c.heads.push_back(v);
    }
  }
  c.election_rounds = engine.stats().rounds;

  c.cluster_of.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    const auto it =
        std::lower_bound(c.heads.begin(), c.heads.end(), c.head_of[v]);
    KHOP_ASSERT(it != c.heads.end() && *it == c.head_of[v],
                "protocol produced inconsistent head_of");
    c.cluster_of[v] =
        static_cast<std::uint32_t>(std::distance(c.heads.begin(), it));
  }
  return c;
}

}  // namespace khop
