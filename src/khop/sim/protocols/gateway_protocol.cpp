#include "khop/sim/protocols/gateway_protocol.hpp"

#include <algorithm>

#include "khop/common/assert.hpp"
#include "khop/gateway/lmst.hpp"

namespace khop {

void LmstGatewayAgent::route(NodeContext& ctx, std::uint16_t type,
                             NodeId target,
                             std::span<const std::int64_t> data) {
  const HeadInfo* toward = far_head(target);
  KHOP_ASSERT(toward != nullptr, "no route toward mark target");
  ctx.send(toward->parent, type, data);
}

void LmstGatewayAgent::keep(NodeId a, NodeId b) {
  insert_sorted(kept_, std::pair(std::min(a, b), std::max(a, b)));
}

void LmstGatewayAgent::emit_mark(NodeContext& ctx, NodeId smaller) {
  // MARK travels toward the smaller endpoint; relays become gateways.
  if (!insert_sorted(marks_emitted_, smaller)) return;  // already marked
  const HeadInfo* toward = far_head(smaller);
  KHOP_ASSERT(toward != nullptr, "no route toward mark target");
  if (toward->dist == 1) return;  // no interior to mark
  const std::int64_t words[] = {static_cast<std::int64_t>(smaller),
                                static_cast<std::int64_t>(ctx.id())};
  route(ctx, kMark, smaller, words);
}

void LmstGatewayAgent::on_ancr_complete(NodeContext& ctx) {
  if (!am_head_) return;
  const std::vector<NodeId>& nbrs = adjacent_heads();
  if (nbrs.empty()) return;

  const NodeId self = ctx.id();
  // Link (self, s): own HEADCAST2 distance. Link (s1, s2), s1 < s2: from
  // s1's ADJSET, else from s2's.
  const auto pair_hops = [&](NodeId a, NodeId b) {
    if (a == self || b == self) {
      const HeadInfo* other = far_head(a == self ? b : a);
      KHOP_ASSERT(other != nullptr, "adjacent head without distance");
      return other->dist;
    }
    const Hops d = reported_dist(a, b);
    return d != kUnreachable ? d : reported_dist(b, a);
  };
  // Scratch only: nothing survives the call, so one per thread serves
  // every head the thread runs.
  thread_local LmstKernel kernel;
  thread_local std::vector<NodeId> kept_heads;
  kernel.keep_list(self, nbrs, pair_hops, kept_heads);

  for (const NodeId other : kept_heads) {
    keep(self, other);
    if (self > other) {
      emit_mark(ctx, other);
    } else if (far_head(other)->dist == 1) {
      // Adjacent heads cannot be 1 hop apart in a valid k-hop clustering,
      // but guard anyway: nothing to mark.
    } else {
      // The larger endpoint must emit the canonical MARK: request it.
      const std::int64_t words[] = {static_cast<std::int64_t>(other),
                                    static_cast<std::int64_t>(self)};
      route(ctx, kReqMark, other, words);
    }
  }
}

void LmstGatewayAgent::on_message(NodeContext& ctx, const Message& msg) {
  switch (msg.type) {
    case kReqMark: {
      const auto target = static_cast<NodeId>(msg.data[0]);
      const auto origin = static_cast<NodeId>(msg.data[1]);
      if (target == ctx.id()) {
        keep(origin, ctx.id());
        emit_mark(ctx, origin);
      } else {
        route(ctx, kReqMark, target, msg.data);
      }
      break;
    }
    case kMark: {
      const auto target = static_cast<NodeId>(msg.data[0]);
      if (target == ctx.id()) return;  // interior fully marked
      if (my_head() != ctx.id()) gateway_ = true;  // heads relay unmarked
      route(ctx, kMark, target, msg.data);
      break;
    }
    default:
      AncrAgent::on_message(ctx, msg);
  }
}

Backbone run_distributed_aclmst(const Graph& g, const Clustering& c,
                                SimStats* stats) {
  SyncEngine engine(g, [&](NodeId v) {
    return std::make_unique<LmstGatewayAgent>(c.k, c.head_of[v],
                                              c.dist_to_head[v]);
  });
  const bool done = engine.run(16 * static_cast<std::size_t>(c.k) + 32);
  KHOP_ASSERT(done, "distributed AC-LMST did not terminate");
  if (stats != nullptr) *stats = engine.stats();

  Backbone b;
  b.pipeline = Pipeline::kAcLmst;
  b.heads = c.heads;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto& agent =
        dynamic_cast<const LmstGatewayAgent&>(engine.agent(v));
    if (agent.marked_gateway()) b.gateways.push_back(v);
    b.virtual_links.insert(b.virtual_links.end(), agent.kept_links().begin(),
                           agent.kept_links().end());
  }
  std::sort(b.virtual_links.begin(), b.virtual_links.end());
  b.virtual_links.erase(
      std::unique(b.virtual_links.begin(), b.virtual_links.end()),
      b.virtual_links.end());
  return b;
}

}  // namespace khop
