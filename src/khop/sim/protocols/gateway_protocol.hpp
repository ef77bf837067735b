/// \file gateway_protocol.hpp
/// Distributed AC-LMST gateway selection (algorithm AC-LMST steps 9-11).
///
/// Builds on AncrAgent: once the A-NCR exchange completes, every clusterhead
/// locally computes its LMST over the virtual links among {itself} ∪ its
/// adjacent heads, keeps the on-tree links incident to itself, and has the
/// interior of each kept link marked as gateways by routing a MARK token
/// hop-by-hop along the HEADCAST2 parent pointers toward the *smaller*
/// endpoint (the canonical-path convention shared with the centralized
/// implementation). When the keeper is the smaller endpoint it first routes
/// an unmarked REQMARK to the larger endpoint, which then emits the MARK.
///
/// The keep decision is LmstKernel::keep_list (gateway/lmst.hpp), the same
/// kernel the centralized lmst_gateways and the churn engine run, fed the
/// hop distances the head heard: its own HEADCAST2 distances for links to
/// itself, and its neighbors' ADJSET reports for the links among them. Kept
/// links and emitted marks are small sorted vectors; MARK/REQMARK relays
/// forward the delivered payload as is.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "khop/gateway/backbone.hpp"
#include "khop/sim/protocols/ancr_protocol.hpp"

namespace khop {

class LmstGatewayAgent : public AncrAgent {
 public:
  using AncrAgent::AncrAgent;

  void on_message(NodeContext& ctx, const Message& msg) override;

  bool marked_gateway() const noexcept { return gateway_; }
  /// Heads only: kept virtual links as (min,max) pairs.
  const std::vector<std::pair<NodeId, NodeId>>& kept_links() const noexcept {
    return kept_;
  }

 protected:
  static constexpr std::uint16_t kReqMark = 30;
  static constexpr std::uint16_t kMark = 31;

  void on_ancr_complete(NodeContext& ctx) override;

 private:
  bool gateway_ = false;
  /// Ascending (min, max) pairs.
  std::vector<std::pair<NodeId, NodeId>> kept_;
  /// Smaller endpoints this (larger) head has emitted a MARK toward,
  /// ascending.
  std::vector<NodeId> marks_emitted_;

  void keep(NodeId a, NodeId b);
  void emit_mark(NodeContext& ctx, NodeId smaller);
  void route(NodeContext& ctx, std::uint16_t type, NodeId target,
             std::span<const std::int64_t> data);
};

/// Runs distributed clustering-independent AC-LMST phase 2 over a clustered
/// graph and returns the resulting backbone (pipeline = kAcLmst).
Backbone run_distributed_aclmst(const Graph& g, const Clustering& c,
                                SimStats* stats = nullptr);

}  // namespace khop
