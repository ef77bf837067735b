/// \file clustering_protocol.hpp
/// The paper's k-hop clustering as an actual distributed protocol.
///
/// Each election iteration spans 3k synchronous rounds:
///   [0, k)    CANDIDATE flood - undecided nodes announce (priority, id) up
///             to k hops; every node relays (distances are measured in G).
///   round k   election - an undecided node that saw no better-priority
///             undecided candidate declares itself clusterhead and starts a
///             DECLARE flood (k hops).
///   round 2k  affiliation - undecided nodes that heard declarations join
///             one head (ID- or distance-based rule) and send a JOIN,
///             relayed hop-by-hop along the declare flood's parent pointers.
///   round 3k  the next iteration begins for any remaining undecided nodes.
///
/// The protocol terminates when every node is decided; the test suite
/// asserts the outcome is bit-identical to the centralized khop_clustering.
///
/// Per-node state is flat: the iteration's CANDIDATE and DECLARE floods are
/// recorded in KnownTables (neighborhood.hpp), cleared in O(1) at each
/// iteration, and the election needs only the running minimum of the
/// candidate (priority, id) keys heard. The affiliation scan is a minimum
/// over a total order, so the table's iteration order does not matter.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "khop/cluster/clustering.hpp"
#include "khop/sim/engine.hpp"
#include "khop/sim/protocols/neighborhood.hpp"

namespace khop {

/// Order-preserving encoding of a double into int64 (used to ship priority
/// keys through integer payloads).
std::int64_t encode_priority(double key) noexcept;

class DistributedClusteringAgent : public NodeAgent {
 public:
  enum class State : std::uint8_t { kUndecided, kHead, kMember };

  DistributedClusteringAgent(Hops k, PriorityKey priority,
                             AffiliationRule rule);

  void on_start(NodeContext& ctx) override;
  void on_message(NodeContext& ctx, const Message& msg) override;
  void on_round_end(NodeContext& ctx) override;
  bool finished() const override { return state_ != State::kUndecided; }

  State state() const noexcept { return state_; }
  NodeId head() const noexcept { return head_; }
  Hops dist_to_head() const noexcept { return dist_to_head_; }
  /// Members that joined this head (valid for heads after completion).
  const std::vector<NodeId>& joined_members() const noexcept {
    return members_;
  }

 private:
  static constexpr std::uint16_t kCandidate = 10;
  static constexpr std::uint16_t kDeclare = 11;
  static constexpr std::uint16_t kJoin = 12;

  Hops k_;
  PriorityKey priority_;
  AffiliationRule rule_;

  State state_ = State::kUndecided;
  NodeId head_ = kInvalidNode;
  Hops dist_to_head_ = kUnreachable;
  std::vector<NodeId> members_;

  std::int64_t iteration_ = 0;
  /// Current-iteration flood state, keyed by origin.
  KnownTable candidates_;
  KnownTable declares_;
  static constexpr std::pair<std::int64_t, NodeId> kNoCandidate{
      std::numeric_limits<std::int64_t>::max(), kInvalidNode};
  /// Smallest (encoded priority, id) among this iteration's candidates.
  std::pair<std::int64_t, NodeId> min_candidate_key_ = kNoCandidate;

  std::size_t iteration_len() const noexcept {
    return static_cast<std::size_t>(3) * k_;
  }
  void begin_iteration(NodeContext& ctx);
};

/// Runs the protocol over \p g and extracts the resulting Clustering.
/// \p stats (optional) receives the engine's message accounting.
/// \p delivery (optional) runs the election over lossy links; the default
/// ideal MAC reproduces the legacy behaviour bit-for-bit. Note the protocol
/// has no application-level recovery: under heavy loss it may fail to
/// terminate within the round budget (KHOP_ASSERT) — pair lossy runs with a
/// retry budget.
Clustering run_distributed_clustering(const Graph& g, Hops k,
                                      const std::vector<PriorityKey>& prio,
                                      AffiliationRule rule,
                                      SimStats* stats = nullptr,
                                      const DeliveryOptions& delivery = {});

}  // namespace khop
