/// \file sim_reference.hpp
/// Pre-PR5 synchronous engine, preserved as an independent oracle.
///
/// The production SyncEngine (engine.hpp) now records broadcasts once per
/// sender and assembles each inbox from its neighbors' records (plus a
/// ThreadPool round executor); this copy keeps the original structure — one
/// flat O(M log M) comparison sort over every in-flight message per round,
/// whose comparator lexicographically compares payload words — and the
/// original std::map-backed NeighborhoodDiscoveryAgent. They exist for the
/// bit-exact equivalence suite (test_engine_equivalence) and as the `legacy`
/// baseline the perf-regression harness measures `engine_flood` speedups
/// against. Not for production call sites.
///
/// The one departure from the pre-PR5 code is where loss is decided: the
/// DeliveryModel is consulted while walking the sorted inbox (seq = index
/// within each (to, sender) run), not at enqueue. The key semantics are
/// restated here independently of the production engine's record walk.
///
/// Shared vocabulary (Message, PayloadView, PayloadArena, SimStats,
/// DeliveryModel, DeliveryOptions) comes from the production headers; only
/// the engine classes and the discovery agent are duplicated.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "khop/graph/graph.hpp"
#include "khop/sim/engine.hpp"
#include "khop/sim/message.hpp"

namespace khop::reference {

class SyncEngine;

/// Per-node handle the reference engine passes to agent callbacks.
class NodeContext {
 public:
  NodeId id() const noexcept { return id_; }
  std::size_t round() const noexcept;
  std::span<const NodeId> neighbors() const;

  /// Local broadcast: delivered to every neighbor next round.
  void broadcast(std::uint16_t type, std::vector<std::int64_t> data);

  /// Addressed send to a direct neighbor: delivered next round.
  /// \pre `to` is a neighbor of this node
  void send(NodeId to, std::uint16_t type, std::vector<std::int64_t> data);

 private:
  friend class SyncEngine;
  NodeContext(SyncEngine& engine, NodeId id) : engine_(&engine), id_(id) {}
  SyncEngine* engine_;
  NodeId id_;
};

/// A protocol's per-node state machine (reference-engine flavor).
class NodeAgent {
 public:
  virtual ~NodeAgent() = default;
  virtual void on_start(NodeContext& /*ctx*/) {}
  virtual void on_message(NodeContext& ctx, const Message& msg) = 0;
  virtual void on_round_end(NodeContext& /*ctx*/) {}
  virtual bool finished() const { return true; }
};

/// The pre-PR5 simulator: flat double-buffered delivery queue and one
/// whole-queue (to, sender, type, payload) sort per round. Single-run
/// (it predates the re-entry fix; construct a fresh instance per run).
class SyncEngine {
 public:
  using AgentFactory = std::function<std::unique_ptr<NodeAgent>(NodeId)>;

  SyncEngine(const Graph& g, const AgentFactory& factory,
             const DeliveryOptions& delivery = {});

  bool run(std::size_t max_rounds);

  const SimStats& stats() const noexcept { return stats_; }
  std::size_t round() const noexcept { return round_; }

  NodeAgent& agent(NodeId v);
  const NodeAgent& agent(NodeId v) const;

  const Graph& graph() const noexcept { return *graph_; }

 private:
  friend class NodeContext;

  struct Routed {
    NodeId to = kInvalidNode;
    Message msg;
  };

  const Graph* graph_;
  DeliveryOptions delivery_;
  std::vector<std::unique_ptr<NodeAgent>> agents_;
  std::vector<Routed> queues_[2];
  PayloadArena arenas_[2];
  unsigned write_ = 0;
  std::size_t round_ = 0;
  SimStats stats_;

  void enqueue(NodeId from, NodeId to, std::uint16_t type, PayloadView data);

  /// Runs \p r, the seq-th message of its (to, sender) run, through the
  /// delivery model: attempts 0..retry_budget, counting retries and drops.
  bool delivered(const Routed& r, std::size_t seq);
};

/// The pre-PR5 k-hop discovery agent, verbatim: per-node
/// std::map<NodeId, Known> with one try_emplace per delivered HELLO.
class NeighborhoodDiscoveryAgent : public NodeAgent {
 public:
  struct Known {
    Hops dist = kUnreachable;
    NodeId parent = kInvalidNode;
  };

  explicit NeighborhoodDiscoveryAgent(Hops k) : k_(k) {}

  void on_start(NodeContext& ctx) override;
  void on_message(NodeContext& ctx, const Message& msg) override;

  const std::map<NodeId, Known>& known() const noexcept { return known_; }

 private:
  static constexpr std::uint16_t kHello = 1;

  Hops k_;
  std::map<NodeId, Known> known_;
};

}  // namespace khop::reference
