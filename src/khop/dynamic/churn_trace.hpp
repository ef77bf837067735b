/// \file churn_trace.hpp
/// Deterministic fault-injection schedules for the churn engine.
///
/// A ChurnTrace is a pre-generated sequence of topology events (node
/// failures, joins, link flips) that is *valid by construction*: the
/// generator simulates the sequence on a DynamicGraph while drawing events,
/// so a failure always names an alive node, a join always revives a dead one
/// with alive neighbors, and link flips always connect alive endpoints.
/// Replaying the same trace therefore never trips a precondition, and the
/// same (graph, config, seed) triple always yields the same schedule — the
/// property every engine-vs-oracle equivalence test relies on.
///
/// Besides uniform background churn the generator supports two scripted
/// scenarios: a failure *burst* (a whole BFS ball around a pivot dies over
/// consecutive events, modelling a localized outage) and a forced
/// *partition* (the ring at a fixed BFS distance around a pivot dies, which
/// provably disconnects the ball interior, then optionally rejoins later to
/// exercise component merging).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "khop/common/types.hpp"
#include "khop/graph/dynamic_graph.hpp"
#include "khop/graph/graph.hpp"

namespace khop {

enum class ChurnEventType : std::uint8_t {
  kFail,      ///< node a switches off (all incident links drop)
  kJoin,      ///< dead node a switches back on with links to `neighbors`
  kLinkDown,  ///< link {a, b} drops (both endpoints stay alive)
  kLinkUp,    ///< link {a, b} appears (both endpoints alive)
};

struct ChurnEvent {
  ChurnEventType type = ChurnEventType::kFail;
  NodeId a = kInvalidNode;  ///< subject node / smaller link endpoint
  NodeId b = kInvalidNode;  ///< larger link endpoint (link events only)
  std::vector<NodeId> neighbors;  ///< join events: links of the revived node
};

/// Throws InvalidArgument unless \p e is applicable to \p g: every id in
/// range; a failure names an alive node and a join a dead one; link
/// endpoints alive and distinct; join neighbors alive, distinct and != a.
/// Every entry point calls it before any side effect, so a rejected event
/// changes, counts and logs nothing.
void check_event(const DynamicGraph& g, const ChurnEvent& e);

/// Applies \p e to \p g after check_event, so it changes all or nothing.
/// The single mutation path shared by the trace generator, the churn engine,
/// and the reference maintainer, so all three always see identical topology
/// sequences. Returns false when the event is a structural no-op (link
/// already in the requested state).
bool apply_event(DynamicGraph& g, const ChurnEvent& e);

struct ChurnTraceConfig {
  std::size_t num_events = 1000;

  /// Relative weights of the background event mix (normalized internally).
  double p_fail = 1.0;
  double p_join = 1.0;
  double p_link_down = 1.0;
  double p_link_up = 1.0;

  /// Joins link the revived node to at most this many alive nodes drawn
  /// from a random anchor's 2-hop neighborhood.
  std::size_t max_join_degree = 6;

  /// Failures and link-downs are suppressed once the alive population
  /// reaches this floor (the trace then draws additive events instead).
  std::size_t min_alive = 8;

  static constexpr std::size_t kNoScenario = static_cast<std::size_t>(-1);

  /// Burst scenario: starting at this event index, every node within
  /// burst_radius hops of a random pivot fails on consecutive events.
  std::size_t burst_at = kNoScenario;
  Hops burst_radius = 1;

  /// Partition scenario: starting at this event index, the entire BFS ring
  /// at distance partition_radius around a random pivot fails on
  /// consecutive events, disconnecting the ball interior from the rest.
  /// rejoin_after background events later, the ring nodes rejoin (with
  /// their surviving former links), merging the components back.
  std::size_t partition_at = kNoScenario;
  Hops partition_radius = 2;
  std::size_t rejoin_after = 50;
};

class ChurnTrace {
 public:
  /// Generates a valid event schedule for a network starting at \p g0.
  /// Deterministic in (g0, cfg, seed).
  static ChurnTrace generate(const Graph& g0, const ChurnTraceConfig& cfg,
                             std::uint64_t seed);

  const std::vector<ChurnEvent>& events() const noexcept { return events_; }
  std::size_t size() const noexcept { return events_.size(); }

 private:
  std::vector<ChurnEvent> events_;
};

}  // namespace khop
