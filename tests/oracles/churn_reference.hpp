/// \file churn_reference.hpp
/// Naive full-recompute oracle for the churn engine.
///
/// The churn maintenance *policy* (which node affiliates where after an
/// event) is history-dependent, so it cannot be audited against a
/// from-scratch clustering. ReferenceChurnMaintainer is instead a
/// deliberately naive implementation of the exact same repair policy as
/// ChurnEngine: after every event it recomputes all member distances with
/// full-graph BFS, re-adopts and re-elects orphans, with no locality scoping
/// whatsoever. The engine's incremental state must match it bit-for-bit
/// after every event; the two implementations share no repair code, so a
/// scoping bug in the engine cannot hide in the oracle.
///
/// Repair policy (shared spec, implemented twice):
///  1. Strict domination: every alive node's head must be alive and within
///     k hops. A node violating this after an event is an *orphan*; nodes
///     still dominated never re-affiliate (sticky affiliation), but their
///     dist_to_head is kept exact.
///  2. Orphans first *adopt* the nearest surviving pre-event head within
///     k hops (ties: smaller head id).
///  3. Remaining orphans run the paper's iterative lowest-id election among
///     themselves: an orphan wins iff no undecided orphan with a smaller id
///     lies within k hops; non-winners that hear a winner within k join the
///     (distance, id)-minimal one; repeat until decided.
///  4. Heads are only demoted by dying; a joining node enters as an orphan.
#pragma once

#include <vector>

#include "khop/common/types.hpp"
#include "khop/dynamic/churn_reference.hpp"
#include "khop/dynamic/churn_trace.hpp"
#include "khop/gateway/backbone.hpp"
#include "khop/graph/dynamic_graph.hpp"

namespace khop {

/// Full-recompute implementation of the churn repair policy (see file
/// comment). State after every apply() is the policy's ground truth.
class ReferenceChurnMaintainer {
 public:
  /// Starts from the same initial clustering as ChurnEngine (id-priority
  /// k-hop clustering with id-based affiliation). \pre g0 connected.
  ReferenceChurnMaintainer(const Graph& g0, Hops k, Pipeline pipeline);

  void apply(const ChurnEvent& e);

  const DynamicGraph& graph() const noexcept { return g_; }
  Hops k() const noexcept { return k_; }
  /// node -> head (self for heads, kInvalidNode for dead nodes)
  const std::vector<NodeId>& head_of() const noexcept { return head_of_; }
  /// node -> exact hop distance to its head (kUnreachable for dead nodes)
  const std::vector<Hops>& dist_to_head() const noexcept { return dist_; }
  /// Alive heads, ascending.
  std::vector<NodeId> heads() const;

  /// From-scratch backbone for the current state.
  Backbone rebuild_backbone() const {
    return rebuild_backbone_oracle(g_, k_, head_of_, pipeline_);
  }

 private:
  DynamicGraph g_;
  Hops k_;
  Pipeline pipeline_;
  std::vector<NodeId> head_of_;
  std::vector<Hops> dist_;
};

}  // namespace khop
