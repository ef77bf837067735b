/// \file churn_engine.hpp
/// Continuous-maintenance engine: incremental k-hop repair under churn.
///
/// A ChurnEngine owns a mutable topology (DynamicGraph) plus the live
/// clustering and backbone, and repairs them *incrementally* after every
/// topology event — no event path ever rebuilds the clustering or backbone
/// from scratch. The repair policy is the one documented with its
/// full-recompute oracle in tests/oracles/churn_reference.hpp (strict
/// domination, sticky affiliation, nearest-head adoption, iterative lowest-id
/// election for the rest); the scoping that makes it incremental:
///
///  * Distance repair: a head's member distances can only change if a
///    mutated vertex lies within k hops of it (any altered shortest path
///    passes through a mutated vertex). Seed BFS runs from the event's
///    vertices — on the pre-event topology for removals, post-event for
///    additions — mark those heads; only their member lists are rechecked
///    with one k-bounded BFS each.
///  * Selection + virtual-link repair: a head's neighbor selection and the
///    canonical 2k+1-hop link paths it owns can only change if a mutated or
///    re-affiliated vertex lies within 2k+1 hops. The same seed sweeps (plus
///    a post-repair pass from re-affiliated nodes and new heads) mark those
///    heads; each re-runs exactly the canonical per-head sweep of
///    gateway/head_sweep.cpp and upserts/drops its owned links. Both NC and
///    AC selections are symmetric and any change marks both endpoints, so
///    links owned by an unmarked smaller head are still valid.
///  * Gateway combine: head h's keep decision reads only its local virtual
///    graph — S(h), the selected pairs among {h} ∪ S(h), and their hop
///    counts. A pair lies in that graph only if both endpoints are in
///    {h} ∪ S(h); selections are symmetric; and a pair's selection or link
///    changes only when one of its endpoints re-sweeps. So the heads whose
///    local graph can change are {x} ∪ S_old(x) ∪ S_new(x) over every
///    re-swept or dropped head x. The dependency follows the selection
///    graph, not a BFS radius, so it also covers a neighbor's neighbor
///    moving. Only those dirty heads recompute their directed keep list
///    (LmstKernel's local-MST children; mesh pipelines keep all of S(h)).
///    A touched pair is realized by the keep rule over its endpoints' keep
///    lists; a per-node count of the realized links' paths through it gives
///    the gateways; a realized link whose path a re-sweep replaces or drops
///    is recounted. The backbone is then a linear copy of the maintained
///    sets — no NeighborSelection, no global lmst/mesh pass, no BFS. Every
///    step is component-local, so partitions need no special casing.
///
/// Partitions degrade gracefully: orphans in a split-off component elect
/// their own heads, every surviving component keeps a valid backbone, and
/// component/merge counts are tracked (group-counting among a failed node's
/// former neighbors, bounded probe first). audit() cross-checks the whole
/// incremental state bit-exact against full recomputation.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "khop/cluster/clustering.hpp"
#include "khop/common/types.hpp"
#include "khop/dynamic/churn_trace.hpp"
#include "khop/gateway/backbone.hpp"
#include "khop/gateway/lmst.hpp"
#include "khop/graph/dynamic_graph.hpp"
#include "khop/runtime/workspace.hpp"

namespace khop {

struct ChurnEngineOptions {
  /// run(): audit after every N events (0 = only at the end).
  std::size_t audit_every = 0;
  /// Horizon of the cheap bounded connectivity probe tried before falling
  /// back to a full component walk (partition/merge accounting).
  Hops probe_horizon = 4;
};

/// Per-event repair summary.
struct ChurnEventReport {
  bool structural_noop = false;  ///< link already in the requested state
  std::size_t orphans = 0;
  std::size_t reaffiliated = 0;
  std::size_t new_heads = 0;
  std::size_t heads_resweeped = 0;
  /// Dirty heads whose gateway keep list was recomputed (see the combine
  /// bullet above). Report and telemetry only; not a ChurnCounters field.
  std::size_t lmst_heads = 0;
  /// Distinct nodes whose maintained state was recomputed this event
  /// (members distance-rechecked, orphans re-affiliated, heads re-swept).
  /// touched / n is the event's repair locality.
  std::size_t touched_nodes = 0;
  int component_delta = 0;
};

/// The raw cumulative counter block, separated from ChurnStats so the
/// publish watermark below can hold a second copy of exactly these fields.
/// full_rebuilds stays 0 by construction: no event path recomputes the
/// clustering or backbone from scratch.
struct ChurnCounters {
  std::size_t events = 0;
  std::size_t fails = 0;
  std::size_t joins = 0;
  std::size_t link_downs = 0;
  std::size_t link_ups = 0;
  std::size_t noop_events = 0;
  std::size_t full_rebuilds = 0;

  std::size_t orphans = 0;         ///< nodes that lost domination
  std::size_t reaffiliations = 0;  ///< orphans that joined another head
  std::size_t new_heads = 0;       ///< orphans promoted by election
  std::size_t heads_resweeped = 0;
  std::size_t touched_nodes = 0;  ///< repair-locality numerator (see report)
  std::size_t partitions = 0;     ///< component-count increases observed
  std::size_t merges = 0;         ///< component-count decreases via join/link
  std::size_t audits = 0;
};

/// Cumulative engine counters plus the registry-publication watermark.
struct ChurnStats : ChurnCounters {
  /// Counter values as of the last publish(). Persisted in snapshots, so an
  /// engine restored after a crash publishes only the delta it has not yet
  /// exported — restart never double-counts into the global registry.
  ChurnCounters published;

  /// Counts one incoming event of \p type (the single accounting point for
  /// the per-type counters; called once the event is checked, before any
  /// state mutation).
  void note_event(ChurnEventType type) noexcept;

  /// Folds one event's repair summary into the cumulative counters.
  void note_report(const ChurnEventReport& report) noexcept;

  /// Adds the delta since the last publish() to the global obs::Registry
  /// under the `churn.*` metric names (see docs/observability.md), then
  /// advances the watermark. The struct stays the per-engine view; the
  /// registry is the queryable cross-engine store. Idempotent at a quiescent
  /// point: publishing twice adds nothing the second time. (Per-event
  /// distributions — repair locality, resweep breadth — are recorded live
  /// by apply() as `churn.*` histograms when telemetry is enabled.)
  void publish();
};

/// Everything a snapshot must persist to reincarnate a ChurnEngine
/// bit-exactly (see ChurnEngine::restore). Derived structures — member
/// lists, per-head selections, the backbone — are deliberately absent:
/// restore() rebuilds them deterministically from these, which keeps the
/// snapshot format minimal and makes "snapshot captured everything" a
/// checkable property instead of a convention.
struct ChurnEngineRestore {
  DynamicGraph graph;
  Hops k = 1;
  Pipeline pipeline = Pipeline::kAcLmst;
  /// heads / head_of / dist_to_head are authoritative; cluster_of and
  /// election_rounds are not maintained under churn and are restored empty.
  Clustering clustering;
  VirtualLinkMap links;
  std::size_t num_components = 1;
  ChurnStats stats;
};

class ChurnEngine {
 public:
  /// Builds the initial clustering (id-priority, id-based affiliation) and
  /// backbone for \p g0 and takes ownership of the mutable topology.
  /// \pre k >= 1; g0 connected; pipeline != kGmst (a global MST over all
  /// heads has no local repair scope, so it is not maintainable here)
  ChurnEngine(const Graph& g0, Hops k, Pipeline pipeline,
              ChurnEngineOptions opts = {});

  /// Reincarnates an engine from persisted state: adopts the topology,
  /// clustering and virtual links verbatim, then deterministically rebuilds
  /// every derived structure (member lists, per-head selections from the
  /// symmetric link set, the combined backbone). Validates the clustering
  /// against the restored topology (sizes, strict-ascending live heads,
  /// per-node head/distance sanity) and throws InvalidArgument on any
  /// violation, so corrupt persisted state cannot become a live engine.
  static ChurnEngine restore(ChurnEngineRestore r,
                             ChurnEngineOptions opts = {});

  /// Applies one topology event and repairs clustering + backbone. The
  /// event is checked first (check_event): a rejected event throws
  /// InvalidArgument and changes nothing, its counters included.
  ChurnEventReport apply(const ChurnEvent& e);

  /// Applies every event of \p trace; audits every opts.audit_every events
  /// and once at the end, throwing InvariantViolation on the first audit
  /// failure. Returns the number of events applied.
  std::size_t run(const ChurnTrace& trace);

  /// Cross-checks the incremental state against full recomputation:
  /// topology consistency, membership structures, exact distances + strict
  /// domination, per-head selection, canonical link paths, and the
  /// per-component from-scratch backbone (bit-exact). Returns "" on
  /// success, else a description of the first violation.
  std::string audit();

  const DynamicGraph& graph() const noexcept { return g_; }
  Hops k() const noexcept { return k_; }
  Pipeline pipeline() const noexcept { return pipeline_; }

  /// Live clustering. heads/head_of/dist_to_head are maintained exactly;
  /// cluster_of is empty and election_rounds 0 (neither is maintained under
  /// churn; use head_of), in a fresh and a restored engine alike. Functions
  /// that index cluster_of, such as select_neighbors, reject it.
  const Clustering& clustering() const noexcept { return c_; }
  const Backbone& backbone() const noexcept { return backbone_; }
  std::size_t num_components() const noexcept { return num_components_; }
  const ChurnStats& stats() const noexcept { return stats_; }

  /// The maintained canonical-path store (exactly the selected head pairs).
  /// Persisted by snapshots; restore() derives the per-head selections back
  /// out of it.
  const VirtualLinkMap& virtual_links() const noexcept { return links_; }

  /// stats().publish() through the mutable engine (the watermark advances).
  void publish_stats() { stats_.publish(); }

 private:
  struct RestoreTag {};
  ChurnEngine(RestoreTag, ChurnEngineRestore r, ChurnEngineOptions opts);

  bool is_live_head(NodeId v) const {
    return g_.alive(v) && c_.head_of[v] == v;
  }

  void detach_member(NodeId v);
  void attach_member(NodeId v, NodeId head, Hops dist);
  void mark_from_seed(NodeId s, bool mark_k);
  std::size_t count_groups(const std::vector<NodeId>& nodes);
  bool probe_connected(NodeId a, NodeId b);
  void orphan_node(NodeId v, std::vector<NodeId>& orphans);
  void repair_distances(std::vector<NodeId>& orphans,
                        ChurnEventReport& report);
  void repair_affiliations(std::vector<NodeId>& orphans,
                           ChurnEventReport& report);
  void drop_dead_head(NodeId h);
  void resweep_heads(ChurnEventReport& report);
  void resweep_one(NodeId h);
  void retire_link(NodeId a, NodeId b);
  std::size_t combine();
  bool keeps(NodeId h, NodeId v) const;
  void settle(std::pair<NodeId, NodeId> p);
  void count_path(const VirtualLink& l, bool add);
  void touch(NodeId v, ChurnEventReport& report);

  DynamicGraph g_;
  Hops k_;
  Hops horizon_;  ///< 2k + 1
  Pipeline pipeline_;
  BackboneSpec spec_;
  ChurnEngineOptions opts_;

  Clustering c_;                ///< head_of / dist_to_head / heads live
  std::vector<NodeId> heads_;   ///< alive heads, ascending (== c_.heads)
  std::unordered_map<NodeId, std::vector<NodeId>> members_;  ///< head incl.
  std::vector<std::uint32_t> member_pos_;  ///< v -> index in its member list
  std::unordered_map<NodeId, std::vector<NodeId>> sel_;  ///< head -> selected
  VirtualLinkMap links_;
  /// Gateway state, maintained by combine(): each head's directed keep list
  /// (ascending), the realized pairs (ascending), and per node the number of
  /// realized links whose path interior contains it (nonzero ones listed
  /// ascending in interior_). Derived, never persisted.
  std::unordered_map<NodeId, std::vector<NodeId>> keep_;
  std::vector<std::pair<NodeId, NodeId>> kept_links_;
  std::vector<std::uint32_t> path_refs_;
  std::vector<NodeId> interior_;
  LmstKernel lmst_;
  Backbone backbone_;
  std::size_t num_components_ = 1;
  ChurnStats stats_;
  Workspace ws_;

  // Per-event scratch (cleared in apply()).
  std::unordered_set<NodeId> affected_k_;
  std::unordered_set<NodeId> affected_H_;
  EpochFlags touched_;
  std::vector<NodeId> dirty_;  ///< heads whose keep list must be recomputed
  std::vector<std::pair<NodeId, NodeId>> changed_;  ///< pairs to re-settle
};

}  // namespace khop
