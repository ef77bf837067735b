/// \file virtual_link.hpp
/// Virtual links between clusterheads (paper section 3.2): for a selected
/// head pair, the canonical shortest path in G connecting them; its hop count
/// is the pair's "virtual distance" and its interior nodes are the gateway
/// candidates.
///
/// Canonicality: the path is extracted from a min-id-parent BFS rooted at the
/// smaller head id, so the same topology always yields the same gateways.
#pragma once

#include <unordered_map>
#include <utility>
#include <vector>

#include "khop/common/types.hpp"
#include "khop/graph/graph.hpp"

namespace khop {

struct Workspace;
class ThreadPool;

struct VirtualLink {
  NodeId u = kInvalidNode;  ///< smaller head id
  NodeId v = kInvalidNode;  ///< larger head id
  Hops hops = 0;            ///< virtual distance
  std::vector<NodeId> path; ///< canonical shortest path u..v inclusive
};

/// Canonical-shortest-path store for a set of head pairs.
class VirtualLinkMap {
 public:
  /// Builds links for all \p pairs (unordered (min,max) head-id pairs).
  /// One unbounded BFS per distinct smaller endpoint, stopped once it has
  /// stamped that endpoint's last target (see build_bounded).
  static VirtualLinkMap build(
      const Graph& g, const std::vector<std::pair<NodeId, NodeId>>& pairs);

  /// Workspace variant: the per-source canonical BFS runs reuse \p ws.
  /// Bit-identical output; the overload above forwards here.
  static VirtualLinkMap build(
      const Graph& g, const std::vector<std::pair<NodeId, NodeId>>& pairs,
      Workspace& ws);

  /// Horizon-bounded build: each per-source sweep stops at \p horizon hops,
  /// or earlier, the moment its last target is stamped — possibly in the
  /// middle of a level. That early stop is exact: each level expands in
  /// ascending id order, so a node's first stamp already fixes its min-id
  /// parent, and every target's canonical path is complete by then.
  /// The paper's structure guarantees every selected pair lies within
  /// 2k+1 hops, so backbone construction passes that bound; a pair whose
  /// endpoints are farther apart (invariant-violating input) transparently
  /// reruns its source unbounded, so the output — including the
  /// NotConnected throw for truly disconnected endpoints — is bit-identical
  /// to the unbounded build on EVERY input. Pass kUnreachable for an
  /// unbounded build (what build() does).
  static VirtualLinkMap build_bounded(
      const Graph& g, const std::vector<std::pair<NodeId, NodeId>>& pairs,
      Hops horizon, Workspace& ws);

  static VirtualLinkMap build_bounded(
      const Graph& g, const std::vector<std::pair<NodeId, NodeId>>& pairs,
      Hops horizon);

  /// Parallel bounded build: per-source sweeps fan out across \p pool's
  /// workers (each using its thread's tls_workspace()) and merge in
  /// ascending source order, so the output is bit-identical to the serial
  /// overloads for any thread count.
  static VirtualLinkMap build_bounded(
      const Graph& g, const std::vector<std::pair<NodeId, NodeId>>& pairs,
      Hops horizon, ThreadPool& pool);

  /// Adopts already-extracted links. \pre each link has u < v; no duplicate
  /// (u,v) keys. Used by the fused NC sweep (gateway/head_sweep.hpp), which
  /// extracts links during head discovery, and by the gateway oracle
  /// (tests/oracles/gateway_reference.hpp).
  static VirtualLinkMap from_links(std::vector<VirtualLink> links);

  /// Link for the unordered pair {a, b}. Throws InvalidArgument if absent.
  const VirtualLink& link(NodeId a, NodeId b) const;

  bool contains(NodeId a, NodeId b) const;

  /// Link for the unordered pair {a, b}, or nullptr if absent.
  const VirtualLink* find(NodeId a, NodeId b) const;

  /// Upserts a link: replaces the stored path for the pair if present, else
  /// adds it. Used by the churn engine's incremental re-sweeps.
  /// \pre l.u < l.v
  void insert(VirtualLink l);

  /// Drops the link for the unordered pair {a, b} if present; returns
  /// whether one was removed. O(1) (swap-pop).
  bool erase(NodeId a, NodeId b);

  const std::vector<VirtualLink>& all() const noexcept { return links_; }

  /// Number of sources whose bounded sweep missed a target and was rerun
  /// unbounded (0 whenever the 2k+1 invariant holds; diagnostic only).
  std::size_t bounded_fallbacks() const noexcept { return bounded_fallbacks_; }

 private:
  std::vector<VirtualLink> links_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
  std::size_t bounded_fallbacks_ = 0;

  static std::uint64_t key(NodeId a, NodeId b) noexcept;
};

}  // namespace khop
