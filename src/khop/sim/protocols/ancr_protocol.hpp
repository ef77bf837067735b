/// \file ancr_protocol.hpp
/// Distributed A-NCR (paper section 3.1 / algorithm AC-LMST steps 1-8):
/// given an already-clustered network, each clusterhead learns its adjacent
/// clusterheads, the hop distances to them, and its neighbors' own adjacency
/// sets - everything LMSTGA needs - using only local message exchange.
///
/// Phase schedule (k = clustering parameter; rounds are engine rounds):
///   [0, k]        HEADCAST    heads flood their id k hops; members record
///                             distance + parent toward their own head.
///   k             CLUSTERID   every node broadcasts its head id once.
///   (k, 2k+1]     WITNESS     nodes that saw a foreign-cluster neighbor
///                             report that cluster's head id to their own
///                             head along HEADCAST parents.
///   (2k+1, 4k+2]  HEADCAST2   heads flood their id 2k+1 hops; everyone
///                             records distance + parent toward each head
///                             within 2k+1 hops.
///   (4k+2, 6k+3]  ADJSET      heads flood their adjacency set (with
///                             distances) 2k+1 hops; heads capture their
///                             neighbors' sets.
///
/// After round 6k+3 each head holds exactly the A-NCR neighbor selection the
/// centralized select_neighbors(kAdjacent) computes.
///
/// Per-node state is flat and small: the heads heard by each HEADCAST flood
/// are vectors sorted by head id (a node hears a handful), the CLUSTERID
/// phase keeps only the distinct foreign heads, and a head's adjacency is a
/// sorted vector. The ADJSET flood's duplicate suppression is a mark on the
/// HEADCAST2 record of its origin (both floods span the same 2k+1 hops);
/// only heads, which need the sets for LMSTGA, store them, in one flat pair
/// buffer. Relays copy forwarded payloads into a reused per-thread buffer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "khop/cluster/clustering.hpp"
#include "khop/nbr/neighbor_rules.hpp"
#include "khop/sim/engine.hpp"

namespace khop {

class AncrAgent : public NodeAgent {
 public:
  /// One head heard by a HEADCAST flood: hop distance and the canonical
  /// (min-id) parent toward it.
  struct HeadInfo {
    NodeId head = kInvalidNode;
    Hops dist = kUnreachable;
    NodeId parent = kInvalidNode;
    /// HEADCAST2 records only: the head's ADJSET was heard. Heads also keep
    /// it, as adjset_pairs_[adj_begin, adj_end).
    bool adjset_heard = false;
    std::uint32_t adj_begin = 0;
    std::uint32_t adj_end = 0;
  };

  /// \p my_head / \p my_dist come from a completed clustering.
  AncrAgent(Hops k, NodeId my_head, Hops my_dist);

  void on_start(NodeContext& ctx) override;
  void on_message(NodeContext& ctx, const Message& msg) override;
  void on_round_end(NodeContext& ctx) override;
  bool finished() const override;

  bool is_head(NodeContext& ctx) const;
  NodeId my_head() const noexcept { return my_head_; }

  /// Heads only: adjacent head ids (the A-NCR selection), ascending.
  const std::vector<NodeId>& adjacent_heads() const noexcept {
    return adjacency_;
  }
  /// Every node: the heads within 2k+1 hops, ascending by head id.
  std::span<const HeadInfo> far_heads() const noexcept { return far_heads_; }
  /// The far_heads() record of \p head, or nullptr if not within 2k+1 hops.
  const HeadInfo* far_head(NodeId head) const;

  /// Round after which the A-NCR state is complete.
  std::size_t done_round() const noexcept {
    return 6 * static_cast<std::size_t>(k_) + 3;
  }

 protected:
  static constexpr std::uint16_t kHeadcast = 20;
  static constexpr std::uint16_t kClusterId = 21;
  static constexpr std::uint16_t kWitness = 22;
  static constexpr std::uint16_t kHeadcast2 = 23;
  static constexpr std::uint16_t kAdjSet = 24;

  Hops k_;
  NodeId my_head_;
  Hops my_dist_;
  bool am_head_ = false;

  /// Phase 1: heads within k hops, ascending by head.
  std::vector<HeadInfo> near_heads_;
  /// Distinct heads of neighbors in other clusters, from CLUSTERID.
  std::vector<NodeId> foreign_heads_;
  /// Heads only: adjacent head ids accumulated from witnesses, ascending.
  std::vector<NodeId> adjacency_;
  /// Phase 4: heads within 2k+1 hops, ascending by head.
  std::vector<HeadInfo> far_heads_;
  /// Heads only: the (head, distance) pairs of every ADJSET heard, one
  /// contiguous run per origin (see HeadInfo::adj_begin).
  std::vector<std::pair<NodeId, Hops>> adjset_pairs_;

  bool ancr_done_ = false;

  /// Heads only: the distance \p from reported to \p to in its ADJSET, or
  /// kUnreachable if \p to is not in it (or it was not heard).
  Hops reported_dist(NodeId from, NodeId to) const;

  /// Inserts \p x into the ascending, duplicate-free \p v; false if present.
  template <typename T>
  static bool insert_sorted(std::vector<T>& v, const T& x) {
    const auto it = std::lower_bound(v.begin(), v.end(), x);
    if (it != v.end() && *it == x) return false;
    v.insert(it, x);
    return true;
  }

  /// Hook for subclasses: called once at round done_round().
  virtual void on_ancr_complete(NodeContext& /*ctx*/) {}

 private:
  /// HEADCAST/HEADCAST2 reception: keep the shortest (then min-parent)
  /// record in \p table and relay first arrivals below \p radius hops.
  void on_headcast(NodeContext& ctx, const Message& msg,
                   std::vector<HeadInfo>& table, Hops radius);
};

/// Runs the protocol over a clustered graph and returns the selection in the
/// same shape as the centralized select_neighbors(kAdjacent).
NeighborSelection run_distributed_ancr(const Graph& g, const Clustering& c,
                                       SimStats* stats = nullptr);

/// The NC baseline as a protocol: the same exchange, but each head selects
/// every head it heard within 2k+1 hops (HEADCAST2) instead of only the
/// adjacent ones. Matches select_neighbors(kAllWithin2k1).
NeighborSelection run_distributed_nc(const Graph& g, const Clustering& c,
                                     SimStats* stats = nullptr);

}  // namespace khop
