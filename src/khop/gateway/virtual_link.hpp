/// \file virtual_link.hpp
/// Virtual links between clusterheads (paper section 3.2): for a selected
/// head pair, the canonical shortest path in G connecting them; its hop count
/// is the pair's "virtual distance" and its interior nodes are the gateway
/// candidates.
///
/// Canonicality: the path is extracted from a min-id-parent BFS rooted at the
/// smaller head id, so the same topology always yields the same gateways.
///
/// Layout: a map keeps one fixed-size header per link (all()) and every path
/// in one NodeId arena; a header names its path by (offset, length), read
/// back with path() or interior(). A (u, v)-sorted index in per-source rows
/// (row u: the larger endpoints of u's links, ascending) answers find() with
/// a search of one short row. The bulk builds append each block's links to
/// that block's own header and path buffers (VirtualLinkBlock) and
/// concatenate the blocks in source order, so a build makes a constant
/// number of allocations per block, none per path, and its index costs
/// O(L + largest source id).
///
/// A front end's map is the only pair store the gateway combiners read:
/// mesh and LMSTGA walk all(), LMSTGA's kernels (and the churn engine's)
/// take pair distances from hops(), and its keep flags are indexed by
/// position in all(); no combiner reads the selection's head_pairs.
///
/// Mutation (the churn engine's incremental re-sweeps): insert overwrites a
/// stored path in place when the new one is no longer, and otherwise appends
/// it and leaves the old slot dead; erase swap-pops the header, so all()
/// order is whatever the mutations leave (snapshots record that order). Once
/// dead arena entries outnumber live ones the arena is compacted in all()
/// order, so it stays below twice the live path nodes and a mutation costs
/// amortized O(path length); adding or dropping a pair also shifts the
/// index, O(L + largest source id).
/// Headers and spans handed out are invalidated by any mutation.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "khop/common/types.hpp"
#include "khop/graph/graph.hpp"
#include "khop/runtime/exec.hpp"

namespace khop {

class BfsScratch;

/// One virtual link's header; its path lives in the owning arena.
struct VirtualLink {
  NodeId u = kInvalidNode;   ///< smaller head id
  NodeId v = kInvalidNode;   ///< larger head id
  Hops hops = 0;             ///< virtual distance
  std::uint32_t length = 0;  ///< path nodes, u..v inclusive (hops + 1)
  std::size_t offset = 0;    ///< first path node in the arena
};

/// Links extracted by one worker: headers whose offsets index this block's
/// own arena. VirtualLinkMap::from_links concatenates blocks.
struct VirtualLinkBlock {
  std::vector<VirtualLink> links;
  std::vector<NodeId> arena;

  /// Appends the link (bfs.source(), v) with its canonical path from \p
  /// bfs's last single-source run. \pre bfs.source() < v, v reached.
  void append(NodeId v, const BfsScratch& bfs);
};

/// Canonical-shortest-path store for a set of head pairs.
class VirtualLinkMap {
 public:
  /// Builds the canonical links of all \p pairs (unordered head-id pairs;
  /// reversed and repeated pairs are folded): one sweep per distinct smaller
  /// endpoint, bounded at \p horizon hops, that stops the moment its last
  /// target is stamped — possibly in the middle of a level. That early stop
  /// is exact: each level expands in ascending id order, so a node's first
  /// stamp already fixes its min-id parent, and every target's canonical
  /// path is complete by then. The paper's structure guarantees every
  /// selected pair lies within 2k+1 hops, so backbone construction passes
  /// that bound; a pair whose endpoints are farther apart (invariant-
  /// violating input) transparently reruns its source unbounded, so the
  /// output — including the NotConnected throw for truly disconnected
  /// endpoints — is the unbounded build's on EVERY input. The default
  /// horizon, kUnreachable, builds unbounded.
  ///
  /// Under \p exec the sources run in blocks of consecutive sources, each
  /// into its own VirtualLinkBlock, concatenated in ascending source order:
  /// bit-identical for one block on a workspace and for any pool size.
  static VirtualLinkMap build(
      const Graph& g, const std::vector<std::pair<NodeId, NodeId>>& pairs,
      Hops horizon = kUnreachable, Exec exec = {});

  /// Adopts already-extracted links: \p blocks' links concatenated in block
  /// order, their paths moved into one arena (a single block is adopted
  /// without a copy). Throws InvalidArgument unless each link has u < v and
  /// its path inside its block's arena, and no (u, v) key repeats. An index
  /// row is sorted only when it does not already ascend, as every build's
  /// rows do and a decoded snapshot's may not. Used by the fused
  /// NC sweep (gateway/head_sweep.hpp), the snapshot decoder and the gateway
  /// oracle (tests/oracles/gateway_reference.hpp).
  static VirtualLinkMap from_links(std::vector<VirtualLinkBlock> blocks);

  /// Link for the unordered pair {a, b}. Throws InvalidArgument if absent.
  const VirtualLink& link(NodeId a, NodeId b) const;

  bool contains(NodeId a, NodeId b) const;

  /// Link for the unordered pair {a, b}, or nullptr if absent.
  const VirtualLink* find(NodeId a, NodeId b) const;

  /// Virtual distance of the unordered pair {a, b}, or kUnreachable if
  /// absent: the pair weight the LMSTGA kernels read.
  Hops hops(NodeId a, NodeId b) const {
    const VirtualLink* l = find(a, b);
    return l != nullptr ? l->hops : kUnreachable;
  }

  /// The path of \p l, a header of this map: u..v inclusive.
  std::span<const NodeId> path(const VirtualLink& l) const noexcept {
    return {arena_.data() + l.offset, l.length};
  }

  /// The interior of \p l's path (its gateway candidates): the path without
  /// its two endpoints.
  std::span<const NodeId> interior(const VirtualLink& l) const noexcept {
    const std::span<const NodeId> p = path(l);
    return p.size() < 2 ? p.first(0) : p.subspan(1, p.size() - 2);
  }

  /// Upserts the link (u, v): replaces the stored path for the pair if
  /// present, else adds it. Used by the churn engine's incremental
  /// re-sweeps. \pre u < v; \p p does not point into this map's arena.
  void insert(NodeId u, NodeId v, Hops hops, std::span<const NodeId> p);

  /// Drops the link for the unordered pair {a, b} if present; returns
  /// whether one was removed. Swap-pop: the last header takes its place.
  bool erase(NodeId a, NodeId b);

  /// Every link header, in build order (ascending (u, v)) or the order the
  /// mutations left.
  const std::vector<VirtualLink>& all() const noexcept { return links_; }

  /// Path nodes held in the arena, dead entries included (diagnostic: stays
  /// below twice the live path nodes).
  std::size_t arena_size() const noexcept { return arena_.size(); }

  /// Number of sources whose bounded sweep missed a target and was rerun
  /// unbounded (0 whenever the 2k+1 invariant holds; diagnostic only).
  std::size_t bounded_fallbacks() const noexcept { return bounded_fallbacks_; }

 private:
  /// One index entry: the position in links_ of the link (u, v), for the
  /// source u whose row holds it.
  struct IndexEntry {
    NodeId v;
    std::uint32_t pos;
  };

  std::vector<VirtualLink> links_;
  std::vector<NodeId> arena_;
  /// Row u of the index, index_[row_[u], row_[u + 1]), lists the links
  /// whose smaller endpoint is u, larger endpoint ascending; row_ spans the
  /// largest source seen plus two.
  std::vector<IndexEntry> index_;
  std::vector<std::uint32_t> row_;
  std::size_t dead_ = 0;  ///< arena entries no header points at
  std::size_t bounded_fallbacks_ = 0;

  static constexpr std::size_t kNoEntry = static_cast<std::size_t>(-1);
  /// index_ position of the pair {a, b}, or kNoEntry.
  std::size_t entry(NodeId a, NodeId b) const;
  /// Where row \p u holds, or would hold, target \p v.
  /// \pre u + 1 < row_.size()
  std::size_t slot(NodeId u, NodeId v) const;
  /// Rewrites the arena with only the live paths, in links_ order, once
  /// dead entries outnumber live ones.
  void maybe_compact();
};

}  // namespace khop
