/// \file lmst.hpp
/// LMST-based gateway algorithm (LMSTGA, paper section 3.2).
///
/// Each clusterhead u views its selected neighbor heads S(u) as a virtual
/// 1-hop neighborhood: it knows every virtual link among {u} ∪ S(u) (each
/// head broadcasts its own S and distances - step 7 of Algorithm AC-LMST)
/// and builds a local minimum spanning tree rooted at itself, using hop
/// counts as weights and head-id pairs to break ties. Only the on-tree links
/// incident to u are kept by u; a virtual link survives if either endpoint
/// keeps it (the LMST G0 union), exactly the structure Theorem 2's induction
/// requires. Interior nodes of surviving links become gateways.
///
/// The per-head decision is LmstKernel: a flat, allocation-free (after
/// warm-up) kernel over a dense local weight matrix. lmst_gateways runs it
/// for every head and realizes the result; the churn engine
/// (dynamic/churn_engine.hpp) runs it only for heads whose local virtual
/// graph changed and realizes incrementally.
///
/// Under A-NCR, LMSTGA keeps more links than under NC at equal view depth
/// (S_AC(u) ⊆ S_NC(u), so u's AC local graph has fewer relays), the reverse
/// of the paper's AC-LMST < NC-LMST; README.md, "Deviations from the
/// paper", gives the numbers and the argument.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "khop/cluster/clustering.hpp"
#include "khop/gateway/virtual_link.hpp"
#include "khop/nbr/neighbor_rules.hpp"
#include "khop/runtime/exec.hpp"

namespace khop {

/// Which directed keep-decisions realize a virtual link.
///
/// Li-Hou-Sha prove connectivity for both the union graph G0 (a link
/// survives if either endpoint keeps it) and the intersection G0 ∩ G1 (both
/// endpoints must keep it); the paper's Theorem 2 induction goes through for
/// either. Union is the faithful reading of LMSTGA ("each clusterhead
/// selects the on-tree neighbors to connect to"); intersection prunes the
/// one-sided links and is provided as an ablation.
enum class LmstKeepRule : std::uint8_t {
  kEitherEndpoint,  ///< G0 union - paper default
  kBothEndpoints,   ///< G0 ∩ G1 - stricter, still connected
};

/// One head's LMSTGA keep decision, from local data only. Owns its scratch
/// (local node list, m×m weight matrix, Prim state), so reusing one kernel
/// across heads allocates only when a larger local graph appears.
class LmstKernel {
 public:
  /// Writes to \p out, ascending, the heads u keeps: u's children in the
  /// minimum spanning tree of the local virtual graph over {u} ∪ \p sel,
  /// rooted at u. \p sel is S(u), ascending. \p pair_hops(a, b), called
  /// with a <= b, returns the virtual distance of the selected pair {a, b},
  /// or kUnreachable when the pair is not in the local graph. Ties break by
  /// the (weight, min id, max id) order of edge_less, so the tree is the one
  /// the Prim oracle in tests/oracles/mst_reference.hpp builds. Throws
  /// NotConnected if the local graph does not span.
  template <typename PairHops>
  void keep_list(NodeId u, std::span<const NodeId> sel, PairHops&& pair_hops,
                 std::vector<NodeId>& out) {
    local_.assign(sel.begin(), sel.end());
    const auto root = static_cast<std::size_t>(
        std::lower_bound(local_.begin(), local_.end(), u) - local_.begin());
    local_.insert(local_.begin() + static_cast<std::ptrdiff_t>(root), u);
    const std::size_t m = local_.size();
    weight_.assign(m * m, kUnreachable);
    for (std::size_t a = 0; a < m; ++a) {
      for (std::size_t b = a + 1; b < m; ++b) {
        const Hops w = pair_hops(local_[a], local_[b]);
        weight_[a * m + b] = w;
        weight_[b * m + a] = w;
      }
    }
    prim_children(root, out);
  }

 private:
  /// Prim over the filled matrix from \p root; writes root's children.
  void prim_children(std::size_t root, std::vector<NodeId>& out);

  /// {u} ∪ S(u), ascending, so local index order is id order.
  std::vector<NodeId> local_;
  std::vector<Hops> weight_;  ///< m×m, row-major; kUnreachable = no pair
  std::vector<std::uint8_t> in_tree_;
  std::vector<std::uint32_t> best_;  ///< tree endpoint of v's lightest edge
};

struct LmstResult {
  /// Virtual links kept by at least one endpoint, as (min,max) head ids.
  std::vector<std::pair<NodeId, NodeId>> kept_links;
  /// Interior nodes of kept links, minus clusterheads. Sorted.
  std::vector<NodeId> gateways;
  /// Links kept by exactly one endpoint (diagnostic: the LMST G0 asymmetry).
  std::size_t asymmetric_links = 0;
};

/// Runs LMSTGA on the given neighbor selection: LmstKernel for every head,
/// then the keep rule and the gateway marking. The kernels read the pair
/// distances from a flat table built once per call in *exec.ws, one row
/// per head holding (b, hops) ascending for each selected pair {a, b} with
/// a < b, and record their keep decisions in it. The kernels run in blocks
/// of contiguous head indices under \p exec, each block with its own
/// LmstKernel setting its heads' keep flags; the keep rule and the gateway
/// marking then run on the calling thread, one pass over the pairs in
/// canonical order. Bit-identical for any block count: a throwing head
/// raises the exception the one-block run raises first.
/// \pre every selected pair has a virtual link in \p links, and both of
///      its endpoints are heads (checked: throws InvalidArgument)
LmstResult lmst_gateways(const Clustering& c, const NeighborSelection& sel,
                         const VirtualLinkMap& links,
                         LmstKeepRule keep = LmstKeepRule::kEitherEndpoint,
                         Exec exec = {});

}  // namespace khop
