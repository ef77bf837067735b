/// \file relabel.hpp
/// Space-filling-curve locality relabeling: renumber nodes by the Hilbert
/// index of their placement so that ids that are close numerically are close
/// spatially. On a unit-disk graph every adjacency row then references
/// near-contiguous ids, which turns the random scatter of CSR neighbor walks
/// at n = 10^6 into mostly-sequential cache-line traffic.
///
/// What relabeling preserves bit-exactly, and what it cannot:
///  * relabel(g, r) followed by relabel(g', inverse(r)) is the identity on
///    the Graph and on positions — round-trips are bit-exact.
///  * BFS hop distances are exactly permutation-equivariant:
///    dist_{g'}(r(u), r(v)) == dist_g(u, v) for every u, v.
///  * khop_clustering with *carried* priorities (relabel(priorities, r)):
///    the winner set of every election round depends only on priority keys
///    and distances, both equivariant, so the head set, election_rounds and
///    (under kDistanceBased) every node's dist_to_head are equivariant —
///    PROVIDED the keys are distinct. Equal keys (e.g. the constant-key
///    make_priorities(kLowestId) encoding) fall through to the embedded id
///    tie-break, which relabel() rewrites to the new space, so such runs
///    elect lowest *new* ids instead. Use explicit distinct keys (e.g.
///    key = old id) when equivariance matters.
///  * NOT equivariant: canonical BFS parents, gateway/path selections and
///    the kIdBased affiliation — these tie-break on raw node ids by design,
///    so the relabeled run resolves ties in the new id space. The relabeled
///    pipeline is still bit-exact against the *reference implementations on
///    the relabeled graph* (the library's oracle contract), and its
///    inverse-mapped backbone still validates as a k-hop CDS of the
///    original graph; it is just a different — equally canonical — choice
///    among equal-cost outputs. docs/scaling.md discusses when to use it.
#pragma once

#include <cstdint>
#include <vector>

#include "khop/cluster/clustering.hpp"
#include "khop/cluster/priority.hpp"
#include "khop/common/types.hpp"
#include "khop/gateway/backbone.hpp"
#include "khop/geom/point.hpp"
#include "khop/graph/bfs.hpp"
#include "khop/graph/graph.hpp"

namespace khop {

/// A node renumbering: new_of_old[old] == new and old_of_new[new] == old
/// (mutually inverse permutations of [0, n)).
struct Relabeling {
  std::vector<NodeId> new_of_old;
  std::vector<NodeId> old_of_new;

  std::size_t size() const noexcept { return new_of_old.size(); }
};

/// The identity renumbering over [0, n).
Relabeling identity_relabeling(std::size_t n);

/// Swaps the two directions: relabel(x, inverse(r)) undoes relabel(x, r).
Relabeling inverse(const Relabeling& r);

/// d-index of cell (x, y) on the order-\p order Hilbert curve (a 2^order x
/// 2^order grid); x, y < 2^order. Standard Wikipedia xy2d construction.
std::uint64_t hilbert_d_index(std::uint32_t x, std::uint32_t y,
                              std::uint32_t order);

/// Renumbering that sorts nodes by the Hilbert index of their position,
/// quantized to a 2^16 grid over the bounding box (ties, e.g. coincident
/// points, break by old id so the result is a deterministic permutation).
Relabeling sfc_relabeling(const std::vector<Point2>& pts);

/// The graph with node ids permuted: g' has edge {r(u), r(v)} iff g has
/// {u, v}. Permutes the CSR arrays directly (no edge-list intermediate).
Graph relabel(const Graph& g, const Relabeling& r);

/// Positions permuted to the new id space: out[r(u)] == pts[u].
std::vector<Point2> relabel(const std::vector<Point2>& pts,
                            const Relabeling& r);

/// Priority keys carried to the new id space: out[r(u)].key == prios[u].key
/// with the embedded tie-break id rewritten to r(u). Carrying keys keeps the
/// election's priority order equivariant under the renumbering.
std::vector<PriorityKey> relabel(const std::vector<PriorityKey>& prios,
                                 const Relabeling& r);

/// Results computed on the relabeled graph, mapped back to original ids.
/// `r` must be the relabeling the run used (new-id space -> old-id space).
BfsTree to_original_ids(const BfsTree& t, const Relabeling& r);
Clustering to_original_ids(const Clustering& c, const Relabeling& r);
Backbone to_original_ids(const Backbone& b, const Relabeling& r);

}  // namespace khop
