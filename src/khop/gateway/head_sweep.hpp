/// \file head_sweep.hpp
/// Fused NC head-neighbor discovery + virtual-link extraction: ONE bounded
/// BFS (horizon 2k+1) per clusterhead serves both phase-1 questions at once.
///
/// The paper's structure makes this possible: under the NC rule a head's
/// neighbor heads are exactly the heads inside its 2k+1-hop ball, and the
/// canonical virtual link for a pair (u, v), u < v, is extracted from the
/// min-id-parent BFS rooted at u — the very sweep that discovered v. The
/// pre-PR4 layering ran this as two passes (select_nc: one bounded BFS per
/// head plus an O(H) all-heads probe; VirtualLinkMap::build: one UNBOUNDED
/// BFS per source head), making backbone construction ~33x the cost of the
/// clustering it decorates at n~8000. The fused sweep halves the BFS count,
/// bounds every sweep, and replaces the O(H^2) probes with an O(|reached|)
/// scan against the clustering's O(1) head test.
///
/// Determinism: sweeps are independent per head; nc_sweep runs blocks of
/// consecutive heads (exec_blocks: one block without a pool), each appending
/// its links to its own VirtualLinkBlock, and concatenates the blocks in
/// head order, so the output is bit-identical for any thread count — and
/// matches the reference two-pass pipeline (tests/oracles/nbr_reference.hpp
/// + gateway_reference.hpp) exactly. NC selection is symmetric, so
/// head_pairs is read off the links.
#pragma once

#include "khop/cluster/clustering.hpp"
#include "khop/gateway/virtual_link.hpp"
#include "khop/nbr/neighbor_rules.hpp"
#include "khop/runtime/exec.hpp"

namespace khop {

/// Both phase-1 outputs of one fused pass over the clusterheads.
struct HeadSweep {
  NeighborSelection sel;  ///< NC selection (rule kAllWithin2k1)
  VirtualLinkMap links;   ///< canonical links for every pair in sel
};

/// The fused sweep over every head, in blocks under \p exec.
HeadSweep nc_sweep(const Graph& g, const Clustering& c, Exec exec = {});

}  // namespace khop
