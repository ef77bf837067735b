/// \file head_sweep.hpp
/// The Phase-2 front end: for one neighbor rule, the selected head pairs and
/// their canonical virtual links, the two inputs every gateway combiner
/// (mesh, LMSTGA, G-MST) reads.
///
/// Under the NC rule both come from ONE bounded BFS (horizon 2k+1) per
/// clusterhead: a head's neighbor heads are exactly the heads inside its
/// 2k+1-hop ball, and the canonical virtual link for a pair (u, v), u < v,
/// is extracted from the min-id-parent BFS rooted at u — the very sweep that
/// discovered v. This fused sweep is the library's only NC discovery loop;
/// select_neighbors(kAllWithin2k1) returns its selection. The other rules
/// select first (A-NCR scans cluster adjacency, Wu-Lou runs horizon-3
/// sweeps) and then extract their pairs' links with a 2k+1-bounded build.
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

/// Both Phase-2 inputs for one neighbor rule.
struct HeadSweep {
  NeighborSelection sel;  ///< the rule's selection
  VirtualLinkMap links;   ///< canonical links for every pair in sel
};

/// The fused NC sweep over every head, in blocks under \p exec. Reads
/// heads and head_of only (not cluster_of).
HeadSweep nc_sweep(const Graph& g, const Clustering& c, Exec exec = {});

/// The front end for \p rule: nc_sweep for kAllWithin2k1, else
/// select_neighbors plus VirtualLinkMap::build bounded at 2k+1, all under
/// \p exec.
HeadSweep sweep_heads(const Graph& g, const Clustering& c, NeighborRule rule,
                      Exec exec = {});

}  // namespace khop
