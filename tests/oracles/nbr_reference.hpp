/// \file nbr_reference.hpp
/// Pre-PR4 neighbor-rule implementations, preserved verbatim as independent
/// oracles. The production paths in neighbor_rules.hpp now discover neighbor
/// heads by scanning each bounded sweep's reached set against the clustering's
/// O(1) head lookup (and the NC pipeline fuses discovery with virtual-link
/// extraction, see gateway/head_sweep.hpp); these reference versions keep the
/// original structure — per-head O(H) all-heads distance probes, the
/// std::set-accumulated adjacent-cluster pairs, and the Wu-Lou per-pair
/// reached-set rescan — and share no code with them. They exist for the
/// bit-exact equivalence suite and as the baseline the perf-regression
/// harness measures speedups against. Not for production call sites.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "khop/nbr/neighbor_rules.hpp"

namespace khop::reference {

/// Original std::set-based accumulation; output bit-identical to
/// khop::adjacent_cluster_pairs.
std::vector<std::pair<std::uint32_t, std::uint32_t>> adjacent_cluster_pairs(
    const Graph& g, const Clustering& c);

/// Original per-head all-heads-scan selection loops; output bit-identical to
/// khop::select_neighbors.
NeighborSelection select_neighbors(const Graph& g, const Clustering& c,
                                   NeighborRule rule);

}  // namespace khop::reference
