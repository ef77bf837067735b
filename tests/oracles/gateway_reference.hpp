/// \file gateway_reference.hpp
/// Pre-PR4 gateway-layer implementations, preserved verbatim as independent
/// oracles. The production paths now bound every per-source BFS to the
/// paper's 2k+1 structural horizon, fuse NC head discovery with link
/// extraction (head_sweep.hpp), and optionally fan sweeps across a
/// ThreadPool; these reference versions keep the original structure — the
/// std::map-grouped build with one UNBOUNDED BFS per source, and the G-MST
/// complete virtual graph built from one unbounded allocating BFS per head.
/// They exist for the bit-exact equivalence suite and as the baseline the
/// perf-regression harness measures speedups against. Not for production
/// call sites.
#pragma once

#include <utility>
#include <vector>

#include "khop/gateway/backbone.hpp"
#include "khop/gateway/gmst.hpp"
#include "khop/gateway/virtual_link.hpp"

namespace khop::reference {

/// Original map-grouped unbounded-BFS build; output bit-identical to
/// khop::VirtualLinkMap::build at any valid horizon.
VirtualLinkMap build_virtual_links(
    const Graph& g, const std::vector<std::pair<NodeId, NodeId>>& pairs);

/// Original complete-virtual-graph G-MST; output bit-identical to
/// khop::gmst_gateways.
GmstResult gmst_gateways(const Graph& g, const Clustering& c);

/// Phase 2 composed entirely from the reference pieces above plus the
/// reference neighbor rules (nbr_reference.hpp); output bit-identical to
/// khop::build_backbone. (Mesh and LMSTGA are pure functions of the
/// selection and links, unchanged by PR4, and are shared.)
Backbone build_backbone(const Graph& g, const Clustering& c,
                        const BackboneSpec& spec);
Backbone build_backbone(const Graph& g, const Clustering& c, Pipeline p);

}  // namespace khop::reference
