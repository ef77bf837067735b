/// \file cds_reference.hpp
/// The k-CDS validators as they were before their checks became bounded,
/// preserved as oracles. validate_backbone tests disjointness with one
/// binary search per gateway and CDS connectivity through an n-sized
/// std::vector<bool> mask; validate_k_cds decides k-domination with one full
/// owner-tracking multi-source BFS (bfs_reference.hpp's, where the original
/// called the bit-identical khop::multi_source_bfs). The production versions (cds.hpp,
/// gateway/validate.hpp) must return byte-identical strings on every input.
/// Not for production call sites.
#pragma once

#include <string>

#include "khop/cluster/clustering.hpp"
#include "khop/gateway/backbone.hpp"
#include "khop/graph/graph.hpp"

namespace khop::reference {

/// Original backbone checker; output identical to khop::validate_backbone.
std::string validate_backbone(const Graph& g, const Backbone& b);

/// Original k-CDS checker; output identical to khop::validate_k_cds.
std::string validate_k_cds(const Graph& g, const Clustering& c,
                           const Backbone& b);

}  // namespace khop::reference
