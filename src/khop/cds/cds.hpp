/// \file cds.hpp
/// k-hop connected dominating set (CDS) view of a backbone and its
/// validation. In 1-hop clustering the heads + gateways form a classic CDS;
/// for general k they form a k-hop CDS: the set is connected and every node
/// is within k hops of it (here: of a clusterhead).
#pragma once

#include <string>
#include <vector>

#include "khop/cluster/clustering.hpp"
#include "khop/gateway/backbone.hpp"
#include "khop/graph/graph.hpp"
#include "khop/runtime/exec.hpp"

namespace khop {

struct Cds {
  Hops k = 1;
  std::vector<NodeId> nodes;  ///< heads ∪ gateways, ascending
  std::size_t num_heads = 0;
  std::size_t num_gateways = 0;

  std::size_t size() const noexcept { return nodes.size(); }
};

/// Extracts the CDS from a backbone.
Cds extract_cds(const Clustering& c, const Backbone& b);

/// Full k-hop CDS validation: validate_backbone (which checks that the CDS
/// is connected in g) AND every node of g is within k hops of some
/// clusterhead. Empty string on success, else the first violation.
///
/// Domination is decided by one k-bounded coverage sweep from the heads on
/// \p ws's scratch (BfsScratch::run_cover): no owners, no level sort, no
/// n-sized output. Only when some node is left undominated does a
/// full multi_source_bfs run, to name the lowest such node and its nearest
/// head's distance in the error.
std::string validate_k_cds(const Graph& g, const Clustering& c,
                           const Backbone& b, Workspace& ws = tls_workspace());

}  // namespace khop
