#include "oracles/cds_reference.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "khop/common/assert.hpp"
#include "oracles/bfs_reference.hpp"

namespace khop::reference {

namespace {

/// The mask-based subset connectivity check validate_backbone used.
bool is_connected_subset(const Graph& g, const std::vector<bool>& in_subset) {
  KHOP_REQUIRE(in_subset.size() == g.num_nodes(),
               "subset mask size mismatch");
  NodeId start = kInvalidNode;
  std::size_t subset_size = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (in_subset[v]) {
      ++subset_size;
      if (start == kInvalidNode) start = v;
    }
  }
  if (subset_size <= 1) return true;

  std::vector<bool> seen(g.num_nodes(), false);
  std::vector<NodeId> stack{start};
  seen[start] = true;
  std::size_t reached = 1;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    for (NodeId v : g.neighbors(u)) {
      if (in_subset[v] && !seen[v]) {
        seen[v] = true;
        ++reached;
        stack.push_back(v);
      }
    }
  }
  return reached == subset_size;
}

}  // namespace

std::string validate_backbone(const Graph& g, const Backbone& b) {
  std::ostringstream err;
  const std::size_t n = g.num_nodes();

  if (!std::is_sorted(b.heads.begin(), b.heads.end()) ||
      std::adjacent_find(b.heads.begin(), b.heads.end()) != b.heads.end()) {
    return "heads are not sorted-unique";
  }
  if (!std::is_sorted(b.gateways.begin(), b.gateways.end()) ||
      std::adjacent_find(b.gateways.begin(), b.gateways.end()) !=
          b.gateways.end()) {
    return "gateways are not sorted-unique";
  }
  for (NodeId h : b.heads) {
    if (h >= n) return "head id out of range";
  }
  for (NodeId w : b.gateways) {
    if (w >= n) return "gateway id out of range";
    if (std::binary_search(b.heads.begin(), b.heads.end(), w)) {
      err << "node " << w << " is both head and gateway";
      return err.str();
    }
  }
  for (const auto& [u, v] : b.virtual_links) {
    if (!std::binary_search(b.heads.begin(), b.heads.end(), u) ||
        !std::binary_search(b.heads.begin(), b.heads.end(), v)) {
      err << "virtual link (" << u << "," << v << ") endpoint is not a head";
      return err.str();
    }
  }

  if (!is_connected_subset(g, b.cds_mask(n))) {
    return "CDS (heads + gateways) is not connected in G";
  }
  return {};
}

std::string validate_k_cds(const Graph& g, const Clustering& c,
                           const Backbone& b) {
  if (std::string err = validate_backbone(g, b); !err.empty()) return err;

  // k-hop domination by heads.
  const MultiSourceBfs ms = reference::multi_source_bfs(g, b.heads);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (ms.dist[v] == kUnreachable || ms.dist[v] > c.k) {
      std::ostringstream os;
      os << "node " << v << " is not k-hop dominated (nearest head "
         << (ms.dist[v] == kUnreachable ? std::string("unreachable")
                                        : std::to_string(ms.dist[v]))
         << " hops, k = " << c.k << ")";
      return os.str();
    }
  }
  return {};
}

}  // namespace khop::reference
