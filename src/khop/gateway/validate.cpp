#include "khop/gateway/validate.hpp"

#include <algorithm>
#include <sstream>

#include "khop/graph/components.hpp"

namespace khop {

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
  // Both lists are sorted-unique from here on: the largest head is the last,
  // and one merge walk finds the first gateway (in list order) that is out of
  // range or also a head.
  if (!b.heads.empty() && b.heads.back() >= n) return "head id out of range";
  auto head = b.heads.begin();
  for (NodeId w : b.gateways) {
    if (w >= n) return "gateway id out of range";
    while (head != b.heads.end() && *head < w) ++head;
    if (head != b.heads.end() && *head == w) {
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

  if (!is_connected_subset(g, b.heads, b.gateways)) {
    return "CDS (heads + gateways) is not connected in G";
  }
  return {};
}

}  // namespace khop
