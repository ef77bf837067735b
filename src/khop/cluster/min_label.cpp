#include "khop/cluster/min_label.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <tuple>

#include "khop/common/assert.hpp"

namespace khop {

void priority_order(const std::vector<PriorityKey>& priorities,
                    std::vector<NodeId>& order) {
  for (const PriorityKey& p : priorities) {
    KHOP_REQUIRE(!std::isnan(p.key), "priority keys must not be NaN");
  }
  order.resize(priorities.size());
  std::iota(order.begin(), order.end(), NodeId{0});
  const auto before = [&](NodeId a, NodeId b) {
    return std::tie(priorities[a], a) < std::tie(priorities[b], b);
  };
  // Lowest-id priorities (the paper's configuration) arrive sorted.
  if (!std::is_sorted(order.begin(), order.end(), before)) {
    std::sort(order.begin(), order.end(), before);
  }
}

bool min_label_pass(const Graph& g, std::span<const std::uint32_t> in,
                    std::span<std::uint32_t> out) {
  const std::size_t n = g.num_nodes();
  bool dropped = false;
  for (NodeId v = 0; v < n; ++v) {
    std::uint32_t m = in[v];
    for (const NodeId u : g.neighbors(v)) m = std::min(m, in[u]);
    out[v] = m;
    dropped |= m < in[v];
  }
  return dropped;
}

}  // namespace khop
