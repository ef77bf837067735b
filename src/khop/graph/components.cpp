#include "khop/graph/components.hpp"

#include <algorithm>
#include <cstdint>

#include "khop/common/assert.hpp"

namespace khop {

Components connected_components(const Graph& g) {
  Components c;
  c.label.assign(g.num_nodes(), kInvalidNode);
  std::vector<NodeId> stack;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    if (c.label[s] != kInvalidNode) continue;
    const auto id = static_cast<NodeId>(c.count++);
    c.label[s] = id;
    stack.push_back(s);
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (NodeId v : g.neighbors(u)) {
        if (c.label[v] == kInvalidNode) {
          c.label[v] = id;
          stack.push_back(v);
        }
      }
    }
  }
  return c;
}

bool is_connected(const Graph& g) {
  if (g.num_nodes() <= 1) return true;
  return connected_components(g).count == 1;
}

bool is_connected_subset(const Graph& g, std::span<const NodeId> part_a,
                         std::span<const NodeId> part_b) {
  // mark: 0 outside the subset, 1 member not yet reached, 2 reached.
  std::vector<std::uint8_t> mark(g.num_nodes(), 0);
  std::size_t members = 0;
  for (const std::span<const NodeId> part : {part_a, part_b}) {
    for (const NodeId v : part) {
      KHOP_REQUIRE(v < g.num_nodes(), "subset id out of range");
      if (mark[v] == 0) {
        mark[v] = 1;
        ++members;
      }
    }
  }
  if (members <= 1) return true;

  const NodeId start = part_a.empty() ? part_b.front() : part_a.front();
  std::vector<NodeId> stack{start};
  mark[start] = 2;
  std::size_t reached = 1;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    for (NodeId v : g.neighbors(u)) {
      if (mark[v] == 1) {
        mark[v] = 2;
        if (++reached == members) return true;
        stack.push_back(v);
      }
    }
  }
  return false;
}

LargestComponent largest_component(const Graph& g) {
  const Components c = connected_components(g);
  std::vector<std::size_t> sizes(c.count, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) ++sizes[c.label[v]];
  const auto best = static_cast<NodeId>(std::distance(
      sizes.begin(), std::max_element(sizes.begin(), sizes.end())));

  LargestComponent lc;
  lc.new_id.assign(g.num_nodes(), kInvalidNode);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (c.label[v] == best) {
      lc.new_id[v] = static_cast<NodeId>(lc.original_ids.size());
      lc.original_ids.push_back(v);
    }
  }
  return lc;
}

}  // namespace khop
