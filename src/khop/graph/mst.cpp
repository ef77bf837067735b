#include "khop/graph/mst.hpp"

#include <algorithm>
#include <tuple>

#include "khop/common/assert.hpp"
#include "khop/common/error.hpp"
#include "khop/graph/union_find.hpp"

namespace khop {

bool edge_less(const WeightedEdge& a, const WeightedEdge& b) noexcept {
  const auto key = [](const WeightedEdge& e) {
    return std::tuple(e.weight, std::min(e.u, e.v), std::max(e.u, e.v));
  };
  return key(a) < key(b);
}

std::vector<WeightedEdge> kruskal_mst(std::size_t n,
                                      std::vector<WeightedEdge> edges) {
  for (const auto& e : edges) {
    KHOP_REQUIRE(e.u < n && e.v < n && e.u != e.v, "bad MST edge");
  }
  std::sort(edges.begin(), edges.end(), edge_less);
  UnionFind uf(n);
  std::vector<WeightedEdge> tree;
  tree.reserve(n > 0 ? n - 1 : 0);
  for (const auto& e : edges) {
    if (uf.unite(e.u, e.v)) {
      tree.push_back(e);
      if (tree.size() + 1 == n) break;
    }
  }
  if (n > 0 && tree.size() + 1 != n) {
    throw NotConnected("kruskal_mst: edge set does not span all nodes");
  }
  return tree;
}

}  // namespace khop
