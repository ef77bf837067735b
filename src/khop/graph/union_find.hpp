/// \file union_find.hpp
/// Disjoint-set union with path halving + union by size.
#pragma once

#include <cstddef>
#include <numeric>
#include <vector>

#include "khop/common/types.hpp"

namespace khop {

class UnionFind {
 public:
  /// Empty structure; call reset() before use.
  UnionFind() = default;

  explicit UnionFind(std::size_t n) { reset(n); }

  /// Re-initializes to \p n singleton sets, reusing the arrays' capacity
  /// (Workspace keeps one across Monte-Carlo placements).
  void reset(std::size_t n) {
    parent_.resize(n);
    std::iota(parent_.begin(), parent_.end(), NodeId{0});
    size_.assign(n, 1);
  }

  NodeId find(NodeId x) noexcept {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  }

  /// Merges the sets of a and b; returns false if already joined.
  bool unite(NodeId a, NodeId b) noexcept {
    NodeId ra = find(a), rb = find(b);
    if (ra == rb) return false;
    if (size_[ra] < size_[rb]) std::swap(ra, rb);
    parent_[rb] = ra;
    size_[ra] += size_[rb];
    return true;
  }

  bool connected(NodeId a, NodeId b) noexcept { return find(a) == find(b); }

  std::size_t set_size(NodeId x) noexcept { return size_[find(x)]; }

 private:
  std::vector<NodeId> parent_;
  std::vector<std::size_t> size_;
};

}  // namespace khop
