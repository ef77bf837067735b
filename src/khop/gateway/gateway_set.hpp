/// \file gateway_set.hpp
/// The gateway list of the three combiners (mesh, LMSTGA, G-MST): the
/// interior nodes of the kept virtual links that are not clusterheads, each
/// once, in ascending id order.
///
/// Instead of sorting and deduplicating every kept link's interior nodes,
/// the set marks each gateway in a byte flag per node id and emits them by
/// one scan of the marked id range, so a backbone's gateway list costs
/// O(path nodes + marked range) with no sort.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "khop/cluster/clustering.hpp"

namespace khop {

class GatewaySet {
 public:
  /// Collects into \p marks: one byte per node id, all zero between uses
  /// (a Workspace's gateway_marks), grown here to c.head_of.size().
  GatewaySet(const Clustering& c, std::vector<std::uint8_t>& marks);

  /// Zeroes the marks take() did not clear (a throw between add and take),
  /// so the next set starts from clean flags.
  ~GatewaySet();

  GatewaySet(const GatewaySet&) = delete;
  GatewaySet& operator=(const GatewaySet&) = delete;

  /// Marks the nodes of \p interior that are not clusterheads.
  /// \pre every id < c.head_of.size()
  void add(std::span<const NodeId> interior);

  /// The marked nodes, ascending and distinct; leaves the marks zero.
  std::vector<NodeId> take();

 private:
  const Clustering& c_;
  std::vector<std::uint8_t>& marks_;
  std::size_t count_ = 0;  ///< marked nodes
  std::size_t lo_ = 0;     ///< smallest marked id (valid when count_ > 0)
  std::size_t hi_ = 0;     ///< largest marked id
};

}  // namespace khop
